"""An idealized Stern-Gerlach stage: decorrelation without which-way reading.

Measuring one tensor factor of the screen-point pair state (along any axis)
produces a two-entry mixture.  Its screen transmission comes out as
cos^2(phi)/2: the fringes survive at half strength rather than disappearing.
Because u and v are invariant under equal rotations, the measurement axis
drops out entirely, so no repositioning of the magnet changes that
prediction within this formalism.
"""

import numpy as np

from spinfringe import (
    PairState,
    SlitGeometry,
    SternGerlachStage,
    ensemble_transmission,
    intensity_profile,
    measure_factor,
)

print("Measuring factor 1 of cos(phi) u - sin(phi) v in the rotated basis:")
for phi in (0.0, 0.4, 1.0):
    state = PairState.from_rotation(phi).as_state()
    for axis in (0.0, np.pi / 8, np.pi / 3):
        ensemble = measure_factor(state, factor=1, axis_angle=axis)
        weights = [round(w, 6) for w, _ in ensemble.entries]
        value = ensemble_transmission(ensemble, "u")
        print(
            f"  phi = {phi:.1f}, axis = {axis:.3f}: weights {weights}, "
            f"u-transmission = {value:.6f} (cos^2(phi)/2 = {np.cos(phi) ** 2 / 2:.6f})"
        )

layout = SlitGeometry.evenly_spaced(2, 2e-6, 500e-9, 1.0)
thetas = np.linspace(-0.3, 0.3, 801)
plain = intensity_profile(layout, thetas)
# the stage measures factor 1 of the pair state at every screen angle
values = intensity_profile(layout, thetas, stage=SternGerlachStage(1)).intensities

print("\nScreen profile with the stage on:")
print(f"  peak without stage: {plain.intensities.max():.3f} * I0")
print(f"  peak with stage   : {values.max():.3f} * I0")
ratio = values / np.maximum(plain.intensities, 1e-300)
print(f"  pointwise ratio   : {ratio.min():.6f} .. {ratio.max():.6f} (exactly 1/2)")
print(
    "  visibility with stage: "
    f"{(values.max() - values.min()) / (values.max() + values.min()):.3f}"
)
print("\nThe mixture is attenuated but still fringed; the correlation that was")
print("destroyed shows up as the lost half of the intensity, not as lost contrast.")
