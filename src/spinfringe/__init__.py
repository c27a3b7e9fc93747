"""Spin-pair correlation model of multi-slit interference.

The library models fringe formation through two-particle spin states induced
by the apertures: rotationally invariant pair states, planar pair rotations,
screen-point pair phases, transmission probabilities, which-way collapse,
and projective single-factor measurement -- validated point by point against
an independent classical-wave oracle.
"""

from types import ModuleType as _ModuleType

from .config import (
    OUTPUT_DIR_ENV,
    ConfigError,
    SimulationConfig,
    default_config,
    load_config,
    merge_overrides,
)
from .fringe import (
    DETECT_STATE_TOL,
    PHASE_CONVENTIONS,
    TRANSMITTED_CHOICES,
    DetectionResult,
    FringeProfile,
    GeometryError,
    PairState,
    SternGerlachStage,
    UnsupportedCollapseError,
    detect_at_slit,
    ensemble_transmission,
    intensity_profile,
    measure_factor,
    multi_slit_intensity,
    transmission_probability,
    two_slit_state_at,
)
from .geometry import (
    ScreenPoint,
    SlitGeometry,
    incidence_angles,
    pair_phase,
    slit_phases,
    subtended_angle,
)
from .oracle import classical_intensity, independent_intensity, pairwise_identity_check
from .qstate import (
    NORM_TOL,
    Ensemble,
    Spinor,
    TwoSpinState,
    basis_u,
    basis_v,
    decompose_uv,
    inner,
    tensor,
)
from .rotor import (
    UV_SPAN_TOL,
    NotInUVSpanError,
    apply_pair,
    compose_pair_state,
    pair_on_u,
    pair_on_v,
    rotation_matrix,
)

__version__ = "0.1.0"  # the one version string; pyproject.toml reads it

# every public name the imports above bind, the submodules they bind aside
__all__ = sorted(name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType))
