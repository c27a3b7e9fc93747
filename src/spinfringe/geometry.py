"""Slit layout, screen parameterization, incidence angles, and pair phases.

Screen points are parameterized by the angle ``theta`` from the central
normal.  ``incidence_angles``, ``slit_phases`` and ``pair_phase`` take a
``ScreenPoint`` or, in its place, a 1-D grid of S angles, which adds a
leading axis whose row k is the value at ``ScreenPoint(thetas[k])``; m
layouts of one slit count with m angles give row k at layout k, thetas[k].
Slit indices are 1-based, matching the aperture labels a_1 .. a_N.

Two distinct angle-like quantities are computed per aperture pair:

* ``pair_phase`` -- the optical path phase k*(a_j - a_i), the wavenumber
  k = 2*pi*sin(theta)/lambda times the slit separation, which drives all
  intensity predictions, and
* ``subtended_angle`` -- the geometric angle between the two rays meeting at
  the screen point, exposed as a diagnostic.  The two agree only in the
  far-field, small-angle regime.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """A configuration value violated its invariant; carries the field name.

    Defined here, at the bottom of the import graph, so the layout checks can
    name the config field they reject; ``config`` re-exports this class.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def _exact_int(value) -> int:
    """An integer-valued number as int; bools and fractional values raise TypeError."""
    if isinstance(value, bool):
        raise TypeError(f"not an integer: {value!r}")
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return operator.index(value)


def _slit_indices(index, n: int, name: str):
    """1-based slit indices into n slits, read by ``_exact_int``: an int for a number, else an int array."""
    array = isinstance(index, (np.ndarray, Sequence)) and not isinstance(index, str)
    if not (isinstance(index, np.ndarray) and index.dtype.kind in "iu"):  # integer arrays pass unchanged
        index = np.array(np.frompyfunc(_exact_int, 1, 1)(np.array(index, object)), int) if array else _exact_int(index)
    bad = index[(index < 1) | (index > n)] if array else ([] if 1 <= index <= n else [index])
    if len(bad):
        raise IndexError(f"slit index {name}={bad[0]} out of range 1..{n}")
    return index


@dataclass(frozen=True)
class SlitGeometry:
    """Aperture layout: transverse slit positions, wavelength, screen distance.

    Positions are absolute transverse coordinates on the aperture plane
    (meters, strictly increasing), so N-slit layouts need no special casing;
    separations fall out as position differences.
    """

    slit_positions: tuple[float, ...]
    wavelength: float
    screen_distance: float

    def __post_init__(self) -> None:
        pos = tuple(float(a) for a in self.slit_positions)
        if len(pos) < 2:
            raise ConfigError("slit_positions", f"need at least 2 slits, got {len(pos)}")
        if not all(math.isfinite(a) for a in pos):
            raise ConfigError("slit_positions", "must be finite")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ConfigError("slit_positions", f"must be strictly increasing, got {pos}")
        _check_positive("wavelength", self.wavelength)
        _check_positive("screen_distance", self.screen_distance)
        object.__setattr__(self, "slit_positions", pos)
        object.__setattr__(self, "wavelength", float(self.wavelength))
        object.__setattr__(self, "screen_distance", float(self.screen_distance))

    @property
    def n_slits(self) -> int:
        return len(self.slit_positions)

    @classmethod
    def evenly_spaced(
        cls, count: int, separation: float, wavelength: float, screen_distance: float
    ) -> "SlitGeometry":
        """Layout of ``count`` slits with center-to-center ``separation``, centered on 0."""
        count = _exact_int(count)
        if count < 2:
            raise ConfigError("slit_count", f"need at least 2 slits, got {count}")
        _check_positive("separation", separation)
        offset = 0.5 * (count - 1)
        positions = tuple((k - offset) * separation for k in range(count))
        return cls(positions, wavelength, screen_distance)


def _check_positive(field: str, value: float) -> None:
    # True > 0, as 1 is, so a bool is refused; a float, the usual value, skips that test
    if type(value) is not float and isinstance(value, (bool, np.bool_)) or not (math.isfinite(value) and value > 0):
        raise ConfigError(field, f"must be positive, got {value}")


@dataclass(frozen=True)
class ScreenPoint:
    """Screen position given as the angle theta (radians) from the central normal."""

    theta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", float(_checked_thetas(self.theta)))


def _checked_thetas(thetas) -> np.ndarray:
    """``thetas`` as a float array; raises unless every entry is finite with |theta| < pi/2."""
    grid = np.asarray(thetas, dtype=float)
    inside = np.abs(grid) < math.pi / 2  # False for nan and inf as well
    if not inside.all():
        raise ValueError(f"theta must be finite with |theta| < pi/2, got {grid[~inside].flat[0]}")
    return grid


def _screen_angles(point) -> float | np.ndarray:
    """theta of a ScreenPoint, or a checked angle grid."""
    return point.theta if isinstance(point, ScreenPoint) else _checked_thetas(point)


def _by_slit_count(layouts, thetas) -> list[tuple[np.ndarray, list[SlitGeometry], np.ndarray]]:
    """m layouts with m checked angles, as (rows, layouts, thetas) per slit count in ascending order."""
    layouts, grid = list(layouts), _checked_thetas(thetas)
    if grid.shape != (len(layouts),):
        raise ValueError(f"{len(layouts)} stacked layouts need {len(layouts)} angles, got shape {grid.shape}")
    counts = np.array([layout.n_slits for layout in layouts], dtype=int)
    groups = (np.flatnonzero(counts == n) for n in sorted(set(counts.tolist())))
    return [(rows, [layouts[r] for r in rows], grid[rows]) for rows in groups]


def _positions_and_wavenumber(geometry, point) -> tuple[np.ndarray, float | np.ndarray]:
    """Positions and k = 2*pi*sin(theta)/lambda: (N,) and point-shaped, or (m, N) and (m,) for a stack."""
    if isinstance(geometry, SlitGeometry):
        pos, wavelength, thetas = np.asarray(geometry.slit_positions), geometry.wavelength, _screen_angles(point)
    else:
        groups = _by_slit_count(geometry, point)
        if len(groups) != 1:
            raise ValueError(f"a stack needs one slit count, got {[g[1][0].n_slits for g in groups]}")
        _, layouts, thetas = groups[0]
        pos = np.array([layout.slit_positions for layout in layouts])
        wavelength = np.array([layout.wavelength for layout in layouts])
    return pos, 2.0 * math.pi * np.sin(thetas) / wavelength


def _pair_indices(n: int, i, j, quantity: str) -> tuple[np.ndarray, np.ndarray]:
    """0-based index arrays of 1-based ``_slit_indices`` i and j into n slits; i == j raises IndexError."""
    first, second = np.broadcast_arrays(_slit_indices(i, n, "i"), _slit_indices(j, n, "j"))
    same = first == second
    if same.any():
        raise IndexError(f"{quantity} needs two distinct slits, got i=j={first[same][0]}")
    return first - 1, second - 1


def incidence_angles(geometry: SlitGeometry, point) -> np.ndarray:
    """Angle of the straight ray from each slit to the screen point.

    With the screen point at transverse position x = L*tan(theta), slit i's
    ray makes the angle alpha_i = arctan((x - a_i)/L) with the normal.  Exact
    geometry; no small-angle approximation.
    """
    x = geometry.screen_distance * np.tan(_screen_angles(point))
    pos = np.asarray(geometry.slit_positions)
    return np.arctan(np.subtract.outer(x, pos) / geometry.screen_distance)


def slit_phases(geometry: SlitGeometry | Sequence[SlitGeometry], point) -> np.ndarray:
    """Optical phase k*a_k = 2*pi*a_k*sin(theta)/lambda accumulated by each slit's ray.

    Only differences are physical; ``pair_phase`` takes them from separations.
    """
    pos, k = _positions_and_wavenumber(geometry, point)
    return np.expand_dims(k, -1) * pos


def pair_phase(geometry: SlitGeometry | Sequence[SlitGeometry], point, i, j) -> float | np.ndarray:
    """Optical phase difference phi_ij = k*(a_j - a_i) = 2*pi*(a_j - a_i)*sin(theta)/lambda.

    Taken from the separation, so phi_ij == -phi_ji exactly (k*(-x) = -(k*x)
    in IEEE arithmetic) and a shift that keeps every separation exact leaves
    it unchanged; additive (phi_ik = phi_ij + phi_jk) up to last-bit rounding
    and strictly monotone in sin(theta).  ``i``, ``j`` are 1-based indices or
    index arrays: the result has shape grid (or stack) + index shape (a float
    for a ScreenPoint and scalars).  2.0 reads as 2, a bool or fraction raises
    TypeError, and an index outside 1..N or i == j raises IndexError.
    """
    pos, k = _positions_and_wavenumber(geometry, point)
    first, second = _pair_indices(pos.shape[-1], i, j, "pair phase")
    phases = np.reshape(k, np.shape(k) + (1,) * first.ndim) * (pos[..., second] - pos[..., first])
    return phases if phases.ndim else float(phases)


def subtended_angle(geometry: SlitGeometry, point: ScreenPoint, i: int, j: int) -> float:
    """Geometric angle alpha_i - alpha_j between rays i and j meeting at the point.

    Diagnostic companion to ``pair_phase``: it tends to 0 as the screen
    recedes while the optical phase stays fixed.
    """
    first, second = _pair_indices(geometry.n_slits, i, j, "subtended angle")
    angles = incidence_angles(geometry, point)
    return float(angles[first] - angles[second])
