"""The physical model layer: pair states at screen points and what they predict.

At every screen point the two slits induce a correlated pair state

    cos(phi) u - sin(phi) v

whose u-weight squared is the probability that the transmitted state
registers there.  Sweeping the screen angle turns that probability into a
fringe profile.  Which-way detection collapses the pair state to a
single-particle state and the fringes flatten; a projective measurement of
one tensor factor (an idealized Stern-Gerlach stage) produces a two-entry
mixture whose screen prediction is computed, not assumed.

Phase conventions: the rotation angle phi applied to the u/v plane is either
the full optical pair phase ("paper") or half of it ("half").  The half
convention reproduces the classical wave pattern cos^2(phase/2) with maxima
at d*sin(theta) = m*lambda; the full convention puts maxima at
d*sin(theta) = m*lambda/2.  Both are first-class; callers choose.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import (ScreenPoint, SlitGeometry, _by_slit_count, _check_positive, _checked_thetas, _exact_int,
                       _positions_and_wavenumber, _slit_indices, pair_phase)
from .qstate import _SQRT_HALF, Ensemble, Spinor, TwoSpinState, basis_u, basis_v
from .rotor import _is_single, rotation_matrix

PHASE_CONVENTIONS = ("paper", "half")
TRANSMITTED_CHOICES = ("u", "v")

#: Max-abs deviation from u accepted by the which-way collapse operator.
DETECT_STATE_TOL = 1e-10

_WEIGHT_CUTOFF = 1e-14

#: Most rows, and most (row, column) cells, that a blocked pass holds at once; bound its temporaries.
_BLOCK_ROWS = 1000
_BLOCK_CELLS = 2**18
#: Most threads that share one profile's row blocks.
_MAX_WORKERS = 8


class GeometryError(ValueError):
    """Raised when an operation gets a slit layout it is not defined for."""


class UnsupportedCollapseError(ValueError):
    """Raised when the which-way collapse is applied to a state it is not defined on."""


def _rotation_scale(convention: str) -> float:
    if convention not in PHASE_CONVENTIONS:
        raise ValueError(f"phase convention must be one of {PHASE_CONVENTIONS}, got {convention!r}")
    return 1.0 if convention == "paper" else 0.5


def _check_choice(choice: str) -> None:
    if choice not in TRANSMITTED_CHOICES:
        raise ValueError(f"transmitted choice must be one of {TRANSMITTED_CHOICES}, got {choice!r}")


def _row_blocks(count: int, width: int = 1) -> list[slice]:
    """In-order slices over ``count`` rows: 1 to ``_BLOCK_ROWS`` rows, at most ``_BLOCK_CELLS`` cells each."""
    rows = max(1, min(_BLOCK_ROWS, _BLOCK_CELLS // width))
    return [slice(start, min(start + rows, count)) for start in range(0, count, rows)]


def _workers(blocks: int) -> int:
    """Threads for ``blocks`` row blocks: the CPUs this process may run on, at most ``_MAX_WORKERS`` and ``blocks``."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS, blocks))


def _run_blocks(evaluate, starts: range) -> None:
    """``evaluate`` every start on ``_workers`` threads, the caller's among them, each taking the next start.

    Once one raises, no thread starts another block; the first error is raised after all have stopped.
    """
    pending, lock, errors = iter(starts), threading.Lock(), []

    def work() -> None:
        try:
            while not errors:
                with lock:
                    start = next(pending, None)
                if start is None:
                    return
                evaluate(start)
        except BaseException as error:  # raised again below, in the caller's thread
            errors.append(error)

    threads = [threading.Thread(target=work) for _ in range(_workers(len(starts)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def _theta_grid(thetas) -> np.ndarray:
    """``thetas`` as a non-empty, strictly increasing 1-D grid of screen angles."""
    grid = _checked_thetas(thetas)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("theta grid must be a non-empty 1-D array")
    if not np.all(np.diff(grid) > 0):
        raise ValueError("theta grid must be strictly increasing")
    return grid


@dataclass(frozen=True, eq=False)
class PairState:
    """Pair state cos(phi) u - sin(phi) v at one screen point, or at each of a grid.

    ``phi`` is the u/v-plane rotation angle (already convention-scaled);
    ``c_u`` and ``c_v`` are its real u/v coordinates, with
    c_u^2 + c_v^2 = 1.  c_u is the amplitude usually called rho: the
    transmitted state registers with probability rho^2 = c_u^2.  The fields
    are floats for one point and read-only arrays of the grid's shape for a
    grid; equality is identity, as for ``FringeProfile``.
    """

    phi: float | np.ndarray
    c_u: float | np.ndarray
    c_v: float | np.ndarray

    def __post_init__(self) -> None:
        if len(set(shapes := [np.shape(self.phi), np.shape(self.c_u), np.shape(self.c_v)])) > 1:
            raise ValueError(f"pair-state phi, c_u and c_v must share one shape, got shapes {shapes}")
        total = np.square(self.c_u) + np.square(self.c_v)
        on_circle = np.abs(total - 1.0) <= 1e-12  # False for NaN as well
        if not on_circle.all():
            raise ValueError(
                f"pair-state coordinates must lie on the unit circle, got "
                f"c_u^2 + c_v^2 = {total[~on_circle][0]}"
            )
        for name in ("phi", "c_u", "c_v"):
            if isinstance(getattr(self, name), np.ndarray):
                object.__setattr__(self, name, np.array(getattr(self, name), dtype=float))
                getattr(self, name).setflags(write=False)

    @classmethod
    def from_rotation(cls, phi) -> "PairState":
        """Pair state produced by rotating u through ``phi``; an angle array gives array fields."""
        p = np.asarray(phi, dtype=float)
        fields = (p, np.cos(p), -np.sin(p))
        return cls(*(field if p.ndim else float(field) for field in fields))

    def as_state(self) -> TwoSpinState | np.ndarray:
        """The 4-amplitude state c_u * u + c_v * v; array fields give an ``(..., 4)`` stack."""
        u, v = basis_u().vector(), basis_v().vector()
        amps = np.multiply.outer(self.c_u, u) + np.multiply.outer(self.c_v, v)
        return TwoSpinState.from_vector(amps) if amps.ndim == 1 else amps


@dataclass(frozen=True, eq=False)
class FringeProfile:
    """Sampled screen-angle -> intensity curve with its intensity scale i0.

    Angles are strictly increasing screen angles (finite, |theta| < pi/2)
    and every intensity lies in [0, i0], so none is NaN.
    """

    thetas: np.ndarray
    intensities: np.ndarray
    i0: float = 1.0

    def __post_init__(self) -> None:
        thetas = np.array(_theta_grid(self.thetas))
        intensities = np.array(self.intensities, dtype=float)
        if intensities.shape != thetas.shape:
            raise ValueError(
                f"intensity shape {intensities.shape} does not match theta shape {thetas.shape}"
            )
        i0 = _check_positive("i0", self.i0)
        # written so that a NaN intensity fails the comparison
        if not np.all((intensities >= 0) & (intensities <= i0)):
            raise ValueError("intensities must lie in [0, i0]")
        thetas.setflags(write=False)
        intensities.setflags(write=False)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "intensities", intensities)
        object.__setattr__(self, "i0", i0)

    @property
    def samples(self) -> list[tuple[float, float]]:
        """The profile as (theta, intensity) pairs."""
        return list(zip(self.thetas.tolist(), self.intensities.tolist()))

    def visibility(self) -> float:
        """Fringe visibility (I_max - I_min)/(I_max + I_min); 0 for a flat profile."""
        hi = float(self.intensities.max())
        lo = float(self.intensities.min())
        if hi + lo == 0.0:
            return 0.0
        return (hi - lo) / (hi + lo)


@dataclass(frozen=True)
class SternGerlachStage:
    """Idealized spin measurement applied to one tensor factor before the screen."""

    factor: int
    axis_angle: float = 0.0


@dataclass(frozen=True)
class DetectionResult:
    """Which-way detection outcome: the aperture label and the collapsed one-particle state."""

    aperture: int
    state: Spinor


def two_slit_state_at(
    geometry: SlitGeometry, point: ScreenPoint | np.ndarray, convention: str = "half"
) -> PairState:
    """Pair state induced at a screen point by a two-slit layout.

    The u/v rotation angle is ``pair_phase`` of slits 1 and 2 scaled by the
    convention (full phase for "paper", half for "half").  At theta = 0 the
    state is pure u.  ``point`` is a ScreenPoint or an angle array, as in
    ``slit_phases``; an array gives a PairState with fields of its shape.

    Raises
    ------
    GeometryError
        If the layout does not have exactly two slits.
    """
    if geometry.n_slits != 2:
        raise GeometryError(f"two-slit state needs exactly 2 slits, got {geometry.n_slits}")
    return PairState.from_rotation(_rotation_scale(convention) * pair_phase(geometry, point, 1, 2))


def transmission_probability(state: PairState, choice: str = "u") -> float:
    """Probability that the chosen transmitted state registers at the screen.

    ``"u"`` gives c_u^2, ``"v"`` gives c_v^2; the two always sum to 1.
    """
    _check_choice(choice)
    return state.c_u**2 if choice == "u" else state.c_v**2


def multi_slit_intensity(
    geometry: SlitGeometry | Sequence[SlitGeometry], point, convention: str = "half"
) -> float | np.ndarray:
    """Normalized screen intensity from the pairwise correlation rule.

    Every aperture pair (i, j) contributes cos(2*phi_ij) with phi_ij its
    convention-scaled rotation angle, combined as

        I = (N + 2 * sum_{i<j} cos(2*phi_ij)) / N^2.

    For N = 2 this equals cos^2(phi_12), the two-slit transmission
    probability; under the half convention the doubled angles are the raw
    optical phases, so I equals the classical grating intensity
    |sum_k exp(i*phase_k)|^2 / N^2.  One layout and a ScreenPoint give the
    one-point ``intensity_profile``; m layouts (any slit counts) with m
    angles give an (m,) array whose rows add pairs by ascending separation
    as the profile does, equal to it bit for bit if no separation repeats.
    """
    if isinstance(geometry, SlitGeometry):
        return float(intensity_profile(geometry, [point.theta], convention).intensities[0])
    doubled = 2.0 * _rotation_scale(convention)
    values = np.empty(len(geometry))
    for rows, layouts, thetas in _by_slit_count(geometry, point):  # one kernel pass per slit count
        n = layouts[0].n_slits
        i, j = np.triu_indices(n, 1)
        phases = pair_phase(layouts, thetas, i + 1, j + 1)
        # |phi_ij| = |k|*(a_j - a_i) grows with the separation, as the profile's baselines do
        values[rows] = _cosine_sum(np.sort(doubled * np.abs(phases), axis=-1), n)
    return np.clip(values, 0.0, 1.0)


def _cosine_sum(angles: np.ndarray, n: int, counts: np.ndarray | None = None) -> np.ndarray:
    """The pairwise rule (n + 2*sum(counts*cos(2*phi)))/n^2 per row of an n-slit layout's doubled angles 2*phi.

    ``angles`` is a (rows, pairs) array, overwritten if it is C-contiguous; no ``counts`` weighs each column 1.
    Each row is summed column by column in C order, whatever the input's order, as ``sum`` adds the rows of
    another order differently.
    """
    angles = np.ascontiguousarray(angles)
    np.cos(angles, out=angles)
    if counts is not None:
        angles *= counts
    return (n + 2.0 * angles.sum(axis=-1)) / n**2


def intensity_profile(
    geometry: SlitGeometry,
    thetas,
    convention: str = "half",
    choice: str = "u",
    detection: tuple[int, ...] = (),
    i0: float = 1.0,
    stage: SternGerlachStage | None = None,
) -> FringeProfile:
    """Fringe profile over an increasing grid of screen angles.

    Without detection, the profile is i0 times the pairwise-rule intensity,
    which for two slits is the transmission probability cos^2(phi_12) of the
    pair state (the "v" choice is its complement, preserving
    transmitted + absorbed = i0 at every angle).  Any non-empty ``detection``
    set breaks the pair correlation: the particles from the N slits become
    independent and the profile is flat at i0/N.  A Stern-Gerlach ``stage``
    measures its factor of each two-slit pair state along its axis, and the
    profile is i0 times the mixture's ``ensemble_transmission``; the grid is
    walked in ``_row_blocks``, which bound the stacked states.  A stage needs
    exactly two slits (``GeometryError`` otherwise) and no detection.

    Pairs with exactly equal separations share their phase, so the sum runs
    once per distinct baseline, weighted by its pair count.  The cosine
    takes the non-negative |phi| = |k|*d, so mirror rows r and S-1-r whose
    |k| are exactly equal share one evaluation.  Row blocks run on several
    threads, and no value depends on the block size or thread count.
    Values are clipped into [0, i0] to absorb last-bit rounding.
    """
    grid = _theta_grid(thetas)
    _check_choice(choice)
    scale = _rotation_scale(convention)
    i0 = _check_positive("i0", i0)
    n = geometry.n_slits
    detected = len(detection) and _slit_indices(detection, n, "detection").size  # () skips the reader

    if stage is not None:
        if detected:
            raise ValueError("cannot be combined with detection")
        values = np.empty(grid.shape)
        for rows in _row_blocks(grid.size):
            states = two_slit_state_at(geometry, grid[rows], convention).as_state()
            values[rows] = ensemble_transmission(measure_factor(states, stage.factor, stage.axis_angle), choice)
    elif detected:
        values = np.full(grid.shape, 1.0 / n)
    else:
        pos, k = _positions_and_wavenumber(geometry, grid)
        i, j = np.triu_indices(n, 1)
        baselines, counts = np.unique(pos[j] - pos[i], return_counts=True)
        # |k|*d is pair_phase's |phi| and the cosine is even; each row's |k| is scaled by 2*scale (1.0 or 2.0, so
        # exactly) once, and then replaced by its value in place
        values = np.multiply(np.abs(k, out=k), 2.0 * scale, out=k)
        counts = None if counts.size == i.size else counts  # no repeated baseline weighs every column 1
        own = values != values[::-1]  # a second-half row whose |k| is its mirror row's copies that row
        own[: (grid.size + 1) // 2] = True
        rows = max(1, _BLOCK_CELLS // baselines.size)  # cells, no row cap: a 2-slit grid is one block

        def evaluate(start: int) -> None:  # each block writes only its own rows
            block, kept = values[start : start + rows], own[start : start + rows]
            block[kept] = _cosine_sum(np.multiply.outer(block[kept], baselines), n, counts)

        _run_blocks(evaluate, range(0, grid.size, rows))
        values[~own] = values[::-1][~own]
        if choice == "v":
            np.subtract(1.0, values, out=values)
    values *= i0  # the array is this call's own, so it is scaled and clipped in place
    return FringeProfile(grid, np.clip(values, 0.0, i0, out=values), i0)


def detect_at_slit(state: TwoSpinState, i: int) -> DetectionResult:
    """Collapse of the transmitted pair state by a which-way detector at slit i.

    Defined only on the u state, which the detector reduces to the
    single-particle state (|+> + |->)/sqrt(2) attached to aperture i; the
    pair correlation is discarded.

    Raises
    ------
    UnsupportedCollapseError
        If ``state`` deviates from u by more than ``DETECT_STATE_TOL``.
    TypeError, IndexError
        If ``i`` is not a number that ``_slit_indices`` reads as 1 or 2.
    """
    i = _slit_indices(_exact_int(i), 2, "i")  # one detector: a number, not an array
    deviation = float(np.max(np.abs(state.vector() - basis_u().vector())))
    if deviation > DETECT_STATE_TOL:
        raise UnsupportedCollapseError(
            f"which-way collapse is defined only on the u state; input deviates by {deviation:.3e}"
        )
    return DetectionResult(aperture=i, state=Spinor(_SQRT_HALF, _SQRT_HALF))


def measure_factor(state: TwoSpinState | np.ndarray, factor: int, axis_angle: float | np.ndarray = 0.0):
    """Projective measurement of one tensor factor along a rotated axis.

    The measurement basis is R(axis_angle) applied to {|+>, |->} on the
    chosen factor (1 or 2).  Returns the ensemble of collapsed, renormalized
    pair states weighted by their outcome probabilities; zero-probability
    branches are dropped, so at most two entries come back and their weights
    sum to 1.  An ``(..., 4)`` amplitude stack gives ``(weights, states)`` of
    shapes ``(..., 2)`` and ``(..., 2, 4)`` instead, a dropped branch being
    weight 0 and a zero state; ``axis_angle`` may then be a broadcasting
    array.  With the amplitudes as a row-major 2x2 matrix M, the projector P
    = b b^T of a column b of R(axis_angle) gives the branch vec(P M) on
    factor 1 and vec(M P^T) on factor 2, summed from 0.0 over j = 0, 1 as
    (b[i] * b[j]) * M[j, l] or (b[l] * b[j]) * M[i, j] (see ``apply_pair``).

    Raises
    ------
    ValueError
        If ``factor`` is not 1 or 2, a TwoSpinState comes with a non-scalar
        ``axis_angle``, or the input state (any row of a stack) is not
        normalized: zero-norm, off by more than 1e-9, or NaN.
    """
    if isinstance(factor, (bool, np.bool_)) or factor not in (1, 2):  # True == 1, so a bool passes `in`
        raise ValueError(f"measured factor must be 1 or 2, got {factor}")
    single = _is_single(state, axis_angle)
    amps = state.vector() if single else np.asarray(state, dtype=complex)
    norm2 = np.sum(np.abs(amps) ** 2, axis=-1)
    if np.any(norm2 <= _WEIGHT_CUTOFF):
        raise ValueError("cannot measure a zero-norm state")
    normalized = np.abs(norm2 - 1.0) <= 1e-9  # False for NaN as well
    if not normalized.all():
        raise ValueError(f"state must be normalized before measurement, norm^2={norm2[~normalized][0]}")
    cols, grid = np.swapaxes(rotation_matrix(axis_angle), -1, -2), amps.reshape(amps.shape[:-1] + (2, 2))
    if factor == 1:  # cols[..., k, i] is b[i] for column k; branches[..., k, i, l] takes the terms
        terms = ((cols[..., :, :, None] * cols[..., :, j, None, None]) * grid[..., None, None, j, :] for j in (0, 1))
    else:
        terms = ((cols[..., :, None, :] * cols[..., :, j, None, None]) * grid[..., None, :, j, None] for j in (0, 1))
    branches = 0.0 + next(terms)
    branches += next(terms)
    branches = branches.reshape(branches.shape[:-2] + (4,))
    raw = np.sum(np.abs(branches) ** 2, axis=-1)
    weights = raw / norm2[..., None]  # so the weights sum to 1 for an input norm^2 off by up to 1e-9
    kept = weights > _WEIGHT_CUTOFF
    weights *= kept  # exact: past the norm check raw is finite, so a dropped branch weighs 0 and divides by 1
    states = branches / np.sqrt(raw * kept + ~kept)[..., None] * kept[..., None]
    if not single:
        return weights, states
    entries = ((float(w), TwoSpinState.from_vector(s)) for w, s in zip(weights, states) if w > 0.0)
    return Ensemble(tuple(entries))


def ensemble_transmission(ensemble: Ensemble | tuple, choice: str = "u"):
    """Average probability that a mixture registers as the transmitted state.

    Computes sum_k w_k * |<t|s_k>|^2 with t = u or v per ``choice``.  An
    Ensemble gives a float; the ``(weights, states)`` pair of a stacked
    ``measure_factor`` call gives a ``(...)`` array.

    Raises
    ------
    ValueError
        If any ensemble entry is not a two-spin state.
    """
    _check_choice(choice)
    target = (basis_u() if choice == "u" else basis_v()).vector()
    single = isinstance(ensemble, Ensemble)
    if single:
        for k, (_, entry) in enumerate(ensemble.entries):
            if not isinstance(entry, TwoSpinState):
                raise ValueError(
                    f"entry {k} is {type(entry).__name__}; transmission needs two-spin states only"
                )
        ensemble = zip(*((w, entry.vector()) for w, entry in ensemble.entries))
    weights, states = (np.asarray(part) for part in ensemble)
    a, b = np.flatnonzero(target)  # u = (1, 0, 0, 1)/sqrt(2) and v = (0, 1, -1, 0)/sqrt(2): a zero term adds +-0
    total = np.sum(weights * np.abs(states[..., a] * target[a].conj() + states[..., b] * target[b].conj()) ** 2, -1)
    return float(total) if single else total
