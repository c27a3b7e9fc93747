"""Exact algebra for one- and two-spin states in a fixed product basis.

Single-particle states live over {|+>, |->}.  Pair states live over the
ordered product basis (|++>, |+->, |-+>, |-->), fixed once here so that
amplitude tuples serialize deterministically.  Two distinguished pair states
span the plane in which every screen-point state of the interference model
lives:

* ``basis_u`` -- the symmetric correlated state (|++> + |-->)/sqrt(2),
* ``basis_v`` -- the singlet (|+-> - |-+>)/sqrt(2).

Both are invariant under equal planar rotations of the two factors, which is
what makes them the natural coordinates for pair states induced by a slit
screen.  All types are immutable values; all operations are pure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

#: Tolerance on |norm^2 - 1| for states the library treats as normalized.
NORM_TOL = 1e-12

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class Spinor:
    """Single-particle spin state ``c_plus|+> + c_minus|->``."""

    c_plus: complex
    c_minus: complex

    def vector(self) -> np.ndarray:
        """Amplitudes as a length-2 complex array in the (|+>, |->) order."""
        return np.array([self.c_plus, self.c_minus], dtype=complex)

    def norm2(self) -> float:
        return abs(self.c_plus) ** 2 + abs(self.c_minus) ** 2

    def is_normalized(self) -> bool:
        return abs(self.norm2() - 1.0) <= NORM_TOL


@dataclass(frozen=True)
class TwoSpinState:
    """Entangled pair state over the ordered basis (|++>, |+->, |-+>, |-->); amplitudes are finite."""

    amplitudes: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        amps = tuple(complex(a) for a in self.amplitudes)
        if len(amps) != 4:
            raise ValueError(f"a two-spin state needs 4 amplitudes, got {len(amps)}")
        if not all(cmath.isfinite(a) for a in amps):
            raise ValueError(f"a two-spin state needs finite amplitudes, got {amps}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_vector(cls, vec) -> "TwoSpinState":
        """Build from any length-4 sequence or array of amplitudes."""
        arr = np.asarray(vec, dtype=complex).reshape(-1)
        if arr.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {np.asarray(vec).shape}")
        return cls(tuple(arr))

    def vector(self) -> np.ndarray:
        """Amplitudes as a length-4 complex array."""
        return np.array(self.amplitudes, dtype=complex)

    def norm2(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes))

    def is_normalized(self) -> bool:
        return abs(self.norm2() - 1.0) <= NORM_TOL


@dataclass(frozen=True)
class Ensemble:
    """Statistical mixture: entries of (weight, state) with weights summing to 1.

    Entries may hold either ``TwoSpinState`` or ``Spinor`` values, but not a
    mix that a consumer cannot interpret; consumers validate the kinds they
    need.  Construction checks that weights are probabilities summing to one
    within ``NORM_TOL`` and that every entry state is normalized.
    """

    entries: tuple[tuple[float, TwoSpinState | Spinor], ...]

    def __post_init__(self) -> None:
        entries = tuple((float(w), s) for w, s in self.entries)
        if not entries:
            raise ValueError("an ensemble needs at least one entry")
        total = 0.0
        for k, (w, s) in enumerate(entries):
            if not (-NORM_TOL <= w <= 1.0 + NORM_TOL):
                raise ValueError(f"entry {k}: weight {w} is not a probability")
            if not s.is_normalized():
                raise ValueError(f"entry {k}: state is not normalized (norm^2={s.norm2()})")
            total += w
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"weights sum to {total}, expected 1")
        object.__setattr__(self, "entries", entries)


def _amplitudes(state, *angles, count: int = 4, dtype=None) -> tuple[np.ndarray, bool]:
    """``(amplitudes, single)`` of a state argument: a TwoSpinState (a Spinor if ``count`` is 2) is a single state,
    gives its vector and takes scalar ``angles`` only; anything else is a stack read by ``np.asarray`` with ``dtype``,
    whose last axis must hold ``count`` amplitudes.  Either rule broken raises ValueError."""
    single = isinstance(state, TwoSpinState if count == 4 else Spinor)
    if single and any(map(np.ndim, angles)):
        raise ValueError(f"a {type(state).__name__} takes scalar angles, got angles of shape"
                         f" {np.broadcast(*angles).shape}; pass state.vector() to act on a stack")
    amps = state.vector() if single else np.asarray(state, dtype)
    if amps.shape[-1:] != (count,):
        raise ValueError(f"expected amplitudes of shape (..., {count}), got shape {amps.shape}")
    return amps, single


def tensor(a: Spinor | np.ndarray, b: Spinor | np.ndarray) -> TwoSpinState | np.ndarray:
    """Product state ``a (x) b`` in the fixed basis order.

    The output amplitudes are the outer product (a+b+, a+b-, a-b+, a-b-),
    so norms multiply: norm(out) = norm(a) * norm(b).  ``(..., 2)`` arrays
    in place of spinors give a ``(..., 4)`` array of their broadcast shape.

    Raises
    ------
    ValueError
        If any input amplitude is non-finite, or a stack's last axis is not 2.
    """
    (x, single_a), (y, single_b) = (_amplitudes(s, count=2, dtype=complex) for s in (a, b))
    for name, s in zip("ab", (x, y)):
        if not np.isfinite(s).all():
            raise ValueError(f"spinor {name} has a non-finite amplitude")
    product = x[..., :, None] * y[..., None, :]
    product = product.reshape(product.shape[:-2] + (4,))
    return TwoSpinState(tuple(product)) if single_a and single_b else product


def inner(s: TwoSpinState, t: TwoSpinState) -> complex:
    """Hermitian inner product <s|t>, conjugate-linear in the first slot."""
    return complex(np.vdot(s.vector(), t.vector()))


def basis_u() -> TwoSpinState:
    """The correlated pair state u = (|++> + |-->)/sqrt(2)."""
    return TwoSpinState((_SQRT_HALF, 0.0, 0.0, _SQRT_HALF))


def basis_v() -> TwoSpinState:
    """The singlet pair state v = (|+-> - |-+>)/sqrt(2)."""
    return TwoSpinState((0.0, _SQRT_HALF, -_SQRT_HALF, 0.0))


def decompose_uv(s: TwoSpinState | np.ndarray) -> tuple:
    """Coordinates of ``s`` in span{u, v} plus the out-of-plane remainder.

    Returns ``(c_u, c_v, residual_norm)`` with ``c_u = <u|s>``,
    ``c_v = <v|s>`` and ``residual_norm = ||s - c_u*u - c_v*v||``; an
    ``(..., 4)`` amplitude stack in place of ``s`` gives ``(...)`` arrays
    (ValueError naming its shape if the last axis is not 4).
    """
    plane = np.array([basis_u().vector(), basis_v().vector()])
    w, _ = _amplitudes(s)
    coords = w @ plane.conj().T
    c_u, c_v = np.moveaxis(coords, -1, 0)
    return c_u, c_v, np.linalg.norm(w - coords @ plane, axis=-1)
