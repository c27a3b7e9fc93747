"""Planar pair rotations and their action on the u/v plane.

The single-factor operator is the real planar rotation

    R(a) = [[cos a,  sin a],
            [-sin a, cos a]],

and a pair rotation applies R(alpha) to factor 1 and R(beta) to factor 2.
On the plane spanned by u and v the pair action depends only on the
difference d = beta - alpha:

    u -> cos(d) u - sin(d) v
    v -> sin(d) u + cos(d) v

so pair rotations compose additively there, which is what lets a pair state
for one aperture pair be transported into the state for any other pair.

Every function also takes stacks of samples: array angles give one result
per entry, and an ``(..., 4)`` amplitude array may stand in for a
TwoSpinState, broadcasting against the angles and giving an array back.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import qstate

#: Largest out-of-plane residual accepted by operations restricted to span{u, v}.
UV_SPAN_TOL = 1e-10


class NotInUVSpanError(ValueError):
    """Raised when a state required to lie in span{u, v} does not."""


class PairRotation(NamedTuple):
    """Rotation angles (radians) applied to tensor factors 1 and 2.

    Angles are kept as raw radians and never reduced mod 2*pi, so that
    composition stays exact addition on reals.
    """

    alpha: float
    beta: float


def rotation_matrix(angle: float | np.ndarray) -> np.ndarray:
    """The 2x2 planar rotation [[cos a, sin a], [-sin a, cos a]].

    Orthogonal with determinant 1; array angles give shape
    ``angle.shape + (2, 2)``.  Raises ValueError if any angle is non-finite.
    """
    a = np.asarray(angle, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError(f"rotation angle must be finite, got {angle!r}")
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, s], [-s, c]]).transpose(*range(2, a.ndim + 2), 0, 1)


def _is_single(state, *angles) -> bool:
    """Whether ``state`` is a TwoSpinState, which takes scalar angles only (ValueError otherwise)."""
    single = isinstance(state, qstate.TwoSpinState)
    if single and any(map(np.ndim, angles)):
        raise ValueError(f"a TwoSpinState takes scalar angles, got angles of shape {np.broadcast(*angles).shape};"
                         " pass state.vector() to act on a stack")
    return single


def apply_pair(pair: PairRotation | tuple, state: qstate.TwoSpinState | np.ndarray):
    """Act with R(alpha) on factor 1 and R(beta) on factor 2.

    Defined on the whole 4-dimensional space as the literal tensor operator
    R(alpha) (x) R(beta); it preserves norms everywhere, not only on
    span{u, v}.  Reading the amplitudes as a row-major 2x2 matrix M,
    (A (x) B) vec(M) = vec(A M B^T), so no 4x4 operator is built.  A
    TwoSpinState takes scalar angles only (ValueError otherwise).  Entry
    (i, k) adds (A[i, j] * B[k, l]) * M[j, l] to 0.0 for (j, l) = 00, 01, 10,
    11 in turn: numpy's three-operand contraction order on complex operands,
    pinned because rounding, and so every output byte, depends on the order.
    """
    alpha, beta = pair
    single = _is_single(state, alpha, beta)
    amps = state.vector() if single else np.asarray(state)
    a, b, grid = rotation_matrix(alpha), rotation_matrix(beta), amps.reshape(amps.shape[:-1] + (2, 2))
    terms = ((a[..., :, j, None] * b[..., None, :, l]) * grid[..., j, l, None, None] for j in (0, 1) for l in (0, 1))
    moved = 0.0 + next(terms)
    for term in terms:
        moved += term
    moved = moved.reshape(moved.shape[:-2] + (4,))
    return qstate.TwoSpinState.from_vector(moved) if single else moved


def pair_on_u(alpha: float | np.ndarray, beta: float | np.ndarray) -> tuple:
    """(c_u, c_v) coordinates of ``apply_pair((alpha, beta), u)``.

    Equals (cos(beta - alpha), -sin(beta - alpha)).
    """
    d = np.subtract(beta, alpha, dtype=float)
    return (np.cos(d), -np.sin(d))


def pair_on_v(alpha: float | np.ndarray, beta: float | np.ndarray) -> tuple:
    """(c_u, c_v) coordinates of ``apply_pair((alpha, beta), v)``.

    Equals (sin(beta - alpha), cos(beta - alpha)).
    """
    d = np.subtract(beta, alpha, dtype=float)
    return (np.sin(d), np.cos(d))


def compose_pair_state(psi: qstate.TwoSpinState | np.ndarray, beta, gamma):
    """Transport a u/v-plane pair state by the rotation pair (beta, gamma).

    For psi = cos(p) u - sin(p) v the result is
    cos(p + gamma - beta) u - sin(p + gamma - beta) v: the mixing angles of
    chained aperture pairs add.

    Raises
    ------
    NotInUVSpanError
        If ``psi``, or any row of a stack, has an out-of-plane residual
        above ``UV_SPAN_TOL`` or a NaN one.
    """
    residual = np.max(qstate.decompose_uv(psi)[2])
    if not residual <= UV_SPAN_TOL:  # written so that a NaN residual fails
        raise NotInUVSpanError(
            f"state lies outside span{{u, v}}: residual norm {residual:.3e} > {UV_SPAN_TOL:.0e}"
        )
    return apply_pair((beta, gamma), psi)
