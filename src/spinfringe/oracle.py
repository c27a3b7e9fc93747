"""Classical-wave reference intensities, written against raw per-slit phases.

A phase set is a 1-D array of per-slit phases (radians) at one screen point;
a phase table stacks S sets as an (S, N) array.  Every function reduces
over the last axis: a float for one set, an (S,) array for a table.
Working on raw phases rather than geometry keeps this module independent
of the model code it validates.  Intensities are normalized by N^2 so that
the fully constructive value is 1 for every slit count.
"""

from __future__ import annotations

import numpy as np


def _phase_array(phases) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(phases, dtype=float))
    if arr.shape[-1] == 0:
        raise ValueError("phase set must be non-empty")
    return arr


def _per_set(values: np.ndarray):
    """A float for one phase set, an (S,) array for a table."""
    return float(values) if values.ndim == 0 else values


def classical_intensity(phases):
    """Coherent intensity |sum_k exp(i*phi_k)|^2 / N^2 of unit phasors.

    The squared modulus is summed as (sum cos)^2 + (sum sin)^2, which needs
    no complex (S, N) temporary for a table.
    """
    arr = _phase_array(phases)
    total = np.cos(arr).sum(axis=-1) ** 2 + np.sin(arr).sum(axis=-1) ** 2
    return _per_set(total / arr.shape[-1] ** 2)


def independent_intensity(phases):
    """Incoherent intensity sum_k |exp(i*phi_k)|^2 / N^2 = 1/N, phase-independent."""
    arr = _phase_array(phases)
    return _per_set(np.full(arr.shape[:-1], 1.0 / arr.shape[-1]))


def pairwise_identity_check(phases):
    """Compare the pairwise-cosine sum against the coherent square.

    Returns (lhs, rhs, diff) with lhs = N + 2*sum_{i<j} cos(phi_i - phi_j),
    rhs = |sum_k exp(i*phi_k)|^2, and diff = |lhs - rhs|.  The two are equal
    up to rounding, which is what licenses building N-slit intensities from
    pair correlations alone.
    """
    arr = _phase_array(phases)
    first, second = np.triu_indices(arr.shape[-1], 1)
    lhs = arr.shape[-1] + 2.0 * np.cos(arr[..., first] - arr[..., second]).sum(axis=-1)
    rhs = np.abs(np.exp(1j * arr).sum(axis=-1)) ** 2
    return _per_set(lhs), _per_set(rhs), _per_set(np.abs(lhs - rhs))
