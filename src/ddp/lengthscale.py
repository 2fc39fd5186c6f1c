"""Dimensionless length-scale roots of the symmetrized conservation balance.

Each observation point has 2**D root vectors, one per sign pattern over
the D dimensions: index i has sigma_d = +1 where bit d of i is 0.  The
balance is quadratic, so roots come in +/- pairs: the anti-branch
i ^ (2**D - 1) of branch i holds exactly its negation.  LengthScaleRoots
therefore stores only the 2**(D-1) branches with sigma_0 = +1, in index
order, and `expand()` rebuilds the signed (N, 2**D, D) array.  This module
alone knows that layout (`branch_layout`); curvature, thresholds and RC
medians read only |x| and work on the stored half.

The guaranteed base is the diagonal closed form

    |x_d| = sqrt(|R_d / dH_d|)

which solves the decoupled balance x**2 * dH = R per dimension; a ratio
below zero keeps its magnitude and carries a flag, and |dH| below the
sentinel threshold means no rank movement at all, which maps to an
unbounded length scale (the +inf sentinel).

Cross-dimension coupling is restored through the symmetrized balance.
For dimension d it asks for the fixed point of

    x_d  =  c_d / g_d,    c_d = 4 * R_d / dh_sum,    dh_sum = (4 / D) * sum_k dH_k

where g_d is the geometric mean of the other finite dimensions' |x| (the
dimension's own |x| when it has no finite partner).  Its fixed point has
sign(x_d) = sign(c_d), and y = log|x| over the f finite dimensions solves

    M y = log|c|,    M = I + (11^T - I) / (f - 1)    (M = 2 I when f = 1)

that is, with L = sum_k log|c_k|,

    log|x_d| = ((f - 1) * log|c_d| - L / 2) / (f - 2).

With f >= 3 the fixed point x* is unique; with f = 1 the formula gives
x* = sign(c) * sqrt(|c|), the root of z|z| = c; with f = 2 the system is
singular (a line of fixed points or none) and the division by f - 2 = 0
leaves no finite x*.  Every stored branch of a point holds x* and every
anti-branch -x*.  A point whose x* leaves [1e-150, 1e150] in magnitude,
or is not finite, falls back to the signed diagonal closed form and is
labeled as such; so every point with f = 2 falls back.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

# |dH| below this has no measurable rank movement: unbounded length scale.
SENTINEL_THRESHOLD = 1e-12

_MAG_HIGH = 1e150
_MAG_LOW = 1e-150


class Convergence(enum.IntEnum):
    CLOSED_FORM = 0  # coupling not applicable; diagonal root used directly
    REFINED = 1      # coupled root x* found
    FALLBACK = 2     # x* singular (f = 2), out of range or not finite; diagonal root restored


def branch_layout(d: int):
    """The stored half of the 2**D sign branches and where each branch lives in it.

    Returns sigma (2**(D-1), D), the sign patterns of the stored branches
    (sigma_0 = +1, in index order), and for each of the 2**D indices the
    stored branch it reads, (2**D,), and the sign to apply to it, (2**D,):
    +1 for a stored branch, -1 for the anti-branch i ^ (2**D - 1).
    """
    idx = np.arange(2 ** d)
    flip = idx & 1
    sigma = 1.0 - 2.0 * ((idx[::2, None] >> np.arange(d)[None, :]) & 1)
    return sigma, (idx ^ flip * (2 ** d - 1)) >> 1, 1.0 - 2.0 * flip


@dataclass
class LengthScaleRoots:
    """Root vectors for a whole frame pair, point-major: the stored half, all 2**D labels."""

    roots: np.ndarray          # (N, 2**(D-1), D), +inf on sentinel dimensions
    sentinel: np.ndarray       # (N, D) bool
    negative_ratio: np.ndarray # (N, D) bool
    convergence: np.ndarray    # (N, 2**D) uint8

    @property
    def n_points(self) -> int:
        return self.roots.shape[0]

    def expand(self) -> np.ndarray:
        """All 2**D signed root vectors, (N, 2**D, D), +inf on sentinel dimensions."""
        _, branch, sign = branch_layout(self.sentinel.shape[1])
        signed = self.roots.take(branch, axis=1) * sign[None, :, None]
        return np.where(self.sentinel[:, None, :], np.inf, signed)


def _coupled_root(c_signed, finite):
    """Closed-form fixed point x* of the coupled balance.

    c_signed, finite: (P, D), at least one finite dimension per row.
    Returns x* (P, D), with arbitrary values on sentinel dimensions, and a
    (P,) mask of points whose x* is finite and within [1e-150, 1e150] in
    magnitude on every finite dimension; rows with f = 2 are never in it.
    """
    f = finite.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        log_c = np.where(finite, np.log(np.abs(c_signed)), 0.0)
        total = log_c.sum(axis=1, keepdims=True)
        x = np.sign(c_signed) * np.exp(((f - 1) * log_c - 0.5 * total) / (f - 2))
    mag = np.abs(x)
    bad = (~np.isfinite(x) | (mag > _MAG_HIGH) | (mag < _MAG_LOW)) & finite
    return x, ~bad.any(axis=1)


def solve_roots(r_matrix, dh_matrix) -> LengthScaleRoots:
    """Enumerate and couple the root vectors of every point in a frame.

    r_matrix, dh_matrix: (D, N) rank and Borda-change matrices.
    """
    r_pts = np.asarray(r_matrix, dtype=float).T   # (N, D)
    dh_pts = np.asarray(dh_matrix, dtype=float).T
    if r_pts.shape != dh_pts.shape:
        raise ContractViolation("rank and Borda-change matrices must share a shape")
    d = r_pts.shape[1]

    sentinel = np.abs(dh_pts) < SENTINEL_THRESHOLD
    safe_dh = np.where(sentinel, 1.0, dh_pts)
    ratio = r_pts / safe_dh
    magnitude = np.where(sentinel, np.inf, np.sqrt(np.abs(ratio)))
    negative = ~sentinel & (ratio < 0.0)
    finite = ~sentinel

    sigma, _, _ = branch_layout(d)
    roots = sigma[None, :, :] * magnitude[:, None, :]            # (N, 2**(D-1), D)
    labels = np.full(r_pts.shape[0], int(Convergence.CLOSED_FORM), dtype=np.uint8)

    dh_sum = (4.0 / d) * dh_pts.sum(axis=1)
    pts = np.nonzero((np.abs(dh_sum) >= SENTINEL_THRESHOLD) & finite.any(axis=1))[0]
    x, ok = _coupled_root(4.0 * r_pts[pts] / dh_sum[pts][:, None], finite[pts])
    roots[pts[ok]] = x[ok][:, None, :]
    labels[pts] = np.where(ok, Convergence.REFINED, Convergence.FALLBACK)

    # sentinel dimensions carry a sign-free +inf in every vector
    roots = np.where(sentinel[:, None, :], np.inf, roots)
    return LengthScaleRoots(
        roots=roots,
        sentinel=sentinel,
        negative_ratio=negative,
        convergence=np.repeat(labels[:, None], 2 ** d, axis=1),
    )
