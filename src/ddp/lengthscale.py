"""Dimensionless length-scale roots of the symmetrized conservation balance.

Each observation point has 2**D root vectors, one per sign pattern over
the D dimensions: index i has sigma_d = +1 where bit d of i is 0.  Every
vector of a point has the same |x|, so LengthScaleRoots keeps one signed
vector x per point and a label that says how its 2**D vectors follow
from it: vector i of a refined point is x* where sigma_0 = +1 and -x*
where sigma_0 = -1 (the balance is quadratic, so the anti-branch
i ^ (2**D - 1) is the negation of branch i), and vector i of a
closed-form or fallback point is sigma * |x|.  `expand()` rebuilds the
signed (N, 2**D, D) array; curvature, thresholds and RC read only |x|.

The guaranteed base is the diagonal closed form

    |x_d| = sqrt(|R_d / dH_d|)

which solves the decoupled balance x**2 * dH = R per dimension (a ratio
below zero keeps its magnitude); |dH| below the sentinel threshold means
no rank movement at all, which maps to an unbounded length scale (the
+inf sentinel).

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
leaves no finite x*.  A point whose x* leaves [1e-150, 1e150] in magnitude,
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


def branch_layout(d: int) -> np.ndarray:
    """The sign table of the 2**D branches, (2**D, D): sigma_d = +1 where bit d of i is 0."""
    return 1.0 - 2.0 * ((np.arange(2 ** d)[:, None] >> np.arange(d)[None, :]) & 1)


@dataclass
class LengthScaleRoots:
    """Root vectors for a whole frame pair, point-major: one vector and one label per point."""

    x: np.ndarray              # (N, D): x* where refined, else |x|; +inf on sentinel dimensions
    sentinel: np.ndarray       # (N, D) bool
    label: np.ndarray          # (N,) uint8 Convergence

    @property
    def n_points(self) -> int:
        return self.x.shape[0]

    @property
    def convergence(self) -> np.ndarray:
        """The label of every branch, (N, 2**D), a read-only view of `label`."""
        return np.broadcast_to(self.label[:, None], (self.n_points, 2 ** self.x.shape[1]))

    def expand(self) -> np.ndarray:
        """All 2**D signed root vectors, (N, 2**D, D), +inf on sentinel dimensions."""
        sigma = branch_layout(self.x.shape[1])
        refined = (self.label == Convergence.REFINED)[:, None, None]
        signed = np.where(refined, sigma[:, :1], sigma) * self.x[:, None, :]
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
    roots = np.where(sentinel, np.inf, np.sqrt(np.abs(ratio)))   # |x|, then x* where refined
    finite = ~sentinel
    labels = np.full(r_pts.shape[0], int(Convergence.CLOSED_FORM), dtype=np.uint8)

    dh_sum = (4.0 / d) * dh_pts.sum(axis=1)
    pts = np.nonzero((np.abs(dh_sum) >= SENTINEL_THRESHOLD) & finite.any(axis=1))[0]
    x, ok = _coupled_root(4.0 * r_pts[pts] / dh_sum[pts][:, None], finite[pts])
    roots[pts[ok]] = x[ok]
    labels[pts] = np.where(ok, Convergence.REFINED, Convergence.FALLBACK)

    # sentinel dimensions carry a sign-free +inf in every vector
    return LengthScaleRoots(
        x=np.where(sentinel, np.inf, roots),
        sentinel=sentinel,
        label=labels,
    )
