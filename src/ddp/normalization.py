"""Pairwise margin normalization and datum fitting.

For two observation values uA, uB of one dimension the normalized margin is

    a = (uA - uB) / (uA + uB + 2*m)

The per-pair constant m is fixed by requiring the margin's gradient with
respect to uA to equal the raw observable's (unit) gradient, which reduces
to the quadratic

    s**2 - s + (uA - uB) = 0,    s = uA + uB + 2*m.

A root is admissible when |s| exceeds the denominator guard; among
admissible roots the one with the smaller |m| wins, ties going to the
positive candidate.  Pairs with a negative discriminant have no real root
and pairs with no admissible root are degenerate; both are excluded from
the datum fit.  The shared datum per dimension is the least-squares
constant over all admissible pair values, i.e. their arithmetic mean, and
the RMS spread of the pair constants around it measures how far the
single shared datum is from the exact per-pair solution.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_EPSILON = 1e-9


class PairStatus(enum.Enum):
    OK = "ok"
    NO_REAL_ROOT = "no_real_root"
    DEGENERATE = "degenerate"


@dataclass
class NormalizedField:
    """Borda counts plus the fitted datum of one frame, one entry per dimension.

    borda                 (D, N) row sums of the antisymmetric margin matrices
    datum                 (D,) fitted shared constant, NaN where unfittable
    datum_residual        (D,) RMS deviation of pair constants from the datum
    fit_excluded_fraction (D,) share of pairs A < B dropped from the datum fit
    margin_zeroed         (D, N, N) symmetric mask of pairs zeroed because the
                          shared-datum denominator fell inside the guard band
    unfittable            (D,) dimensions with no admissible pair at all
    """

    borda: np.ndarray
    datum: np.ndarray
    datum_residual: np.ndarray
    fit_excluded_fraction: np.ndarray
    margin_zeroed: np.ndarray
    unfittable: np.ndarray

    @property
    def n_dims(self) -> int:
        return self.borda.shape[0]

    @property
    def n_points(self) -> int:
        return self.borda.shape[1]

    @property
    def margin_zeroed_fraction(self) -> np.ndarray:
        """(D,) share of pairs A < B whose margin was zeroed."""
        n = self.n_points
        zeroed_pairs = np.count_nonzero(self.margin_zeroed, axis=(1, 2)) // 2
        return zeroed_pairs / max(n * (n - 1) // 2, 1)


def pair_constant(
    u_a: float, u_b: float, epsilon: float = DEFAULT_EPSILON
) -> tuple[float | None, PairStatus]:
    """Solve the gradient-match quadratic for one ordered pair.

    Returns (m, OK) for an admissible root, (None, NO_REAL_ROOT) when the
    discriminant is negative, and (None, DEGENERATE) when both roots sit
    inside the denominator guard band.
    """
    diff = u_a - u_b
    disc = 1.0 - 4.0 * diff
    if disc < 0.0:
        return None, PairStatus.NO_REAL_ROOT
    sq = math.sqrt(disc)
    total = u_a + u_b
    best: float | None = None
    for s in (0.5 * (1.0 + sq), 0.5 * (1.0 - sq)):
        if abs(s) <= epsilon:
            continue
        m = 0.5 * (s - total)
        if best is None:
            best = m
        elif abs(m) < abs(best) or (abs(m) == abs(best) and m > best):
            best = m
    if best is None:
        return None, PairStatus.DEGENERATE
    return best, PairStatus.OK


def pair_constants(u_a, u_b, epsilon: float = DEFAULT_EPSILON):
    """Vectorized pair_constant over broadcast arrays of ordered pairs.

    Returns (m, admissible) of the broadcast shape, where m is NaN for
    excluded pairs.  Agrees elementwise with pair_constant.
    """
    u_a = np.asarray(u_a, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    su = u_a + u_b
    disc = 1.0 - 4.0 * (u_a - u_b)
    real = disc >= 0.0
    sq = np.sqrt(np.where(real, disc, 0.0))
    s1 = 0.5 * (1.0 + sq)
    s2 = 0.5 * (1.0 - sq)
    m1 = 0.5 * (s1 - su)
    m2 = 0.5 * (s2 - su)
    adm1 = real & (np.abs(s1) > epsilon)
    adm2 = real & (np.abs(s2) > epsilon)
    take2 = adm2 & (
        ~adm1
        | (np.abs(m2) < np.abs(m1))
        | ((np.abs(m2) == np.abs(m1)) & (m2 > m1))
    )
    m = np.where(take2, m2, m1)
    admissible = adm1 | adm2
    return np.where(admissible, m, np.nan), admissible


def pair_margins(u: np.ndarray, m_bar: float, epsilon: float = DEFAULT_EPSILON):
    """(N, N) antisymmetric margin matrix of one dimension and its zeroed mask.

    Pairs whose shared-datum denominator magnitude falls at or below the
    guard get margin 0 and are marked in the mask (diagonal excluded).
    """
    u = np.asarray(u, dtype=float)
    du = u[:, None] - u[None, :]
    den = u[:, None] + u[None, :] + 2.0 * m_bar
    zeroed = np.abs(den) <= epsilon
    margins = np.where(zeroed, 0.0, du / np.where(zeroed, 1.0, den))
    np.fill_diagonal(zeroed, False)  # the zero diagonal is structural, not degenerate
    return margins, zeroed


def build_field(values: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> NormalizedField:
    """Fit the datum and sum the margins of every dimension of an (N, D) frame.

    Dimensions where no pair is admissible are marked unfittable, with a
    NaN datum and zero Borda counts; downstream stages skip them.
    """
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    a, b = np.triu_indices(n, k=1)
    n_pairs = max(a.size, 1)
    borda = np.zeros((d, n))
    datum = np.full(d, np.nan)
    residual = np.zeros(d)
    fit_excluded = np.zeros(d)
    zeroed = np.zeros((d, n, n), dtype=bool)
    for dim in range(d):
        u = values[:, dim]
        m, ok = pair_constants(u[a], u[b], epsilon)
        fit_excluded[dim] = np.count_nonzero(~ok) / n_pairs
        good = m[ok]
        if good.size:
            datum[dim] = np.mean(good)
            residual[dim] = np.sqrt(np.mean((good - datum[dim]) ** 2))
        if not np.isfinite(datum[dim]):
            continue
        margins, zeroed[dim] = pair_margins(u, float(datum[dim]), epsilon)
        borda[dim] = margins.sum(axis=1)
    return NormalizedField(
        borda=borda,
        datum=datum,
        datum_residual=residual,
        fit_excluded_fraction=fit_excluded,
        margin_zeroed=zeroed,
        unfittable=~np.isfinite(datum),
    )
