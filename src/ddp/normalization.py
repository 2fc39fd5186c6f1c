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
from typing import NamedTuple

import numpy as np

from .errors import DatumUnfittable
from .ingest import DataBurst

DEFAULT_EPSILON = 1e-9


class PairStatus(enum.Enum):
    OK = "ok"
    NO_REAL_ROOT = "no_real_root"
    DEGENERATE = "degenerate"


class DatumFit(NamedTuple):
    m_bar: float
    excluded: frozenset[tuple[int, int]]
    residual: float


@dataclass
class NormalizedField:
    """Normalized margin matrices plus the fitted datum, one entry per dimension.

    margins        (D, N, N) antisymmetric margin matrices
    datum          (D,) fitted shared constant, NaN where unfittable
    datum_residual (D,) RMS deviation of pair constants from the datum
    fit_excluded   (D, N, N) pairs dropped from the datum fit (upper triangle)
    margin_zeroed  (D, N, N) pairs zeroed because the shared-datum denominator
                   fell inside the guard band
    unfittable     (D,) dimensions with no admissible pair at all
    """

    margins: np.ndarray
    datum: np.ndarray
    datum_residual: np.ndarray
    fit_excluded: np.ndarray
    margin_zeroed: np.ndarray
    unfittable: np.ndarray

    @property
    def n_dims(self) -> int:
        return self.margins.shape[0]

    @property
    def n_points(self) -> int:
        return self.margins.shape[1]

    def excluded_pairs(self, dimension: int) -> frozenset[tuple[int, int]]:
        """Pairs (A < B) excluded anywhere: from the fit or by a zeroed margin."""
        mask = self.fit_excluded[dimension] | self.margin_zeroed[dimension]
        a_idx, b_idx = np.nonzero(np.triu(mask, k=1))
        return frozenset(zip(a_idx.tolist(), b_idx.tolist()))


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


def pair_constant_grid(u: np.ndarray, epsilon: float = DEFAULT_EPSILON):
    """Vectorized pair constants for every (A, B) combination.

    Returns (m, admissible, real): (N, N) arrays where m is NaN for
    excluded pairs.  Agrees elementwise with pair_constant.
    """
    u = np.asarray(u, dtype=float)
    du = u[:, None] - u[None, :]
    su = u[:, None] + u[None, :]
    disc = 1.0 - 4.0 * du
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
    return np.where(admissible, m, np.nan), admissible, real


def _values_vector(burst_or_values, dimension: int | None) -> np.ndarray:
    if isinstance(burst_or_values, DataBurst):
        if dimension is None:
            raise ValueError("dimension index required with a DataBurst")
        return burst_or_values.values[:, dimension]
    v = np.asarray(burst_or_values, dtype=float)
    if v.ndim == 2:
        if dimension is None:
            raise ValueError("dimension index required with a 2-d array")
        return v[:, dimension]
    return v


def _fit_dimension(u: np.ndarray, epsilon: float, iu):
    """Datum, RMS residual and upper-triangle admissibility of one dimension.

    iu are the upper-triangle indices (A < B) of the frame.  The datum is
    NaN, with residual 0, when no pair is admissible.
    """
    m, admissible, _ = pair_constant_grid(u, epsilon)
    ok = admissible[iu]
    good = m[iu][ok]
    if good.size == 0:
        return math.nan, 0.0, ok
    m_bar = np.mean(good)
    return m_bar, np.sqrt(np.mean((good - m_bar) ** 2)), ok


def fit_datum(
    burst_or_values,
    dimension: int | None = None,
    epsilon: float = DEFAULT_EPSILON,
) -> DatumFit:
    """Least-squares datum for one dimension: the mean admissible pair constant.

    Raises DatumUnfittable when every pair A < B is excluded.
    """
    u = _values_vector(burst_or_values, dimension)
    iu = np.triu_indices(len(u), k=1)
    m_bar, residual, ok = _fit_dimension(u, epsilon, iu)
    if not ok.any():
        raise DatumUnfittable(dimension if dimension is not None else 0)
    excluded = frozenset(
        (int(a), int(b)) for a, b in zip(iu[0][~ok], iu[1][~ok])
    )
    return DatumFit(m_bar=float(m_bar), excluded=excluded, residual=float(residual))


def _margins_for_dimension(u: np.ndarray, m_bar: float, epsilon: float):
    du = u[:, None] - u[None, :]
    den = u[:, None] + u[None, :] + 2.0 * m_bar
    zeroed = np.abs(den) <= epsilon
    margins = np.where(zeroed, 0.0, du / np.where(zeroed, 1.0, den))
    np.fill_diagonal(zeroed, False)  # the zero diagonal is structural, not degenerate
    return margins, zeroed


def normalize_pairs(
    burst_or_values,
    m_bar,
    epsilon: float = DEFAULT_EPSILON,
) -> NormalizedField:
    """Fill the margin matrices for every dimension given fitted datums.

    Pairs whose shared-datum denominator magnitude falls at or below the
    guard get margin 0 and are recorded in margin_zeroed.
    """
    if isinstance(burst_or_values, DataBurst):
        values = burst_or_values.values
    else:
        values = np.asarray(burst_or_values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
    n, d = values.shape
    m_bar = np.broadcast_to(np.asarray(m_bar, dtype=float).ravel(), (d,))
    margins = np.zeros((d, n, n))
    zeroed = np.zeros((d, n, n), dtype=bool)
    unfittable = ~np.isfinite(m_bar)
    for dim in range(d):
        if unfittable[dim]:
            continue
        margins[dim], zeroed[dim] = _margins_for_dimension(
            values[:, dim], float(m_bar[dim]), epsilon
        )
    return NormalizedField(
        margins=margins,
        datum=np.array(m_bar, dtype=float),
        datum_residual=np.zeros(d),
        fit_excluded=np.zeros((d, n, n), dtype=bool),
        margin_zeroed=zeroed,
        unfittable=unfittable,
    )


def build_field(burst_or_values, epsilon: float = DEFAULT_EPSILON) -> NormalizedField:
    """Fit the datum in every dimension and fill the margin matrices.

    Dimensions where no pair is admissible are marked unfittable and get a
    zero margin matrix; downstream stages skip them.
    """
    if isinstance(burst_or_values, DataBurst):
        values = burst_or_values.values
    else:
        values = np.asarray(burst_or_values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
    n, d = values.shape
    datum = np.full(d, np.nan)
    residual = np.zeros(d)
    fit_excluded = np.zeros((d, n, n), dtype=bool)
    iu = np.triu_indices(n, k=1)
    for dim in range(d):
        datum[dim], residual[dim], ok = _fit_dimension(values[:, dim], epsilon, iu)
        fit_excluded[dim][iu] = ~ok
    field = normalize_pairs(values, datum, epsilon)
    field.datum_residual = residual
    field.fit_excluded = fit_excluded
    return field
