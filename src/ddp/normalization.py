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

``build_field`` never holds an (N, N) float matrix.  Both of its passes run
the dimensions through row blocks of about ``_BLOCK_CELLS`` cells: the
datum pass over the upper-triangle part of each block, the margin pass over
full rows of all dimensions at once.  Its working set is these blocks, the
admissible pair constants whose mean is the datum (of one dimension at a
time once a dimension's triangle outgrows a block) and the boolean zeroed
mask it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_EPSILON = 1e-9

# Cells (dimensions x rows x columns) of one row block; small enough that a
# block's float temporaries stay in cache, large enough to amortize numpy's
# per-call overhead.
_BLOCK_CELLS = 1 << 16


@dataclass
class NormalizedField:
    """Borda counts plus the fitted datum of one frame, one entry per dimension.

    borda                  (D, N) row sums of the antisymmetric margin matrices
    datum                  (D,) fitted shared constant, NaN where unfittable
    datum_residual         (D,) RMS deviation of pair constants from the datum
    fit_excluded_fraction  (D,) share of pairs A < B dropped from the datum fit
    margin_zeroed          (D, N, N) symmetric mask of pairs zeroed because the
                           shared-datum denominator fell inside the guard band
    margin_zeroed_fraction (D,) share of pairs A < B whose margin was zeroed
    unfittable             (D,) dimensions with no admissible pair at all
    """

    borda: np.ndarray
    datum: np.ndarray
    datum_residual: np.ndarray
    fit_excluded_fraction: np.ndarray
    margin_zeroed: np.ndarray
    margin_zeroed_fraction: np.ndarray
    unfittable: np.ndarray

    @property
    def n_dims(self) -> int:
        return self.borda.shape[0]

    @property
    def n_points(self) -> int:
        return self.borda.shape[1]


def pair_constants(u_a, u_b, epsilon: float = DEFAULT_EPSILON):
    """Pair constants of ordered pairs (uA, uB), elementwise over broadcast arrays.

    u_a and u_b are arrays of at least one dimension.  Returns (m,
    admissible) of the broadcast shape, where m is NaN for excluded pairs.
    The float steps work in place on three arrays of that shape.
    """
    u_a = np.asarray(u_a, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    su = u_a + u_b
    sq = u_a - u_b
    sq *= -4.0
    sq += 1.0                                     # the discriminant
    real = sq >= 0.0
    sq[~real] = 0.0
    np.sqrt(sq, out=sq)
    m1 = 1.0 + sq
    m1 *= 0.5                                     # root s1 >= 0.5, so |s1| = s1
    m2 = np.subtract(1.0, sq, out=sq)
    m2 *= 0.5                                     # root s2
    adm1 = real & (m1 > epsilon)
    adm2 = real & ((m2 > epsilon) | (m2 < -epsilon))
    m1 -= su
    m1 *= 0.5
    m2 -= su
    m2 *= 0.5
    # |m2| < |m1| as -|m1| < m2 < |m1|; s1 >= s2 gives m1 >= m2, so a
    # magnitude tie keeps m1, the positive candidate
    bound = np.abs(m1, out=su)
    smaller = m2 < bound
    smaller &= m2 > np.negative(bound, out=bound)
    np.putmask(m1, adm2 & (smaller | ~adm1), m2)
    admissible = adm1 | adm2
    m1[~admissible] = np.nan
    return m1, admissible


def pair_margins(u_a, u_b, m_bar, epsilon: float = DEFAULT_EPSILON):
    """Margins of pairs (uA, uB) at datum m_bar, elementwise over broadcast arrays.

    u_a and u_b are arrays of at least one dimension.  Pairs whose
    shared-datum denominator magnitude falls at or below the guard get
    margin 0 and are marked in the returned mask.
    """
    u_a = np.asarray(u_a, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    margins = u_a - u_b
    den = u_a + u_b
    den += 2.0 * np.asarray(m_bar, dtype=float)
    zeroed = (den <= epsilon) & (den >= -epsilon)
    den[zeroed] = 1.0
    margins /= den
    margins[zeroed] = 0.0
    return margins, zeroed


def _fit_datum(u: np.ndarray, epsilon: float):
    """Datum, residual and admitted pair count of each row of a (G, N) array.

    Row blocks [i0, i1) meet columns (i0, N).  The pairs j > i of a block,
    taken row by row, continue the upper triangle in row-major order, so
    each row's admissible constants are averaged in ``triu_indices`` order.
    """
    g, n = u.shape
    parts = [[] for _ in range(g)]
    i0 = 0
    while i0 < n - 1:
        i1 = min(n - 1, i0 + max(1, _BLOCK_CELLS // (g * (n - i0 - 1))))
        m, ok = pair_constants(u[:, i0:i1, None], u[:, None, i0 + 1:], epsilon)
        ok &= np.arange(i0 + 1, n) > np.arange(i0, i1)[:, None]
        for k in range(g):
            parts[k].append(m[k][ok[k]])
        i0 = i1
    datum = np.full(g, np.nan)
    residual = np.zeros(g)
    admitted = np.zeros(g, dtype=np.int64)
    for k in range(g):
        good = np.concatenate(parts[k]) if parts[k] else np.empty(0)
        admitted[k] = good.size
        if good.size:
            datum[k] = np.mean(good)
            good -= datum[k]
            good *= good
            residual[k] = np.sqrt(np.mean(good))
    return datum, residual, admitted


def build_field(values: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> NormalizedField:
    """Fit the datum and sum the margins of every dimension of an (N, D) frame.

    Dimensions where no pair is admissible are marked unfittable, with a
    NaN datum and zero Borda counts; downstream stages skip them.
    """
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    u = np.ascontiguousarray(values.T)   # (D, N)
    n_pairs = n * (n - 1) // 2

    # Pass 1 fits dimensions together while a whole triangle fits one block
    # and one at a time beyond that, so a wide frame holds the admissible
    # constants of a single dimension.
    group = max(1, _BLOCK_CELLS // max((n - 1) ** 2, 1))
    datum = np.empty(d)
    residual = np.empty(d)
    admitted = np.empty(d, dtype=np.int64)
    for d0 in range(0, d, group):
        part = slice(d0, d0 + group)
        datum[part], residual[part], admitted[part] = _fit_datum(u[part], epsilon)

    # Pass 2: full rows of every dimension with a finite datum.
    borda = np.zeros((d, n))
    zeroed = np.zeros((d, n, n), dtype=bool)
    zeroed_cells = np.zeros(d, dtype=np.int64)
    dims = np.flatnonzero(np.isfinite(datum))
    fit_u = u[dims]
    step = max(1, _BLOCK_CELLS // max(dims.size * n, 1))
    for i0 in range(0, n, step):
        rows = np.arange(i0, min(n, i0 + step))
        margins, block = pair_margins(
            fit_u[:, i0:i0 + step, None], fit_u[:, None, :], datum[dims, None, None], epsilon
        )
        block[:, rows - i0, rows] = False   # the zero diagonal is structural
        borda[dims, i0:i0 + step] = margins.sum(axis=-1)
        zeroed[dims, i0:i0 + step] = block
        if block.any():   # zeroed margins are rare, and any() is cheaper than the count
            zeroed_cells[dims] += np.count_nonzero(block, axis=(1, 2))

    return NormalizedField(
        borda=borda,
        datum=datum,
        datum_residual=residual,
        fit_excluded_fraction=(n_pairs - admitted) / max(n_pairs, 1),
        margin_zeroed=zeroed,
        # the mask is symmetric: each zeroed pair A < B fills two cells
        margin_zeroed_fraction=(zeroed_cells // 2) / max(n_pairs, 1),
        unfittable=~np.isfinite(datum),
    )
