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

``build_field`` takes one (N, D) frame or a (B, N, D) stack of frames of
one zoom level and treats each (frame, dimension) lane alike, so a level is
normalized in one call.  It never holds an (N, N) float matrix.  Lanes go
through both passes in groups: together while their whole triangles fit one
block of about ``_BLOCK_CELLS`` cells, one at a time beyond that.  The datum
pass runs over the upper-triangle part of each block, the margin pass over
full rows.  Its working set is these blocks, one pool of the admissible pair
constants whose means are the data (of a single lane once a triangle
outgrows a block) and the boolean zeroed mask it returns, whose pages are
touched only where a margin was zeroed.

Lanes that go one at a time, when there are several and the process may
run on two or more CPUs, overlap the passes: the calling thread fits lane
k + 1's datum while one worker thread sums lane k's margins, which starts
only once lane k's datum is final.  numpy releases the GIL inside each
block, so the passes run in parallel.  Only the calling thread touches the
pool; the worker writes only its lane's Borda counts and zeroed mask, and
is joined before ``build_field`` returns or raises.  Otherwise, and always
for lanes that go together, both passes run on the calling thread.
"""

from __future__ import annotations

import collections
import contextvars
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation

DEFAULT_EPSILON = 1e-9

# Cells (lanes x rows x columns) of one row block; small enough that a
# block's float temporaries stay in cache, large enough to amortize numpy's
# per-call overhead.
_BLOCK_CELLS = 1 << 16


@dataclass
class NormalizedField:
    """Borda counts plus the fitted datum of each lane of a frame or a stack.

    L is the lane count, frames x dimensions, frame-major; for one frame
    the lanes are its dimensions and L = D.

    borda                  (L, N) row sums of the antisymmetric margin matrices
    datum                  (L,) fitted shared constant, NaN where unfittable
    datum_residual         (L,) RMS deviation of pair constants from the datum
    fit_excluded_fraction  (L,) share of pairs A < B dropped from the datum fit
    margin_zeroed          (L, N, N) symmetric mask of pairs zeroed because the
                           shared-datum denominator fell inside the guard band
    margin_zeroed_fraction (L,) share of pairs A < B whose margin was zeroed
    unfittable             (L,) lanes with no admissible pair at all
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
        """Lane count L: the dimensions of a single frame."""
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


def _fit_datum(u: np.ndarray, pool: np.ndarray, epsilon: float):
    """Datum, residual and admitted pair count of each lane of a (G, N) group.

    Row blocks [i0, i1) meet columns (i0, N).  The pairs j > i of a block,
    taken row by row, continue the upper triangle in row-major order.  A
    group of several lanes is one block, and a group of several blocks is
    one lane, so the admissible constants land in ``pool`` lane after lane,
    each lane's in ``triu_indices`` order.
    """
    g, n = u.shape
    admitted = np.zeros(g, dtype=np.int64)
    fill = 0
    i0 = 0
    while i0 < n - 1:
        i1 = min(n - 1, i0 + max(1, _BLOCK_CELLS // (g * (n - i0 - 1))))
        m, ok = pair_constants(u[:, i0:i1, None], u[:, None, i0 + 1:], epsilon)
        ok &= np.arange(i0 + 1, n) > np.arange(i0, i1)[:, None]
        counts = np.count_nonzero(ok.reshape(g, -1), axis=1)
        end = fill + int(counts.sum())
        pool[fill:end] = m[ok]
        admitted += counts
        fill = end
        i0 = i1

    # One row-wise mean per distinct admitted count; a row's mean has the
    # bits of the 1-D mean over the same values.
    datum = np.full(g, np.nan)
    residual = np.zeros(g)
    starts = np.cumsum(admitted) - admitted
    for k in np.unique(admitted[admitted > 0]).tolist():
        rows = np.flatnonzero(admitted == k)
        if rows[-1] - rows[0] == rows.size - 1:   # consecutive lanes: a view of the pool
            good = pool[starts[rows[0]]:starts[rows[0]] + rows.size * k].reshape(-1, k)
        else:
            good = pool[starts[rows, None] + np.arange(k)]
        datum[rows] = np.mean(good, axis=1)
        good -= datum[rows, None]
        good *= good
        residual[rows] = np.sqrt(np.mean(good, axis=1))
    return datum, residual, admitted


def _sum_margins(u, datum, epsilon, borda, zeroed, zeroed_cells):
    """Borda counts of the lanes of a (G, N) group with a finite datum, in blocks of full rows.

    Writes into the group's views of ``borda``, ``zeroed`` and
    ``zeroed_cells``.  The mask is written only by a block that zeroed a
    margin, so the pages of an all-False mask are never touched.
    """
    fit = np.flatnonzero(np.isfinite(datum))
    if not fit.size:
        return
    n = u.shape[1]
    fit_u = u[fit]
    m_bar = datum[fit, None, None]
    step = max(1, _BLOCK_CELLS // (fit.size * n))
    for i0 in range(0, n, step):
        rows = np.arange(i0, min(n, i0 + step))
        margins, block = pair_margins(fit_u[:, i0:i0 + step, None], fit_u[:, None, :], m_bar, epsilon)
        block[:, rows - i0, rows] = False   # the zero diagonal is structural
        borda[fit, i0:i0 + step] = margins.sum(axis=-1)
        if block.any():   # zeroed margins are rare, and any() is cheaper than the count
            zeroed[fit, i0:i0 + step] = block
            zeroed_cells[fit] += np.count_nonzero(block, axis=(1, 2))


def _usable_cpus() -> int:
    """CPUs this process may run on now; affinity can change while it runs."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without CPU affinity
        return os.cpu_count() or 1


class _MarginsWorker(threading.Thread):
    """A started thread that sums the margins of the lanes handed to it, in order.

    It runs in a copy of the caller's context, so the caller's
    ``np.errstate`` applies.  Once a lane raises it skips the rest, and
    ``close`` returns the exception.
    """

    def __init__(self):
        super().__init__(name="ddp-margins")
        self._context = contextvars.copy_context()
        self._lanes = collections.deque()
        self._ready = threading.Semaphore(0)
        self._error = None
        self.start()

    def submit(self, margins):
        """Queue one lane's ``_sum_margins`` arguments; None ends the thread."""
        self._lanes.append(margins)
        self._ready.release()

    def run(self):
        while True:
            self._ready.acquire()
            margins = self._lanes.popleft()
            if margins is None:
                return
            if self._error is None:
                try:
                    self._context.run(_sum_margins, *margins)
                except BaseException as exc:   # raised on the caller by build_field
                    self._error = exc

    def close(self):
        """Join the thread once the queued lanes are done and return its exception."""
        self.submit(None)
        self.join()
        return self._error


def build_field(values, epsilon: float = DEFAULT_EPSILON) -> NormalizedField:
    """Fit the datum and sum the margins of every lane of an (N, D) frame or a (B, N, D) stack.

    A lane is one dimension of one frame; lanes are frame-major, so lane
    b * D + d is dimension d of frame b, and a single frame's lanes are its
    dimensions.  Lanes where no pair is admissible are marked unfittable,
    with a NaN datum and zero Borda counts; downstream stages skip them.
    """
    try:
        values = np.asarray(values, dtype=float)
    except ValueError as exc:
        raise ContractViolation(f"frames of unequal shape cannot be stacked: {exc}") from None
    if values.ndim not in (2, 3):
        raise ContractViolation(
            f"build_field takes an (N, D) frame or a (B, N, D) stack, not shape {values.shape}"
        )
    n, d = values.shape[-2:]
    if n == 0 or d == 0:
        raise ContractViolation(
            f"build_field needs at least one point and one dimension per frame, not shape {values.shape}"
        )
    u = values.reshape(-1, n, d).transpose(0, 2, 1).reshape(-1, n)   # (L, N), frame-major
    lanes = u.shape[0]
    n_pairs = n * (n - 1) // 2

    # Lanes go together while their whole triangles fit one block and one
    # at a time beyond that, so a wide frame holds the admissible constants
    # of a single lane.  Every group fills the same pool.
    group = max(1, _BLOCK_CELLS // max((n - 1) ** 2, 1))
    pool = np.empty(min(group, lanes) * n_pairs)
    datum = np.empty(lanes)
    residual = np.empty(lanes)
    admitted = np.empty(lanes, dtype=np.int64)
    borda = np.zeros((lanes, n))
    zeroed = np.zeros((lanes, n, n), dtype=bool)
    zeroed_cells = np.zeros(lanes, dtype=np.int64)
    # One lane at a time and with a second CPU, lane k's margins run on a
    # worker while this thread fits lane k + 1's datum into the pool.  On
    # one CPU the two threads would only take turns.
    worker = _MarginsWorker() if group == 1 and lanes > 1 and _usable_cpus() >= 2 else None
    error = None
    try:
        for l0 in range(0, lanes, group):
            part = slice(l0, l0 + group)
            datum[part], residual[part], admitted[part] = _fit_datum(u[part], pool, epsilon)
            margins = (u[part], datum[part], epsilon, borda[part], zeroed[part], zeroed_cells[part])
            if worker is None:
                _sum_margins(*margins)
            else:
                worker.submit(margins)
    finally:
        if worker is not None:
            error = worker.close()
    if error is not None:
        raise error

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
