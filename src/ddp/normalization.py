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
the datum fit, and so are pairs whose constant is not finite (an infinite
value, or a sum that overflows).  The shared datum per dimension is the
least-squares constant over all admissible pair values, i.e. their
arithmetic mean, and the RMS spread of the pair constants around it
measures how far the single shared datum is from the exact per-pair
solution.

Many lanes take the larger root s1 at every admitted pair, and a lane's
least and greatest values lo and hi prove it.  Rounding is monotone and
scaling by -4 or 0.5 is exact, so every pair sum is at least fl(lo + lo)
and every s1 at most S1max = fl(1 + sqrt(fl(fl(lo - hi) * -4) + 1)) * 0.5.
If epsilon < 0.5, 2lo and 2hi are finite and S1max <= fl(lo + lo), then
m2 <= m1 <= 0, so m1 wins, and s1 >= 0.5 > epsilon admits every pair
with a real root.  Such groups take ``_larger_root_constants``.  Likewise
every margin denominator of a lane lies in [fl(2lo + 2m), fl(2hi + 2m)]
at datum m, and a group whose intervals miss the guard band skips its mask.

``build_field`` takes one (N, D) frame or a (B, N, D) stack of frames of
one zoom level and treats each (frame, dimension) lane alike, so a level is
normalized in one call.  It never holds an (N, N) float matrix.  Lanes go
in groups: together while their whole triangles fit one block of about
``_BLOCK_CELLS`` cells, one at a time beyond that.  Each group is a run of
tasks in one ordered sequence: the datum blocks, which take the pair
constants of the upper-triangle part of a block of rows (a group's whole
triangles, gathered pair by pair, or a band of rows of one lane), then the
margin blocks of the group before it, which sum full rows into Borda
counts.  A whole triangle's pairs are gathered into the scratch, so every
kernel pass over them is contiguous.  Bands and margin blocks read their
operands as broadcast views, and each thread that runs tasks sets numpy's
ufunc buffer to ``_BUFSIZE`` elements while it does: a pass with a
broadcast operand runs 4-5 times slower at the default of 8192 than at a
buffer no longer than a wide lane's rows.  No result depends on the
buffer: an elementwise pass has the same bits however numpy splits it,
and every sum reads contiguous rows, which need no buffer.  The thread
restores its previous buffer size when it stops taking tasks.  The working set is one scratch per thread that runs tasks,
sized by the call's largest block and holding every float and bool
temporary of the blocks that thread computes, one pool of the admissible
pair constants whose means are the data (of a single lane once a triangle
outgrows a block) and the boolean zeroed mask it returns, whose pages are
touched only where a margin was zeroed.  A scratch is allocated once per
call, not once per block, so repeated calls reuse the same heap pages
instead of faulting in fresh ones.

One group at a time fills the pool.  A datum block computes its constants
in its scratch, waits until the group before has left the pool, and
writes the admitted ones at a fixed offset: the index of its first pair in
the group's triangle order.  The block that writes a group's last
constants runs the group's stats.  They move each block's constants down
to follow the previous block's, which is a no-op unless an earlier block
excluded a pair, so the pool holds the same values in the same order
whichever thread computed a block, and every mean has the same bits.  Then
they take each lane's datum and residual and count the group done; a
margin block waits for that.  Every task waits only on earlier tasks.

Lanes that go one at a time, when there are several and the process may
run on two or more CPUs, are shared with one worker thread: the caller and
the worker each take the next task of the sequence until none is left.
numpy releases the GIL inside each block, so the tasks run in parallel.
The worker runs in a copy of the caller's context, so ``np.errstate``
holds on both threads.  Once a task raises, both threads stop taking
tasks, the worker is joined, and ``build_field`` raises that exception.
Otherwise, and always for lanes that go together, the caller runs the same
tasks in the same order alone.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
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

# numpy's ufunc buffer, in elements, on threads that run tasks.  Sizes of
# 256 to 2048 time alike; from 4096 on, passes over broadcast views slow down.
_BUFSIZE = 1024


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


class Scratch:
    """Block temporaries that one thread reuses: three float and four bool rows.

    The pair kernels write every temporary of a block into views of these
    rows, so a thread allocates them once per ``build_field`` call instead
    of once per block.  Only a whole triangle's gathered operands live
    here too; bands and margin blocks read theirs as broadcast views of
    the lanes.  ``cells`` bounds the size of the blocks they can hold.
    The rows are one float and one bool array, so a freed scratch stays
    one chunk of the heap for the next.
    """

    def __init__(self, cells: int):
        self.floats = np.empty((3, cells))
        self.bools = np.empty((4, cells), dtype=bool)

    def take(self, shape):
        """Views of ``shape`` over the start of every float row and every bool row, stacked."""
        size = math.prod(shape)
        return self.floats[:, :size].reshape(3, *shape), self.bools[:, :size].reshape(4, *shape)


def pair_constants(u_a, u_b, epsilon: float = DEFAULT_EPSILON, scratch: Scratch | None = None):
    """Pair constants of ordered pairs (uA, uB), elementwise over broadcast arrays.

    u_a and u_b are arrays of at least one dimension.  Returns (m,
    admissible) of the broadcast shape.  A pair is admissible when it has
    an admissible root and its constant is finite.  Without ``scratch`` the
    two arrays are new and m is NaN for excluded pairs; with it they are
    views of the scratch, and m of an excluded pair is left unspecified.
    """
    u_a = np.asarray(u_a, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    shape = np.broadcast(u_a, u_b).shape
    fill = scratch is None
    if fill:
        scratch = Scratch(math.prod(shape))
    (su, sq, m1), (adm1, adm2, smaller, other) = scratch.take(shape)
    np.add(u_a, u_b, out=su)
    np.subtract(u_a, u_b, out=sq)
    sq *= -4.0
    sq += 1.0                                     # the discriminant
    with np.errstate(invalid="ignore"):           # no real root: NaN, which no test below admits
        np.sqrt(sq, out=sq)
    np.add(1.0, sq, out=m1)
    m1 *= 0.5                                     # root s1 >= 0.5, so |s1| = s1
    m2 = np.subtract(1.0, sq, out=sq)
    m2 *= 0.5                                     # root s2
    np.greater(m1, epsilon, out=adm1)
    np.greater(m2, epsilon, out=adm2)
    adm2 |= np.less(m2, -epsilon, out=other)
    m1 -= su
    m1 *= 0.5
    m2 -= su
    m2 *= 0.5
    # |m2| < |m1| as -|m1| < m2 < |m1|; s1 >= s2 gives m1 >= m2, so a
    # magnitude tie keeps m1, the positive candidate
    bound = np.abs(m1, out=su)
    np.less(m2, bound, out=smaller)
    smaller &= np.greater(m2, np.negative(bound, out=bound), out=other)
    smaller |= np.logical_not(adm1, out=other)
    smaller &= adm2
    np.copyto(m1, m2, where=smaller)
    admissible = np.logical_or(adm1, adm2, out=adm1)
    admissible &= np.isfinite(m1, out=other)
    if fill:
        m1[~admissible] = np.nan
    return m1, admissible


def _larger_root_constants(u_a, u_b, epsilon: float, scratch: Scratch):
    """``pair_constants`` of pairs whose lanes pass ``_one_root_lanes``, in a third of the passes.

    A pair is admissible when its discriminant is not negative, and its
    constant is then the larger root's m1, computed by the same operations
    as in ``pair_constants`` on the same scratch rows, so m has the same
    bits on every admissible pair.  No such root fails the guard, so
    ``epsilon`` is not read.  m of an excluded pair is unspecified.
    """
    (su, sq, m1), (admissible, _, _, _) = scratch.take(np.broadcast(u_a, u_b).shape)
    np.add(u_a, u_b, out=su)
    np.subtract(u_a, u_b, out=sq)
    sq *= -4.0
    sq += 1.0                                     # the discriminant
    np.greater_equal(sq, 0.0, out=admissible)
    with np.errstate(invalid="ignore"):
        np.sqrt(sq, out=sq)
    np.add(1.0, sq, out=m1)
    m1 *= 0.5                                     # root s1
    m1 -= su
    m1 *= 0.5
    return m1, admissible


def _one_root_lanes(lo, hi, epsilon: float):
    """Lanes, given their least and greatest values, whose pairs ``_larger_root_constants`` may take.

    The test is the bound in the module docstring; NaN fails it.
    """
    with np.errstate(all="ignore"):
        two_lo = lo + lo
        s1_max = (1.0 + np.sqrt((lo - hi) * -4.0 + 1.0)) * 0.5
        return (epsilon < 0.5) & np.isfinite(two_lo) & np.isfinite(hi + hi) & (s1_max <= two_lo)


def _outside_guard(two_lo, two_hi, m_bar, epsilon: float):
    """Lanes, given twice their least and greatest values, none of whose margins at datum m_bar is zeroed.

    Every denominator lies in [fl(2lo + 2m_bar), fl(2hi + 2m_bar)] (see the
    module docstring), so an interval that misses [-epsilon, epsilon]
    zeroes none.
    """
    return (two_lo + 2.0 * m_bar > epsilon) | (two_hi + 2.0 * m_bar < -epsilon)


def _margin_terms(u_a, u_b, m_bar, scratch: Scratch):
    """Numerators and shared-datum denominators of the margins of pairs (uA, uB), in the scratch."""
    (margins, den, _), _ = scratch.take(np.broadcast(u_a, u_b, m_bar).shape)
    np.subtract(u_a, u_b, out=margins)
    np.add(u_a, u_b, out=den)
    den += 2.0 * m_bar
    return margins, den


def pair_margins(u_a, u_b, m_bar, epsilon: float = DEFAULT_EPSILON, scratch: Scratch | None = None):
    """Margins of pairs (uA, uB) at datum m_bar, elementwise over broadcast arrays.

    u_a and u_b are arrays of at least one dimension.  Pairs whose
    shared-datum denominator magnitude falls at or below the guard get
    margin 0 and are marked in the returned mask.  With ``scratch`` the
    margins and the mask are views of it, else new arrays.
    """
    u_a = np.asarray(u_a, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    m_bar = np.asarray(m_bar, dtype=float)
    shape = np.broadcast(u_a, u_b, m_bar).shape
    if scratch is None:
        scratch = Scratch(math.prod(shape))
    margins, den = _margin_terms(u_a, u_b, m_bar, scratch)
    zeroed, other, _, _ = scratch.take(shape)[1]
    np.less_equal(den, epsilon, out=zeroed)
    zeroed &= np.greater_equal(den, -epsilon, out=other)
    any_zeroed = zeroed.any()   # zeroed margins are rare
    if any_zeroed:
        den[zeroed] = 1.0
    margins /= den
    if any_zeroed:
        margins[zeroed] = 0.0
    return margins, zeroed


def _usable_cpus() -> int:
    """CPUs this process may run on now; affinity can change while it runs."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # platforms without CPU affinity
        return os.cpu_count() or 1


class _Abandoned(Exception):
    """Ends a task that waits for a group no task will finish, once one has failed."""


class _Schedule:
    """The ordered tasks of one ``build_field`` call and the arrays they fill.

    ``written`` maps the pool offset of each datum block that has written
    there to its number of constants, for the group that fills the pool;
    ``blocks`` holds each group's number of datum blocks and ``kernels``
    the pair-constant kernel of its datum blocks; ``twice`` holds each
    lane's least and greatest value doubled.  ``done`` counts the groups
    whose stats are done, so the pool belongs to group ``done``, and
    ``fits`` holds, per such group, what its margin blocks read.
    """

    def __init__(self, u: np.ndarray, epsilon: float, group: int):
        lanes, n = u.shape
        self.u = u
        self.epsilon = epsilon
        lo, hi = u.min(axis=1), u.max(axis=1)
        one_root = _one_root_lanes(lo, hi, epsilon)
        with np.errstate(over="ignore"):
            self.twice = lo + lo, hi + hi   # per lane, bounds of every pair sum uA + uB
        self.pool = np.empty(min(group, lanes) * (n * (n - 1) // 2))
        self.written = {}
        self.blocks = []
        self.kernels = []
        self.datum = np.full(lanes, np.nan)
        self.residual = np.zeros(lanes)
        self.admitted = np.zeros(lanes, dtype=np.int64)
        self.borda = np.zeros((lanes, n))
        self.zeroed = np.zeros((lanes, n, n), dtype=bool)
        self.zeroed_rows = np.zeros((lanes, n), dtype=np.int64)
        self.fits = []
        self.done = 0
        self.error = None
        self._changed = threading.Condition(threading.Lock())
        self._claim = itertools.count().__next__   # atomic under the GIL

        # Per group: its datum blocks, whose pairs j > i taken row by row
        # continue the upper triangle in row-major order, then the margin
        # blocks of full rows of the group before it, which need no pool
        # and so keep a thread busy while another runs the stats.  A group
        # of several lanes is one datum block and a group of several datum
        # blocks is one lane, so the pool holds the group's lanes one after
        # another, each in ``triu_indices`` order.  A triangle of no pair
        # (N < 2) is one empty block.  Tasks get the schedule from ``drain``
        # instead of holding it, so no reference cycle keeps the pool alive
        # after the call.  ``cells`` is the size of the largest block, which
        # sizes the scratch.
        self.tasks = []
        self.cells = 0
        margins = []
        for index, l0 in enumerate(range(0, lanes, group)):
            part = slice(l0, min(l0 + group, lanes))
            g = part.stop - part.start
            blocks = i1 = 0
            while not blocks or i1 < n - 1:
                i0 = i1
                i1 = min(n - 1, i0 + max(1, _BLOCK_CELLS // (g * max(n - i0 - 1, 1))))
                self.tasks.append((_fit_datum, (index, part, i0, i1)))
                self.cells = max(self.cells, g * (i1 - i0) * (n - i0 - 1))
                blocks += 1
            self.blocks.append(blocks)
            self.kernels.append(_larger_root_constants if one_root[part].all() else pair_constants)
            self.tasks += margins
            rows = max(1, _BLOCK_CELLS // (g * n))
            margins = [(_sum_margins, (index, i0, min(i0 + rows, n))) for i0 in range(0, n, rows)]
            self.cells = max(self.cells, g * min(rows, n) * n)
        self.tasks += margins

    def wait(self, ready):
        """Return once ``ready()`` holds; raise _Abandoned once a task has failed."""
        if ready():
            return
        with self._changed:
            while not ready():
                if self.error is not None:
                    raise _Abandoned
                self._changed.wait()

    def drain(self):
        """Run the next unclaimed task until none is left or one has failed.

        The thread's blocks share one scratch, allocated here, and run at
        numpy's ufunc buffer of ``_BUFSIZE`` elements; the thread's own
        size is set back on the way out.  It is restored explicitly because
        on numpy 1.x the setting is per thread and ``np.errstate`` does not
        restore it.  The first exception is kept in ``error``, and every
        thread then stops taking tasks.
        """
        scratch = Scratch(self.cells)
        bufsize = np.setbufsize(_BUFSIZE)
        try:
            while self.error is None:
                i = self._claim()
                if i >= len(self.tasks):
                    return
                task, args = self.tasks[i]
                task(self, scratch, *args)
        except _Abandoned:
            pass
        except BaseException as exc:
            with self._changed:
                if self.error is None:
                    self.error = exc
                self._changed.notify_all()
        finally:
            np.setbufsize(bufsize)


def _fit_datum(s: _Schedule, scratch: Scratch, index: int, part: slice, i0: int, i1: int):
    """Pair constants of rows [i0, i1) of group ``index``, written to the pool at their offset.

    The group's kernel is ``_larger_root_constants`` when every lane of it
    passes ``_one_root_lanes``, else ``pair_constants``.  A block of the
    whole triangle gathers its pairs' operands into two contiguous scratch
    rows, so every kernel pass runs over the N(N-1)/2 pairs of each lane
    and none is masked away.  A band of rows, which a lane too wide for
    one block takes, reads its operands as broadcast views, unbuffered at
    the thread's ``_BUFSIZE``, and masks only the corner left of the
    diagonal: columns from i1 on are above it.  The block writes once the
    group before has left the pool, and the block that writes the group's
    last constants runs its stats.
    """
    u = s.u[part]
    g, n = u.shape
    constants = s.kernels[index]
    if i1 - i0 == n - 1:
        a, b = _triangle(n)
        # m1's and sq's rows: both kernels read u_a and u_b before writing them
        _, u_b, u_a = scratch.take((g, a.size))[0]
        m, ok = constants(
            np.take(u, a, axis=1, out=u_a, mode="clip"),
            np.take(u, b, axis=1, out=u_b, mode="clip"),
            s.epsilon, scratch,
        )
    else:
        m, ok = constants(u[:, i0:i1, None], u[:, None, i0 + 1:], s.epsilon, scratch)
        ok[:, :, :i1 - i0 - 1] &= np.arange(i0 + 1, i1) > np.arange(i0, i1)[:, None]
    # the pairs of rows [0, i0) of a band's one lane; a group's triangles start at 0
    offset = i0 * (2 * n - i0 - 1) // 2
    s.wait(lambda: s.done >= index)
    good = m[ok]
    # one lane admits what the gather kept; a group counts per lane
    counts = good.size if g == 1 else np.count_nonzero(ok.reshape(g, ok.size // g), axis=1)
    s.pool[offset:offset + good.size] = good
    with s._changed:
        s.written[offset] = good.size
        s.admitted[part] += counts
        last = len(s.written) == s.blocks[index]
    if last:
        _group_stats(s, part)


@functools.lru_cache(maxsize=16)
def _triangle(n: int):
    """``np.triu_indices(n, 1)``, the pairs A < B in pool order, read-only."""
    a, b = np.triu_indices(n, 1)
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _group_stats(s: _Schedule, part: slice):
    """Datum and residual of each lane of a group, once its blocks have filled the pool.

    Each block's constants first move down to follow the previous block's,
    so the pool holds each lane's admitted constants in triangle order.
    The pool is free for the next group once the group is counted done.
    """
    end = 0
    for offset in sorted(s.written):
        size = s.written[offset]
        if offset != end:   # an earlier block excluded a pair
            s.pool[end:end + size] = s.pool[offset:offset + size]
        end += size
    s.written.clear()
    admitted = s.admitted[part]
    # Consecutive lanes with one admitted count are one (lanes, k) view of
    # the pool.  A row's sum over k has the bits of np.mean over the same
    # values, without its per-call overhead.
    cuts = [0, *(np.flatnonzero(np.diff(admitted)) + 1).tolist(), admitted.size]
    runs = []
    end = 0
    for r0, r1 in zip(cuts, cuts[1:]):
        k = int(admitted[r0])
        if k:
            runs.append((r0, r1, s.pool[end:end + (r1 - r0) * k].reshape(r1 - r0, k)))
        end += (r1 - r0) * k
    sums = np.zeros(admitted.size)
    for r0, r1, good in runs:
        np.add.reduce(good, axis=1, out=sums[r0:r1])
    fitted = admitted > 0
    k = admitted[fitted]
    datum = s.datum[part]
    datum[fitted] = sums[fitted] / k
    for r0, r1, good in runs:
        good -= datum[r0:r1, None]
    pool = s.pool[:end]
    pool *= pool
    for r0, r1, good in runs:
        np.add.reduce(good, axis=1, out=sums[r0:r1])
    s.residual[part][fitted] = np.sqrt(sums[fitted] / k)
    fit = np.flatnonzero(np.isfinite(datum))
    two_lo, two_hi = (t[part][fit] for t in s.twice)
    guarded = not _outside_guard(two_lo, two_hi, datum[fit], s.epsilon).all()
    with s._changed:
        s.fits.append((part.start + fit, s.u[part][fit], datum[fit, None, None], guarded))
        s.done += 1
        s._changed.notify_all()


def _sum_margins(s: _Schedule, scratch: Scratch, index: int, i0: int, i1: int):
    """Borda counts of rows [i0, i1) of the fitted lanes of group ``index``.

    The row and column operands are broadcast views of the lanes, which
    the thread's small ufunc buffer (``_BUFSIZE``) keeps fast; the margins
    and denominators are contiguous scratch rows.  A group whose lanes'
    bounds keep every denominator out of the guard band divides without
    ``pair_margins``' mask.  The mask and its row counts are written only
    by a block that zeroed a margin, so the pages of an all-False mask are
    never touched.
    """
    s.wait(lambda: s.done > index)
    lanes, u, m_bar, guarded = s.fits[index]
    if not lanes.size:
        return
    u_a, u_b = u[:, i0:i1, None], u[:, None, :]
    if not guarded:
        margins, den = _margin_terms(u_a, u_b, m_bar, scratch)
        margins /= den
        s.borda[lanes, i0:i1] = margins.sum(axis=-1)
        return
    margins, block = pair_margins(u_a, u_b, m_bar, s.epsilon, scratch)
    rows = np.arange(i0, i1)
    block[:, rows - i0, rows] = False   # the zero diagonal is structural
    s.borda[lanes, i0:i1] = margins.sum(axis=-1)
    if block.any():   # zeroed margins are rare, and any() is cheaper than the count
        s.zeroed[lanes, i0:i1] = block
        s.zeroed_rows[lanes, i0:i1] = np.count_nonzero(block, axis=2)


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
    # of a single lane.
    group = max(1, _BLOCK_CELLS // max((n - 1) ** 2, 1))
    s = _Schedule(u, epsilon, group)
    # One lane at a time and with a second CPU, a worker shares the tasks.
    # On one CPU the two threads would only take turns.
    worker = None
    if group == 1 and lanes > 1 and _usable_cpus() >= 2:
        worker = threading.Thread(target=contextvars.copy_context().run, args=(s.drain,), name="ddp-normalize")
        worker.start()
    try:
        s.drain()
    finally:
        if worker is not None:
            worker.join()
    if s.error is not None:
        raise s.error

    zeroed_cells = s.zeroed_rows.sum(axis=1)
    return NormalizedField(
        borda=s.borda,
        datum=s.datum,
        datum_residual=s.residual,
        fit_excluded_fraction=(n_pairs - s.admitted) / max(n_pairs, 1),
        margin_zeroed=s.zeroed,
        # the mask is symmetric: each zeroed pair A < B fills two cells
        margin_zeroed_fraction=(zeroed_cells // 2) / max(n_pairs, 1),
        unfittable=~np.isfinite(s.datum),
    )
