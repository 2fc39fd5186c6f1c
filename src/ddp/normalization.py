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

``build_field`` takes one (N, D) frame or a (B, N, D) stack of frames of
one zoom level and treats each (frame, dimension) lane alike, so a level is
normalized in one call.  It never holds an (N, N) float matrix.  Lanes go
in groups: together while their whole triangles fit one block of about
``_BLOCK_CELLS`` cells, one at a time beyond that.  Each group is a run of
tasks in one ordered sequence: the datum blocks, which take the pair
constants of the upper-triangle part of a block of rows, then the group's
stats (datum and residual), then the margin blocks of the group before it,
which sum full rows into Borda counts.  Its working set is one scratch per
thread that runs tasks, sized by the call's largest block and holding
every float and bool temporary of the blocks that thread computes, one
pool of the admissible pair constants whose means are the data (of a
single lane once a triangle outgrows a block) and the boolean zeroed mask
it returns, whose pages are touched only where a margin was zeroed.  A
scratch is allocated once per call, not once per block, so repeated calls
reuse the same heap pages instead of faulting in fresh ones.

The pool is filled in task order.  A datum block computes its constants
and queues their append as its step of the pool; the stats of a group are
the step after its last block.  Whichever thread queues the step the pool
waits for runs it and every queued step after it, so the pool, and with it
every mean, has the same bits whichever thread computed a block, and no
thread waits to write.  A datum block waits only while it would run more
than ``_AHEAD`` steps ahead of the pool, and a margin block only for its
group's datum, which the stats publish before the residual squares the
pool in place.  Every task waits only on earlier tasks.

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

# Datum blocks a thread may compute ahead of the pool's appends, which
# bounds the constants held for appending to this many blocks.
_AHEAD = 4


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

    ``pair_constants`` and ``pair_margins`` write every temporary of a
    block into views of these rows, so a thread allocates them once per
    ``build_field`` call instead of once per block.  ``cells`` bounds the
    size of the blocks they can hold.  The rows are one float and one bool
    array, so a freed scratch stays one chunk of the heap for the next.
    """

    def __init__(self, cells: int):
        self.floats = np.empty((3, cells))
        self.bools = np.empty((4, cells), dtype=bool)

    def take(self, shape):
        """Views of ``shape`` over the start of every float row and every bool row, stacked."""
        size = math.prod(shape)
        return self.floats[:, :size].reshape(-1, *shape), self.bools[:, :size].reshape(-1, *shape)


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
    (margins, den, _), (zeroed, other, _, _) = scratch.take(shape)
    np.subtract(u_a, u_b, out=margins)
    np.add(u_a, u_b, out=den)
    den += 2.0 * m_bar
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
    """Ends a task that waits for a step no task will take, once one has failed."""


class _Schedule:
    """The ordered tasks of one ``build_field`` call and the arrays they fill.

    The pool's steps (appending a datum block's constants, a group's
    stats) run one after another in task order, each on whichever thread
    finds it next in line: a thread that queues a step also runs every
    queued step whose turn has come, unless another thread already does.
    So no thread waits to write.  ``turn`` counts the steps done, and
    ``fits`` holds, per group whose datum is known, what its margin blocks
    read.
    """

    def __init__(self, u: np.ndarray, epsilon: float, group: int):
        lanes, n = u.shape
        self.u = u
        self.epsilon = epsilon
        self.pool = np.empty(min(group, lanes) * (n * (n - 1) // 2))
        self.fill = 0
        self.datum = np.full(lanes, np.nan)
        self.residual = np.zeros(lanes)
        self.admitted = np.zeros(lanes, dtype=np.int64)
        self.borda = np.zeros((lanes, n))
        self.zeroed = np.zeros((lanes, n, n), dtype=bool)
        self.zeroed_rows = np.zeros((lanes, n), dtype=np.int64)
        self.fits = []
        self.turn = 0
        self.error = None
        self._queued = {}
        self._running = False
        self._changed = threading.Condition(threading.Lock())
        self._claim = itertools.count().__next__   # atomic under the GIL

        # Per group: its datum blocks, whose pairs j > i taken row by row
        # continue the upper triangle in row-major order, then its stats,
        # then the margin blocks of full rows of the group before it, which
        # need no pool and so keep a thread busy while the other one takes
        # the stats.  A group of several lanes is one datum block and a
        # group of several datum blocks is one lane, so the pool holds the
        # group's lanes one after another, each in ``triu_indices`` order.
        # Tasks get the schedule from ``drain`` instead of holding it, so no
        # reference cycle keeps the pool alive after the call.
        # ``cells`` is the size of the largest block, which sizes the scratch.
        self.tasks = []
        self.cells = 0
        margins = []
        step = 0
        for index, l0 in enumerate(range(0, lanes, group)):
            part = slice(l0, min(l0 + group, lanes))
            g = part.stop - part.start
            i0 = 0
            while i0 < n - 1:
                i1 = min(n - 1, i0 + max(1, _BLOCK_CELLS // (g * (n - i0 - 1))))
                self.tasks.append((_fit_datum, (part, i0, i1, step)))
                self.cells = max(self.cells, g * (i1 - i0) * (n - i0 - 1))
                step += 1
                i0 = i1
            self.tasks.append((_queue_stats, (step, part)))
            step += 1
            self.tasks += margins
            rows = max(1, _BLOCK_CELLS // (g * n))
            margins = [(_sum_margins, (index, i0, i0 + rows)) for i0 in range(0, n, rows)]
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

    def queue(self, step: int, run, *args):
        """Queue ``run(self, *args)`` as pool step ``step``, then run the steps whose turn has come."""
        with self._changed:
            self._queued[step] = (run, args)
            if self._running:   # the thread running the steps takes this one too
                return
            self._running = True
        while True:
            with self._changed:
                queued = self._queued.pop(self.turn, None)
                if queued is None:
                    self._running = False
                    return
            run, args = queued
            run(self, *args)
            with self._changed:
                self.turn += 1
                self._changed.notify_all()

    def publish(self, fit):
        """Let the margin blocks of the group just fitted read its fitted lanes, their values and data."""
        with self._changed:
            self.fits.append(fit)
            self._changed.notify_all()

    def drain(self):
        """Run the next unclaimed task until none is left or one has failed.

        The thread's blocks share one scratch, allocated here.  The first
        exception is kept in ``error``, and every thread then stops taking
        tasks.
        """
        scratch = Scratch(self.cells)
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


def _fit_datum(s: _Schedule, scratch: Scratch, part: slice, i0: int, i1: int, step: int):
    """Pair constants of rows [i0, i1) of a group, appended to the pool as step ``step``.

    A block starts no more than ``_AHEAD`` steps ahead of the pool, so at
    most that many blocks of constants wait for their turn.
    """
    s.wait(lambda: s.turn >= step - _AHEAD)
    u = s.u[part]
    g, n = u.shape
    m, ok = pair_constants(u[:, i0:i1, None], u[:, None, i0 + 1:], s.epsilon, scratch)
    ok &= np.arange(i0 + 1, n) > np.arange(i0, i1)[:, None]
    s.queue(step, _append, part, m[ok], np.count_nonzero(ok.reshape(g, -1), axis=1))


def _queue_stats(s: _Schedule, scratch: Scratch, step: int, part: slice):
    """The stats task of a group: queue them as pool step ``step``; they need no scratch."""
    s.queue(step, _group_stats, part)


def _append(s: _Schedule, part: slice, constants: np.ndarray, counts: np.ndarray):
    end = s.fill + constants.size
    s.pool[s.fill:end] = constants
    s.admitted[part] += counts
    s.fill = end


def _group_stats(s: _Schedule, part: slice):
    """Datum and residual of each lane of a group, once the group fills the pool.

    The datum is published before the residual squares the pool in place,
    and the pool is free for the next group once the residual is done.
    """
    admitted = s.admitted[part]
    datum = s.datum[part]
    residual = s.residual[part]
    # Consecutive lanes with one admitted count are one (lanes, k) view of
    # the pool.  A row's sum over k has the bits of np.mean over the same
    # values, without its per-call overhead.
    cuts = [0, *(np.flatnonzero(np.diff(admitted)) + 1).tolist(), admitted.size]
    runs = []
    start = 0
    for r0, r1 in zip(cuts, cuts[1:]):
        k = int(admitted[r0])
        end = start + (r1 - r0) * k
        if k:
            good = s.pool[start:end].reshape(r1 - r0, k)
            datum[r0:r1] = np.add.reduce(good, axis=1) / k
            runs.append((r0, r1, good))
        start = end
    fit = np.flatnonzero(np.isfinite(datum))
    s.publish((part.start + fit, s.u[part][fit], datum[fit, None, None]))
    for r0, r1, good in runs:
        good -= datum[r0:r1, None]
        good *= good
        residual[r0:r1] = np.sqrt(np.add.reduce(good, axis=1) / good.shape[1])
    s.fill = 0


def _sum_margins(s: _Schedule, scratch: Scratch, index: int, i0: int, i1: int):
    """Borda counts of rows [i0, i1) of the fitted lanes of group ``index``.

    The mask and its row counts are written only by a block that zeroed a
    margin, so the pages of an all-False mask are never touched.
    """
    s.wait(lambda: len(s.fits) > index)
    lanes, u, m_bar = s.fits[index]
    if not lanes.size:
        return
    margins, block = pair_margins(u[:, i0:i1, None], u[:, None, :], m_bar, s.epsilon, scratch)
    rows = np.arange(i0, i0 + block.shape[1])
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
