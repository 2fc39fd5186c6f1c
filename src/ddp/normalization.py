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
in groups: together while their whole triangles fit one block of about
``_BLOCK_CELLS`` cells, one at a time beyond that.  Each group is a run of
tasks in one ordered sequence: the datum blocks, which take the pair
constants of the upper-triangle part of a block of rows, then the group's
stats (datum and residual), then the margin blocks of the group before it,
which sum full rows into Borda counts.  Its working set is these blocks,
one pool of the admissible pair constants whose means are the data (of a
single lane once a triangle outgrows a block) and the boolean zeroed mask
it returns, whose pages are touched only where a margin was zeroed.

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
        self.tasks = []
        margins = []
        step = 0
        for index, l0 in enumerate(range(0, lanes, group)):
            part = slice(l0, min(l0 + group, lanes))
            g = part.stop - part.start
            i0 = 0
            while i0 < n - 1:
                i1 = min(n - 1, i0 + max(1, _BLOCK_CELLS // (g * (n - i0 - 1))))
                self.tasks.append((_fit_datum, (part, i0, i1, step)))
                step += 1
                i0 = i1
            self.tasks.append((_Schedule.queue, (step, _group_stats, part)))
            step += 1
            self.tasks += margins
            rows = max(1, _BLOCK_CELLS // (g * n))
            margins = [(_sum_margins, (index, i0, i0 + rows)) for i0 in range(0, n, rows)]
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

        The first exception is kept in ``error``, and every thread then
        stops taking tasks.
        """
        try:
            while self.error is None:
                i = self._claim()
                if i >= len(self.tasks):
                    return
                task, args = self.tasks[i]
                task(self, *args)
        except _Abandoned:
            pass
        except BaseException as exc:
            with self._changed:
                if self.error is None:
                    self.error = exc
                self._changed.notify_all()


def _fit_datum(s: _Schedule, part: slice, i0: int, i1: int, step: int):
    """Pair constants of rows [i0, i1) of a group, appended to the pool as step ``step``.

    A block starts no more than ``_AHEAD`` steps ahead of the pool, so at
    most that many blocks of constants wait for their turn.
    """
    s.wait(lambda: s.turn >= step - _AHEAD)
    u = s.u[part]
    g, n = u.shape
    m, ok = pair_constants(u[:, i0:i1, None], u[:, None, i0 + 1:], s.epsilon)
    ok &= np.arange(i0 + 1, n) > np.arange(i0, i1)[:, None]
    s.queue(step, _append, part, m[ok], np.count_nonzero(ok.reshape(g, -1), axis=1))


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
    # One row-wise mean per distinct admitted count; a row's mean has the
    # bits of the 1-D mean over the same values.
    starts = np.cumsum(admitted) - admitted
    goods = []
    for k in np.unique(admitted[admitted > 0]).tolist():
        rows = np.flatnonzero(admitted == k)
        if rows[-1] - rows[0] == rows.size - 1:   # consecutive lanes: a view of the pool
            good = s.pool[starts[rows[0]]:starts[rows[0]] + rows.size * k].reshape(-1, k)
        else:
            good = s.pool[starts[rows, None] + np.arange(k)]
        datum[rows] = np.mean(good, axis=1)
        goods.append((rows, good))
    fit = np.flatnonzero(np.isfinite(datum))
    s.publish((part.start + fit, s.u[part][fit], datum[fit, None, None]))
    residual = s.residual[part]
    for rows, good in goods:
        good -= datum[rows, None]
        good *= good
        residual[rows] = np.sqrt(np.mean(good, axis=1))
    s.fill = 0


def _sum_margins(s: _Schedule, index: int, i0: int, i1: int):
    """Borda counts of rows [i0, i1) of the fitted lanes of group ``index``.

    The mask and its row counts are written only by a block that zeroed a
    margin, so the pages of an all-False mask are never touched.
    """
    s.wait(lambda: len(s.fits) > index)
    lanes, u, m_bar = s.fits[index]
    if not lanes.size:
        return
    margins, block = pair_margins(u[:, i0:i1, None], u[:, None, :], m_bar, s.epsilon)
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
