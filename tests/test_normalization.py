import collections
import dataclasses
import gc
import re
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddp.normalization as normalization
from ddp import ContractViolation, DdpError, NormalizedField, build_field, pair_margins
from ddp.normalization import pair_constants

from oracles import PairStatus, build_field_oracle, pair_constant, pair_constant_oracle
from test_properties import VALUE_KINDS
from test_zoomout import TAIL_KINDS, _descending_column

finite_units = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def _one_pair(u_a, u_b, epsilon=1e-9):
    m, ok = pair_constants(np.array([u_a]), np.array([u_b]), epsilon)
    return m[0], ok[0]


def test_pair_constant_zero_pair_picks_admissible_root():
    m, ok = _one_pair(0.0, 0.0)
    assert ok
    assert m == pytest.approx(0.5, abs=0)


def test_pair_constant_both_admissible_prefers_small_magnitude():
    m, ok = _one_pair(0.21, 0.25)
    assert ok
    assert m == pytest.approx(-0.24925824035672518, rel=1e-12)


def test_pair_constant_negative_discriminant():
    # 1 - 4 * (uA - uB) = -1: no real root
    m, ok = _one_pair(0.5, 0.0)
    assert not ok and np.isnan(m)


def test_pair_constant_magnitude_tie_prefers_positive():
    # uA + uB = 0.5 with an exact square discriminant: roots +/- 0.75
    m, ok = _one_pair(-0.75, 1.25)
    assert ok
    assert m == 0.75


def test_pair_constant_degenerate_when_both_roots_guarded():
    # uA = uB = 0 has roots s in {0, 1}; a huge guard swallows both
    m, ok = _one_pair(0.0, 0.0, epsilon=2.0)
    assert not ok and np.isnan(m)


@given(st.lists(finite_units, min_size=2, max_size=12))
@settings(max_examples=60, deadline=None)
def test_grid_matches_scalar(us):
    u = np.array(us)
    m_grid, adm = pair_constants(u[:, None], u[None, :])
    for a in range(len(u)):
        for b in range(len(u)):
            m, status = pair_constant(u[a], u[b])
            if status is PairStatus.OK:
                assert adm[a, b]
                assert m_grid[a, b] == m
            else:
                assert not adm[a, b]


@given(finite_units, finite_units)
@settings(max_examples=100, deadline=None)
def test_pair_constant_matches_independent_solver(ua, ub):
    expected = pair_constant_oracle(ua, ub)
    m, ok = _one_pair(ua, ub)
    if expected is None:
        assert not ok
    else:
        assert ok
        assert m == pytest.approx(expected, rel=1e-9, abs=1e-12)


def _field(u):
    return build_field(np.asarray(u, dtype=float)[:, None])


def test_fit_datum_singleton_pair():
    field = _field([0.0, 0.0])
    assert field.datum[0] == pytest.approx(0.5)
    assert field.datum_residual[0] == 0.0
    assert field.fit_excluded_fraction[0] == 0.0


def test_fit_datum_all_equal_values():
    field = _field(np.zeros(5))
    assert field.datum[0] == pytest.approx(0.5)
    assert field.datum_residual[0] == 0.0


def test_fit_datum_unfittable_when_all_pairs_rejected():
    # strictly decreasing with every gap above 0.25: no real root anywhere
    field = _field([0.9, 0.6, 0.3, 0.0])
    assert field.unfittable[0] and np.isnan(field.datum[0])
    assert field.fit_excluded_fraction[0] == 1.0
    assert np.all(field.borda[0] == 0.0)


@given(st.lists(finite_units, min_size=3, max_size=10))
@settings(max_examples=60, deadline=None)
def test_fit_datum_is_mean_of_admissible_constants(us):
    u = np.array(us)
    constants = []
    n = len(u)
    for a in range(n):
        for b in range(a + 1, n):
            m, status = pair_constant(u[a], u[b])
            if status is PairStatus.OK:
                constants.append(m)
    field = _field(u)
    n_pairs = n * (n - 1) // 2
    assert field.fit_excluded_fraction[0] == (n_pairs - len(constants)) / n_pairs
    if not constants:
        assert field.unfittable[0] and np.isnan(field.datum[0])
        return
    mean = np.mean(constants)
    assert field.datum[0] == pytest.approx(mean, rel=1e-12, abs=1e-15)
    assert field.datum_residual[0] == pytest.approx(
        np.sqrt(np.mean((np.array(constants) - mean) ** 2)), rel=1e-10, abs=1e-15
    )


def _margin_matrix(u, m_bar):
    u = np.asarray(u, dtype=float)
    return pair_margins(u[:, None], u[None, :], m_bar)


def test_normalize_direct_substitution():
    margins, _ = _margin_matrix([2.0, 1.0], 0.0)
    assert margins[0, 1] == pytest.approx(1.0 / 3.0)
    assert margins[1, 0] == pytest.approx(-1.0 / 3.0)


def test_normalize_equal_values_zero_margin():
    margins, _ = _margin_matrix([0.7, 0.7], 0.1)
    assert margins[0, 1] == 0.0


def test_normalize_records_degenerate_pairs():
    # denominator uA + uB + 2*m_bar = 0 exactly
    margins, zeroed = _margin_matrix([1.0, -1.0], 0.0)
    assert margins[0, 1] == 0.0
    assert zeroed[0, 1] and zeroed[1, 0]
    assert not zeroed[0, 0]


def test_build_field_counts_zeroed_pairs():
    # the fitted datum is exactly 0, so the pair (-1, 1) has a zero denominator
    field = _field([-1.0, 0.0, 1.0])
    assert field.datum[0] == 0.0
    assert field.margin_zeroed[0, 0, 2] and field.margin_zeroed[0, 2, 0]
    assert np.count_nonzero(field.margin_zeroed) == 2
    assert field.margin_zeroed_fraction[0] == 1.0 / 3.0
    np.testing.assert_array_equal(field.borda[0], [1.0, -2.0, 1.0])


def test_pair_constants_exclude_non_finite_constants():
    # uA = -inf: the discriminant is +inf and s1 = +inf passes the guard,
    # but the constant is inf; with uB = -inf there is no real root
    with np.errstate(invalid="ignore"):
        m, ok = pair_constants(np.array([-np.inf, 0.1, 0.2, 0.3]), np.array([0.1, -np.inf, 0.2, 0.3]))
    np.testing.assert_array_equal(ok, [False, False, True, True])
    assert np.isnan(m[:2]).all() and np.isfinite(m[2:]).all()


def test_build_field_excludes_pairs_of_a_non_finite_value():
    u = np.array([-np.inf, 0.1, 0.2, 0.3])
    with np.errstate(invalid="ignore"):
        field = _field(u)
        expected = build_field_oracle(u[:, None])
    finite = _field(u[1:])
    # the three pairs of -inf are excluded, and the other three fit alone
    assert field.fit_excluded_fraction[0] == 0.5
    assert field.datum[0] == finite.datum[0] and not field.unfittable[0]
    assert field.datum_residual[0] == finite.datum_residual[0]
    for f in dataclasses.fields(NormalizedField):
        assert getattr(field, f.name).tobytes() == getattr(expected, f.name).tobytes(), f.name


def test_pair_kernels_write_into_the_scratch():
    u = np.random.default_rng(6).uniform(-1.0, 1.0, 9)
    scratch = normalization.Scratch(81)
    m, ok = pair_constants(u[:, None], u[None, :], 0.3, scratch)
    m_new, ok_new = pair_constants(u[:, None], u[None, :], 0.3)
    assert np.shares_memory(m, scratch.floats) and np.shares_memory(ok, scratch.bools)
    np.testing.assert_array_equal(ok, ok_new)
    assert m[ok].tobytes() == m_new[ok_new].tobytes() and np.isnan(m_new[~ok_new]).all()
    margins, zeroed = pair_margins(u[:, None], u[None, :], 0.1, 0.3, scratch)
    margins_new, zeroed_new = pair_margins(u[:, None], u[None, :], 0.1, 0.3)
    assert np.shares_memory(margins, scratch.floats) and np.shares_memory(zeroed, scratch.bools)
    assert margins.tobytes() == margins_new.tobytes()
    np.testing.assert_array_equal(zeroed, zeroed_new)


def test_build_field_single_point_frame():
    with np.errstate(all="raise"):
        field = build_field(np.array([[0.5, 0.25]]))
    assert field.n_points == 1 and field.n_dims == 2
    assert np.all(field.unfittable)
    np.testing.assert_array_equal(field.fit_excluded_fraction, [0.0, 0.0])
    np.testing.assert_array_equal(field.margin_zeroed_fraction, [0.0, 0.0])


@given(st.lists(st.lists(finite_units, min_size=3, max_size=3), min_size=3, max_size=10))
@settings(max_examples=40, deadline=None)
def test_build_field_matches_per_dimension_margins(rows):
    values = np.array(rows)
    field = build_field(values)
    for d in range(values.shape[1]):
        if field.unfittable[d]:
            assert np.all(field.borda[d] == 0.0) and not field.margin_zeroed[d].any()
            continue
        margins, zeroed = _margin_matrix(values[:, d], field.datum[d])
        np.fill_diagonal(zeroed, False)
        np.testing.assert_array_equal(field.borda[d], margins.sum(axis=1))
        np.testing.assert_array_equal(field.margin_zeroed[d], zeroed)


@given(st.lists(finite_units, min_size=3, max_size=12), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_antisymmetry_exact(us, salt):
    rng = np.random.default_rng(salt)
    u = np.array(us) + rng.normal(0, 0.01, len(us))
    u = np.clip(u, -1, 1)
    field = build_field(u[:, None])
    if field.unfittable[0]:
        return
    a, _ = _margin_matrix(u, field.datum[0])
    assert np.array_equal(a, -a.T)
    assert np.all(np.diag(a) == 0.0)


def test_build_field_flags_unfittable_dimension():
    values = np.column_stack([
        np.array([0.9, 0.6, 0.3, 0.0]),      # unfittable
        np.array([0.5, 0.52, 0.48, 0.51]),   # fine
    ])
    field = build_field(values)
    assert field.unfittable[0] and not field.unfittable[1]
    assert np.all(field.borda[0] == 0.0)
    assert np.isnan(field.datum[0]) and np.isfinite(field.datum[1])


def test_datum_residual_reported_per_dimension():
    rng = np.random.default_rng(0)
    values = rng.uniform(0.5, 1.0, size=(9, 4))
    field = build_field(values)
    assert field.datum_residual.shape == (4,)
    assert np.all(field.datum_residual >= 0.0)


@given(
    n=st.sampled_from([1, 2, 3, 9, 28, 81, 100]),
    d=st.integers(1, 5),
    epsilon=st.sampled_from([1e-9, 0.3, 0.6, 2.0]),
    kind=st.sampled_from(sorted(VALUE_KINDS)),
    seed=st.integers(0, 2**32 - 1),
    one_row_blocks=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_build_field_matches_unblocked_oracle_bitwise(n, d, epsilon, kind, seed, one_row_blocks):
    values = VALUE_KINDS[kind](np.random.default_rng(seed), n, d)
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        if one_row_blocks:
            mp.setattr(normalization, "_BLOCK_CELLS", 1)
        field = build_field(values, epsilon)
        expected = build_field_oracle(values, epsilon)
    for f in dataclasses.fields(NormalizedField):
        got, want = getattr(field, f.name), getattr(expected, f.name)
        assert got.dtype == want.dtype and got.shape == want.shape, f.name
        assert got.tobytes() == want.tobytes(), f.name


def _assert_stack_matches_per_frame_oracle(stack, epsilon, block_cells):
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        mp.setattr(normalization, "_BLOCK_CELLS", block_cells)
        field = build_field(stack, epsilon)
        frames = [build_field_oracle(frame, epsilon) for frame in stack]
    for f in dataclasses.fields(NormalizedField):
        got = getattr(field, f.name)
        want = np.concatenate([getattr(frame, f.name) for frame in frames])
        assert got.dtype == want.dtype and got.shape == want.shape, f.name
        assert got.tobytes() == want.tobytes(), f.name
    return field


@given(
    n=st.sampled_from([1, 2, 3, 9, 28, 40]),
    d=st.integers(1, 4),
    kinds=st.lists(st.sampled_from(sorted(TAIL_KINDS)), min_size=1, max_size=6),
    epsilon=st.sampled_from([1e-9, 0.3, 0.6, 2.0]),
    block_cells=st.sampled_from([1, 40, 729, 2048, 1 << 16]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_build_field_stack_matches_per_frame_oracle_bitwise(n, d, kinds, epsilon, block_cells, seed):
    """A (B, N, D) stack gives the lanes of its frames' oracle fields, frame-major.

    Small blocks send lanes one at a time through several row blocks; large
    ones put several whole triangles in one block.
    """
    rng = np.random.default_rng(seed)
    stack = np.stack([TAIL_KINDS[kind](rng, n, d) for kind in kinds])
    _assert_stack_matches_per_frame_oracle(stack, epsilon, block_cells)


@pytest.mark.parametrize("block_cells", [1, 512, 4096, 1 << 16])
def test_build_field_stack_covers_ragged_unfittable_and_zeroed_lanes(block_cells):
    rng = np.random.default_rng(11)
    stack = np.stack([
        _descending_column(rng, 28, 3),
        rng.normal(0.0, 1.0, (28, 3)),
        rng.uniform(-0.2, 0.2, (28, 3)),
        rng.integers(-2, 3, (28, 3)).astype(float),
    ])
    field = _assert_stack_matches_per_frame_oracle(stack, 0.3, block_cells)
    fittable = ~field.unfittable
    assert field.unfittable.any() and fittable.any()
    assert np.unique(field.fit_excluded_fraction[fittable]).size > 1   # ragged admitted counts
    assert field.margin_zeroed.any()


_TASKS = ("_fit_datum", "_group_stats", "_sum_margins")


def _record_tasks(mp, before=None):
    """Wrap each task function; returns the (kind, thread) of every call, in call order.

    ``before(kind)`` runs ahead of each call, on the thread making it.
    """
    calls = []
    for kind in _TASKS:
        original = getattr(normalization, kind)

        def recorded(*args, kind=kind, original=original):
            calls.append((kind, threading.current_thread()))
            if before is not None:
                before(kind)
            return original(*args)

        mp.setattr(normalization, kind, recorded)
    return calls


def _mixed_stack(rng, n):
    """Three frames whose lanes are unfittable, excluded here and there, or zeroed."""
    return np.stack([
        _descending_column(rng, n, 3),
        rng.normal(0.0, 1.0, (n, 3)),
        rng.integers(-2, 3, (n, 3)).astype(float),
    ])


def _record_drains(mp):
    """Wrap ``_Schedule.drain``; returns the thread of every call."""
    threads = []
    drain = normalization._Schedule.drain

    def recorded(self):
        threads.append(threading.current_thread())
        drain(self)

    mp.setattr(normalization._Schedule, "drain", recorded)
    return threads


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n, block_cells", [(190, 1 << 16), (28, 512)])
def test_build_field_margins_worker_matches_per_frame_oracle(cpus, n, block_cells):
    """Lanes past one block go one at a time; with two CPUs one worker
    thread shares the datum, stats and margin tasks with the caller."""
    stack = _mixed_stack(np.random.default_rng(12), n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_usable_cpus", lambda: cpus)
        drains = _record_drains(mp)
        calls = _record_tasks(mp)
        field = _assert_stack_matches_per_frame_oracle(stack, 0.3, block_cells)
    assert threading.current_thread() in drains
    assert len(set(drains)) == len(drains) == cpus
    assert {t for _, t in calls} <= set(drains)
    kinds = collections.Counter(k for k, _ in calls)
    assert kinds["_group_stats"] == field.n_dims   # one lane per group
    assert kinds["_fit_datum"] >= field.n_dims and kinds["_sum_margins"] >= field.n_dims
    assert field.unfittable.any() and field.margin_zeroed.any()


def test_build_field_excluded_pairs_in_several_blocks_keep_pool_order():
    """Small blocks split each lane's triangle, and the excluded pairs fall
    into several of them, so a block appended out of turn would move the
    admitted constants of the lanes and change their means."""
    n, block_cells = 40, 512
    stack = np.random.default_rng(13).uniform(-1.0, 1.0, (2, n, 3))
    _, ok = pair_constants(stack[..., None, :], stack[..., None, :, :], 0.3)
    rows = np.nonzero(~ok & np.triu(np.ones((n, n), dtype=bool), 1)[..., None])[1]
    assert rows.min() < block_cells // (n - 1) <= n // 2 < rows.max()   # first block and a late one
    for cpus in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(normalization, "_usable_cpus", lambda: cpus)
            _assert_stack_matches_per_frame_oracle(stack, 0.3, block_cells)


@pytest.mark.parametrize("seed", range(4))
def test_build_field_random_task_delays_keep_the_fields(seed):
    """Sleeps before datum and margin blocks on either thread reorder when
    blocks finish; the pool still takes them in turn."""
    rng = np.random.default_rng(seed)
    stack = _mixed_stack(rng, 40)
    delays = iter(rng.uniform(0.0, 2e-3, 10_000).tolist())

    def sleep(kind):
        if kind != "_group_stats":
            time.sleep(next(delays))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_usable_cpus", lambda: 2)
        calls = _record_tasks(mp, before=sleep)
        _assert_stack_matches_per_frame_oracle(stack, 0.3, 512)
    assert len({t for _, t in calls}) == 2


def test_build_field_stalled_worker_leaves_every_task_to_the_caller():
    stack = _mixed_stack(np.random.default_rng(14), 40)
    caller = threading.current_thread()
    caller_done = threading.Event()
    drain = normalization._Schedule.drain

    def stalled(self):
        if threading.current_thread() is caller:
            drain(self)
            caller_done.set()
        else:
            assert caller_done.wait(timeout=60)
            drain(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_usable_cpus", lambda: 2)
        mp.setattr(normalization._Schedule, "drain", stalled)
        calls = _record_tasks(mp)
        _assert_stack_matches_per_frame_oracle(stack, 0.3, 512)
    assert caller_done.is_set()
    assert calls and {t for _, t in calls} == {caller}


def test_build_field_grouped_lanes_start_no_worker():
    values = np.random.default_rng(2).uniform(-1.0, 1.0, (4, 81, 4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_usable_cpus", lambda: 2)
        drains = _record_drains(mp)
        calls = _record_tasks(mp)
        build_field(values)
    assert drains == [threading.current_thread()]
    assert {t for _, t in calls} == set(drains)


@pytest.mark.parametrize("cpus", [1, 2])
def test_build_field_leaves_no_reference_cycle(cpus):
    """A cycle through the schedule would keep its pool of pair constants
    (19 MB per wide lane) alive until the next garbage collection."""
    values = np.random.default_rng(15).uniform(-1.0, 1.0, (2, 200, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_usable_cpus", lambda: cpus)
        build_field(values)
        gc.collect()
        gc.disable()
        try:
            build_field(values)
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_build_field_from_several_threads_at_once():
    """Four callers, each sharing its tasks with its own worker, under a
    short switch interval give the fields of one caller running them alone."""
    rng = np.random.default_rng(21)
    stacks = [rng.normal(0.0, 1.0, (3, 28, 3)) for _ in range(4)]
    got = [None] * len(stacks)

    def call(i):
        got[i] = build_field(stacks[i])

    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_BLOCK_CELLS", 512)
        mp.setattr(normalization, "_usable_cpus", lambda: 1)
        want = [build_field(stack) for stack in stacks]
        mp.setattr(normalization, "_usable_cpus", lambda: 2)
        callers = [threading.Thread(target=call, args=(i,)) for i in range(len(stacks))]
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    for field, expected in zip(got, want, strict=True):
        for f in dataclasses.fields(NormalizedField):
            assert getattr(field, f.name).tobytes() == getattr(expected, f.name).tobytes(), f.name


class _Injected(RuntimeError):
    pass


def _call_with_timeout(fn, timeout=20):
    """Run fn() on a fresh thread; fail if it has not returned or raised within timeout."""
    outcome = []

    def run():
        try:
            outcome.append(("value", fn()))
        except BaseException as exc:
            outcome.append(("error", exc))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "build_field hung"
    kind, value = outcome[0]
    if kind == "error":
        raise value
    return value


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("target", _TASKS)
@pytest.mark.parametrize("failing_call", [2, 4])
def test_build_field_raises_a_pass_error_and_leaves_no_thread(cpus, target, failing_call):
    stack = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 40, 2))   # 4 lanes
    calls = []

    def fail(kind):
        if kind == target:
            calls.append(kind)
            if len(calls) == failing_call:
                raise _Injected(target)

    threads = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_BLOCK_CELLS", 512)
        mp.setattr(normalization, "_usable_cpus", lambda: cpus)
        _record_tasks(mp, before=fail)
        with pytest.raises(_Injected, match=target):
            _call_with_timeout(lambda: build_field(stack))
    assert threading.active_count() == threads


@pytest.mark.parametrize("target", _TASKS)
@pytest.mark.parametrize("on_worker", [False, True])
def test_build_field_raises_a_task_error_from_either_thread_and_leaves_no_thread(target, on_worker):
    """The first call of the target task on the chosen thread raises.

    The other thread pauses before each task, so the chosen one takes most
    of them.  A group's stats run on the thread that appends the last
    block before them, so for the stats the chosen thread is the one that
    pauses.  It raises only after a pause long enough for the other thread
    to wait on the step it holds.  Each attempt must raise or finish, and
    leave no thread.
    """
    stack = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 40, 2))   # 8 lanes
    fired = []

    def fail(kind):
        chosen = (threading.current_thread().name == "ddp-normalize") == on_worker
        if chosen and kind == target:
            fired.append(kind)
            time.sleep(0.05)
            raise _Injected(target)
        if chosen == (target == "_group_stats"):
            time.sleep(2e-3)

    threads = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_BLOCK_CELLS", 512)
        mp.setattr(normalization, "_usable_cpus", lambda: 2)
        _record_tasks(mp, before=fail)
        for _ in range(20):
            try:
                _call_with_timeout(lambda: build_field(stack))
            except _Injected:
                break
            finally:
                assert threading.active_count() == threads
    assert fired == [target]


@pytest.mark.parametrize("cpus", [1, 2])
def test_build_field_errstate_applies_on_both_threads(cpus):
    values = np.random.default_rng(8).uniform(-1.0, 1.0, (2, 40, 2))
    values[0, :2, 1] = [np.inf, np.nan]   # lane 1: the margin pass meets inf - inf
    values[1, 5, 0] = -np.inf              # lane 2: the datum pass does, and excludes its pairs
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(normalization, "_BLOCK_CELLS", 512)
        mp.setattr(normalization, "_usable_cpus", lambda: cpus)
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            field = build_field(values)
        with pytest.raises(RuntimeWarning, match="invalid value"):
            build_field(values[:1])   # lane 1's margins alone warn without errstate
    assert np.isfinite(field.datum[1:]).all() and np.isnan(field.borda[2]).all()


@pytest.mark.parametrize("shape", [(0, 4), (9, 0), (3, 0, 4), (3, 9, 0)])
def test_build_field_rejects_frames_without_points_or_dimensions(shape):
    with pytest.raises(ContractViolation, match=re.escape(str(shape))):
        build_field(np.zeros(shape))


def test_build_field_empty_stack_gives_empty_field():
    field = build_field(np.zeros((0, 9, 4)))
    assert field.borda.shape == (0, 9) and field.datum.shape == (0,)


def test_build_field_frame_gives_its_dimensions_as_lanes():
    values = np.random.default_rng(4).uniform(-1.0, 1.0, size=(27, 4))
    field = build_field(values)
    stacked = build_field(values[None])
    expected = build_field_oracle(values)
    assert field.borda.shape == (4, 27) and field.margin_zeroed.shape == (4, 27, 27)
    for f in dataclasses.fields(NormalizedField):
        got = getattr(field, f.name)
        assert got.tobytes() == getattr(stacked, f.name).tobytes(), f.name
        assert got.tobytes() == getattr(expected, f.name).tobytes(), f.name


def test_build_field_rejects_unequal_frames():
    with pytest.raises(ContractViolation) as info:
        build_field([np.zeros((9, 2)), np.zeros((27, 2))])
    assert isinstance(info.value, DdpError)
    with pytest.raises(ContractViolation):
        build_field(np.zeros(9))


def test_build_field_reuses_its_pages():
    """Each thread's block temporaries are one scratch per call, not fresh
    arrays per block, so repeated calls touch no new pages."""
    resource = pytest.importorskip("resource")
    values = np.random.default_rng(16).uniform(-1.0, 1.0, (10, 81, 4))
    build_field(values)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(10):
        build_field(values)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    if faults == 0 and before == 0:
        pytest.skip("this platform does not count minor page faults")
    assert faults < 200


def test_build_field_working_set_is_bounded():
    # the unblocked kernel peaks near 40 MB here: a dozen float temporaries
    # over all N(N-1)/2 pairs plus the full-triangle index arrays
    values = np.random.default_rng(5).uniform(-1.0, 1.0, size=(729, 4))
    tracemalloc.start()
    try:
        build_field(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
