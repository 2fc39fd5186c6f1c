import collections
import contextlib
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
from hypothesis import event, given, settings
from hypothesis import strategies as st

import ddp.normalization as normalization
from ddp import (
    ContractViolation,
    Dataset,
    DdpError,
    NormalizedField,
    PipelineConfig,
    analyze_dataset,
    build_field,
    pair_margins,
    prescale_burst,
    synthesize,
)
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


@pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3, 4)])
def test_pair_kernels_take_empty_inputs(shape):
    """No pair gives empty results of the broadcast shape, with or without a scratch."""
    u = np.empty(shape)
    for scratch in (None, normalization.Scratch(0)):
        m, ok = pair_constants(u, u, scratch=scratch)
        margins, zeroed = pair_margins(u, u, 0.0, scratch=scratch)
        assert m.shape == ok.shape == margins.shape == zeroed.shape == shape
        assert ok.dtype == zeroed.dtype == bool


def _ulps(x, k):
    """x moved k floats up (k > 0) or down."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return x


def _least_one_root_lo(hi):
    """About the least lo at which a lane of greatest value hi passes the
    one-root check: the fixed point of lo = S1max(lo, hi) / 2, a contraction."""
    lo = np.float64(hi)
    for _ in range(80):
        lo = (1.0 + np.sqrt((lo - hi) * -4.0 + 1.0)) * 0.5 / 2
    return lo


@st.composite
def _lanes_at_the_one_root_bound(draw):
    """A lane whose least value is a few floats either side of the bound.

    Flat lanes (every pair's difference 0) sit near the bound lo = 0.5, and
    lanes wide enough hold a pair whose difference is exactly 0.25, the one
    real root r = 0.
    """
    k = draw(st.integers(-4, 4), label="ulps")
    if draw(st.booleans(), label="flat"):
        return [_ulps(np.float64(0.5), k)] * draw(st.integers(2, 5))
    hi = np.float64(draw(st.floats(0.5, 1e6)))
    lo = min(_ulps(_least_one_root_lo(hi), k), hi)
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=10))
    lane = [lo, hi, *(min(lo + t * (hi - lo), hi) for t in inner)]
    quarter = np.ceil(lo * 4) / 4   # a multiple of 1/4, so q + 0.25 - q is exact
    if quarter + 0.25 <= hi:
        lane += [quarter, quarter + 0.25]
    return draw(st.permutations(lane))


@given(lane=_lanes_at_the_one_root_bound(), epsilon=st.sampled_from([1e-9, 0.3, 0.4999]))
@settings(max_examples=400, deadline=None)
def test_larger_root_kernel_matches_pair_constants_where_the_lane_check_passes(lane, epsilon):
    u = np.array(lane)
    passes = bool(normalization._one_root_lanes(u.min(), u.max(), epsilon))
    event("lane check passes" if passes else "lane check fails")
    if not passes:
        return
    m, ok = normalization._larger_root_constants(u[:, None], u[None, :], epsilon, normalization.Scratch(u.size ** 2))
    want_m, want_ok = pair_constants(u[:, None], u[None, :], epsilon)
    np.testing.assert_array_equal(ok, want_ok)
    assert m[ok].tobytes() == want_m[want_ok].tobytes()


def test_one_root_bound_strategy_reaches_both_sides():
    for hi in (0.7, 1.0, 3.3, 1e6):
        lo = _least_one_root_lo(hi)
        assert normalization._one_root_lanes(_ulps(lo, 4), hi, 1e-9)
        assert not normalization._one_root_lanes(_ulps(lo, -4), hi, 1e-9)


@pytest.mark.parametrize("lane, epsilon", [
    ([np.nan, 0.9, 1.0], 1e-9),
    ([0.9, 1.0, np.nan], 1e-9),
    ([0.9, 1.0, np.inf], 1e-9),
    ([-np.inf, 0.9, 1.0], 1e-9),
    ([0.8e308, 1e308], 1e-9),    # 2hi overflows
    ([0.9, 1.0], 0.5),
    ([0.9, 1.0], np.nan),
    ([-0.1, 0.9, 1.0], 1e-9),    # crosses zero
    ([0.2, 0.25], 1e-9),         # positive, but pair sums below 1/2 let m2 win
])
def test_one_root_lane_check_rejects(lane, epsilon):
    u = np.array(lane)
    assert not normalization._one_root_lanes(u.min(), u.max(), epsilon)


def test_one_root_lane_check_rejects_a_lane_whose_pair_sum_overflows():
    """Without the finite-2hi test the kernel would admit the pair (hi, hi),
    whose constant is -inf."""
    u = np.array([0.8e308, 1e308])
    assert normalization._one_root_lanes(np.float64(0.8e308), np.float64(0.85e308), 1e-9)
    with np.errstate(over="ignore", invalid="ignore"):
        m, ok = normalization._larger_root_constants(u[:, None], u[None, :], 1e-9, normalization.Scratch(4))
        _, want_ok = pair_constants(u[:, None], u[None, :], 1e-9)
    assert ok[1, 1] and m[1, 1] == -np.inf and not want_ok[1, 1]


@given(
    lane=_lanes_at_the_one_root_bound(),
    epsilon=st.sampled_from([1e-9, 0.3, 0.4999, 2.0]),
    side=st.sampled_from([-1.0, 1.0]),
    k=st.integers(-4, 4),
)
@settings(max_examples=200, deadline=None)
def test_margins_of_lanes_outside_the_guard_band_zero_none(lane, epsilon, side, k):
    """A datum a few floats from where the lane's lowest (or highest)
    denominator meets the band's edge: outside it, no margin is zeroed."""
    u = np.array(lane) * side
    two_lo, two_hi = u.min() * 2, u.max() * 2
    edge = two_lo if side > 0 else two_hi
    m_bar = _ulps((side * epsilon - edge) / 2, k)
    with np.errstate(over="ignore"):
        outside = bool(normalization._outside_guard(two_lo, two_hi, m_bar, epsilon))
    event("outside the band" if outside else "meets the band")
    if outside:
        _, zeroed = pair_margins(u[:, None], u[None, :], m_bar, epsilon)
        assert not zeroed.any()


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


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 9, 27, 81])
@pytest.mark.parametrize("group", [2, 3, None])
@pytest.mark.parametrize("epsilon", [1e-9, 0.5, 0.75])
def test_build_field_grouped_lanes_match_per_frame_oracle(cpus, n, group, epsilon):
    """Lanes whose whole triangles fit one block go together, each triangle
    gathered pair by pair, at the served shapes and on tiny triangles.

    ``group`` patches the block so that it holds that many triangles (None
    keeps the default).  From an epsilon of 0.5 on, the root s1 >= 0.5
    can fail the guard too.  Uniform values leave the lanes' admitted
    counts ragged, and at N = 2 most lanes unfittable.
    """
    stack = np.random.default_rng(n).uniform(-1.0, 1.0, (10, n, 4))
    block_cells = normalization._BLOCK_CELLS if group is None else group * (n - 1) ** 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_usable_cpus", lambda: cpus)
        calls = _record_tasks(mp)
        field = _assert_stack_matches_per_frame_oracle(stack, epsilon, block_cells)
    lanes = field.n_dims
    per_group = block_cells // (n - 1) ** 2
    assert per_group > 1
    kinds = collections.Counter(k for k, _ in calls)
    assert kinds["_group_stats"] == kinds["_fit_datum"] == -(-lanes // per_group)   # one block a group
    assert {t for _, t in calls} == {threading.current_thread()}


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [9, 27, 81])
def test_build_field_grouped_lane_holding_inf_matches_oracle(cpus, n):
    """A grouped lane's pairs with an infinite value are excluded from its
    datum, whichever group and block position the lane takes."""
    stack = np.random.default_rng(30 + n).uniform(-1.0, 1.0, (10, n, 4))
    stack[3, 5, 1] = np.inf
    stack[6, 0, 2] = -np.inf
    stack[6, n - 1, 3] = np.inf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_usable_cpus", lambda: cpus)
        field = _assert_stack_matches_per_frame_oracle(stack, 1e-9, normalization._BLOCK_CELLS)
    infinite = [3 * 4 + 1, 6 * 4 + 2, 6 * 4 + 3]
    assert np.isfinite(field.datum[infinite]).all()
    assert (field.fit_excluded_fraction[infinite] > 0.0).all()
    assert np.isnan(field.borda[infinite]).any(axis=1).all()


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
    into several of them, so a block whose constants were not moved down
    to follow the block before would change the means of the lanes."""
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
    blocks finish; each still writes at its own offset of the pool."""
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
    of them.  A group's stats run on the thread that writes the group's
    last block, so for the stats the chosen thread is the one that
    pauses.  It raises only after a pause long enough for the other thread
    to wait on the group it holds.  Each attempt must raise or finish, and
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


@contextlib.contextmanager
def _caller_bufsize(size):
    """Run the body at numpy's ufunc buffer ``size`` (None: leave it), then set the old size back."""
    old = np.getbufsize() if size is None else np.setbufsize(size)
    try:
        yield old if size is None else size
    finally:
        np.setbufsize(old)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("size", [16, 4096])
def test_build_field_restores_the_callers_ufunc_buffer(cpus, size):
    """Every task runs at ``_BUFSIZE``, on either thread, and the caller
    gets its own buffer size back."""
    values = np.random.default_rng(8).uniform(-1.0, 1.0, (2, 40, 2))
    seen = []
    with pytest.MonkeyPatch.context() as mp, _caller_bufsize(size):
        mp.setattr(normalization, "_BLOCK_CELLS", 512)
        mp.setattr(normalization, "_usable_cpus", lambda: cpus)
        drains = _record_drains(mp)
        _record_tasks(mp, before=lambda kind: seen.append(np.getbufsize()))
        build_field(values)
        assert np.getbufsize() == size
    assert len(set(drains)) == cpus
    assert seen and set(seen) == {normalization._BUFSIZE}


@pytest.mark.parametrize("cpus, on_worker", [(1, False), (2, False), (2, True)])
def test_build_field_restores_the_callers_ufunc_buffer_when_a_task_raises(cpus, on_worker):
    """The first task on the chosen thread raises; the other thread pauses
    before each task, so the chosen one runs some."""
    values = np.random.default_rng(8).uniform(-1.0, 1.0, (2, 40, 2))
    fired = []

    def fail(kind):
        if (threading.current_thread().name == "ddp-normalize") == on_worker:
            fired.append(kind)
            raise _Injected(kind)
        time.sleep(2e-3)

    with pytest.MonkeyPatch.context() as mp, _caller_bufsize(16):
        mp.setattr(normalization, "_BLOCK_CELLS", 512)
        mp.setattr(normalization, "_usable_cpus", lambda: cpus)
        _record_tasks(mp, before=fail)
        for _ in range(20):
            try:
                build_field(values)
            except _Injected:
                break
            finally:
                assert np.getbufsize() == 16
    assert len(fired) == 1


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("size", [16, None, 1 << 20])
def test_build_field_bits_do_not_depend_on_the_callers_ufunc_buffer(cpus, size):
    """The buffer changes only how fast the passes run: whatever size the
    caller set, every field matches the oracle bit for bit.

    Small blocks send the 81-point lanes through bands.  The collapsing
    lane of a ``burst`` subject takes the general kernel and keeps the
    zeroed-margin mask, and the integer frame zeroes margins.
    """
    config = PipelineConfig(seed=7)
    dataset = synthesize("burst", config, n_bursts=8, n_subjects=1)
    (sid,) = dataset.subjects()
    collapse = dataset.metadata[sid].injection.burst_index
    burst = prescale_burst(dataset.bursts_for(sid)[collapse])[0].values
    stack = np.stack([burst, np.random.default_rng(9).integers(-2, 3, burst.shape).astype(float)])
    with pytest.MonkeyPatch.context() as mp, _caller_bufsize(size) as caller:
        mp.setattr(normalization, "_usable_cpus", lambda: cpus)
        blocks, masks = _record_kernel_choices(mp)
        field = _assert_stack_matches_per_frame_oracle(stack, 0.3, 2048)
        assert np.getbufsize() == caller
    assert len(blocks) > field.n_dims   # lanes one at a time, in bands of rows
    assert masks and field.margin_zeroed.any()
    assert {kernel for _, _, kernel in blocks} == {"pair_constants", "_larger_root_constants"}


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


def _record_kernel_choices(mp):
    """Wrap ``_fit_datum``, both pair-constant kernels and ``pair_margins``.

    Returns the (points, lanes, kernel name) of every datum block and the
    list that gets one entry per ``pair_margins`` call.
    """
    blocks, masks = [], []
    current = threading.local()
    fit_datum = normalization._fit_datum

    def recorded_fit(s, scratch, index, part, i0, i1):
        current.block = (s.u.shape[1], range(part.start, part.stop))
        fit_datum(s, scratch, index, part, i0, i1)

    mp.setattr(normalization, "_fit_datum", recorded_fit)
    for name in ("pair_constants", "_larger_root_constants"):
        def recorded(*args, name=name, kernel=getattr(normalization, name)):
            blocks.append((*current.block, name))
            return kernel(*args)

        mp.setattr(normalization, name, recorded)

    def recorded_margins(*args, margins=normalization.pair_margins):
        masks.append(args[0].shape)
        return margins(*args)

    mp.setattr(normalization, "pair_margins", recorded_margins)
    return blocks, masks


@pytest.mark.parametrize("n, n_bursts, n_subjects", [(81, 10, 64), (2187, 4, 2)])
def test_stable_subjects_take_the_larger_root_kernel_and_no_margin_mask(n, n_bursts, n_subjects):
    """Every group of every zoom level of the seed-7 ``cohort_stable`` and
    ``wide_frame`` subjects (benchmarks/workloads.py) passes both bounds:
    their prescaled lanes are positive and swing less than about 36%."""
    config = PipelineConfig(N=n, seed=7)
    dataset = synthesize("stable", config, n_bursts=n_bursts, n_subjects=n_subjects)
    with pytest.MonkeyPatch.context() as mp:
        blocks, masks = _record_kernel_choices(mp)
        analyze_dataset(dataset, config)
    assert {points for points, _, _ in blocks} == set(config.zoom_point_counts())
    assert {kernel for _, _, kernel in blocks} == {"_larger_root_constants"}
    assert masks == []


def test_a_burst_collapse_lane_takes_the_general_kernel():
    """The burst whose dimension collapses mid-way holds full and 5% values:
    its lane's group takes ``pair_constants`` at every level, and every
    other group, the fully collapsed bursts after it included, the
    one-root kernel."""
    config = PipelineConfig(seed=7)
    dataset = synthesize("burst", config, n_bursts=8, n_subjects=4)
    for sid in dataset.subjects():
        injection = dataset.metadata[sid].injection
        collapse = injection.burst_index * config.D + injection.dimension
        subject = Dataset(bursts=dataset.bursts_for(sid), metadata={sid: dataset.metadata[sid]})
        with pytest.MonkeyPatch.context() as mp:
            blocks, _ = _record_kernel_choices(mp)
            analyze_dataset(subject, config)
        general = {points for points, lanes, kernel in blocks if kernel == "pair_constants"}
        assert general == set(config.zoom_point_counts())
        for points, lanes, kernel in blocks:
            assert (kernel == "pair_constants") == (collapse in lanes), (sid, points, lanes)


def test_build_field_reuses_its_pages():
    """Each thread's block temporaries, the gathered triangle operands
    included, are one scratch per call, not fresh arrays per block, so
    repeated calls touch no new pages, at each zoom level's shape."""
    resource = pytest.importorskip("resource")
    for n in (81, 27, 9):
        values = np.random.default_rng(16).uniform(-1.0, 1.0, (10, n, 4))
        build_field(values)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(10):
            build_field(values)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        if faults == 0 and before == 0:
            pytest.skip("this platform does not count minor page faults")
        assert faults < 200, n


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
