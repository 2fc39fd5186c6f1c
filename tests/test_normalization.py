import dataclasses
import re
import sys
import threading
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


def _count_worker_lanes(mp):
    handed = []

    class Counting(normalization._MarginsWorker):
        def submit(self, margins):
            if margins is not None:
                handed.append(margins)
            super().submit(margins)

    mp.setattr(normalization, "_MarginsWorker", Counting)
    return handed


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n, block_cells", [(190, 1 << 16), (28, 512)])
def test_build_field_margins_worker_matches_per_frame_oracle(cpus, n, block_cells):
    """Lanes past one block go one at a time; with two CPUs a worker thread
    sums each lane's margins while the next lane's datum is fitted."""
    rng = np.random.default_rng(12)
    stack = np.stack([
        _descending_column(rng, n, 3),
        rng.normal(0.0, 1.0, (n, 3)),
        rng.integers(-2, 3, (n, 3)).astype(float),
    ])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_usable_cpus", lambda: cpus)
        handed = _count_worker_lanes(mp)
        field = _assert_stack_matches_per_frame_oracle(stack, 0.3, block_cells)
    assert len(handed) == (field.n_dims if cpus == 2 else 0)
    assert field.unfittable.any() and field.margin_zeroed.any()


def test_build_field_grouped_lanes_start_no_worker():
    values = np.random.default_rng(2).uniform(-1.0, 1.0, (4, 81, 4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_usable_cpus", lambda: 2)
        handed = _count_worker_lanes(mp)
        build_field(values)
    assert handed == []


def test_build_field_from_several_threads_at_once():
    """Four callers, each with its own margins worker, under a short switch
    interval give the fields of one caller with both passes inline."""
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


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("target", ["_fit_datum", "_sum_margins"])
@pytest.mark.parametrize("failing_call", [2, 4])
def test_build_field_raises_a_pass_error_and_leaves_no_thread(cpus, target, failing_call):
    stack = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 40, 2))   # 4 lanes
    original = getattr(normalization, target)
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == failing_call:
            raise _Injected(target)
        return original(*args)

    before = threading.active_count()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(normalization, "_BLOCK_CELLS", 512)
        mp.setattr(normalization, "_usable_cpus", lambda: cpus)
        mp.setattr(normalization, target, failing)
        with pytest.raises(_Injected, match=target):
            build_field(stack)
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2])
def test_build_field_errstate_applies_on_both_threads(cpus):
    values = np.random.default_rng(8).uniform(-1.0, 1.0, (2, 40, 2))
    values[0, :2, 1] = [np.inf, np.nan]   # lane 1: the margin pass meets inf - inf
    values[1, 5, 0] = -np.inf              # lane 2: the datum pass does
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        mp.setattr(normalization, "_BLOCK_CELLS", 512)
        mp.setattr(normalization, "_usable_cpus", lambda: cpus)
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            field = build_field(values)
        with pytest.raises(RuntimeWarning, match="invalid value"):
            build_field(values[:1])   # lane 1's margins alone warn without errstate
    assert np.isfinite(field.datum[1]) and not np.isfinite(field.datum[2])


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
