import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddp import (
    BordaState,
    ContractViolation,
    borda_state,
    build_field,
    delta_borda,
    objective_ranks,
    pair_margins,
)

from oracles import borda_oracle, rank_oracle

values_strategy = st.lists(
    st.floats(min_value=0.3, max_value=1.0, allow_nan=False), min_size=3, max_size=12
)


def test_borda_counts_three_point_example():
    u = np.array([1.0, 2.0, 4.0])
    margins, _ = pair_margins(u[:, None], u[None, :], 0.0)
    h = margins.sum(axis=1)
    np.testing.assert_allclose(h, [-14.0 / 15.0, 0.0, 14.0 / 15.0], rtol=1e-12)
    np.testing.assert_allclose(h, borda_oracle([1.0, 2.0, 4.0], 0.0), rtol=1e-12)


def test_borda_counts_equal_values_are_zero():
    assert np.all(build_field(np.full((6, 2), 0.4)).borda == 0.0)


@given(values_strategy)
@settings(max_examples=80, deadline=None)
def test_borda_zero_sum(us):
    field = build_field(np.array(us)[:, None])
    if field.unfittable[0]:
        return
    h = field.borda[0]
    assert abs(h.sum()) < 1e-9


@given(values_strategy)
@settings(max_examples=60, deadline=None)
def test_borda_matches_loop_oracle(us):
    field = build_field(np.array(us)[:, None])
    if field.unfittable[0]:
        return
    h = field.borda[0]
    expected = np.array(borda_oracle(us, field.datum[0]))
    # the oracle does not zero guarded denominators; skip if one appears
    if field.margin_zeroed[0].any():
        return
    np.testing.assert_allclose(h, expected, rtol=1e-10, atol=1e-12)


def test_objective_ranks_strict_order():
    np.testing.assert_array_equal(
        objective_ranks(np.array([-14 / 15, 0.0, 14 / 15])), [1.0, 2.0, 3.0]
    )


def test_objective_ranks_tie_average():
    np.testing.assert_array_equal(objective_ranks(np.array([0.0, 0.0])), [1.5, 1.5])


@given(st.lists(st.integers(-800, 800), min_size=2, max_size=15))
@settings(max_examples=80, deadline=None)
def test_objective_ranks_monotone_invariance(eighths):
    # dyadic rationals keep both transforms exact in floating point
    h = np.array(eighths, dtype=float) / 8.0
    base = objective_ranks(h)
    np.testing.assert_array_equal(base, objective_ranks(2.0 * h + 3.0))
    np.testing.assert_array_equal(base, objective_ranks(h ** 3))


@given(st.integers(2, 15).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=1, max_size=4)
))
@settings(max_examples=80, deadline=None)
def test_objective_ranks_match_sort_oracle(rows):
    # few distinct values: ties are the common case; each row ranks on its own
    h = np.array(rows, dtype=float)
    expected = np.array([rank_oracle(row) for row in rows])
    np.testing.assert_array_equal(objective_ranks(h), expected)
    np.testing.assert_array_equal(objective_ranks(h[0]), expected[0])


def _state(h):
    h = np.asarray(h, dtype=float)
    r = np.vstack([objective_ranks(row) for row in h])
    return BordaState(H=h, R=r)


def test_delta_borda_identity_is_zero():
    s = _state([[1.0, -1.0], [0.25, -0.25]])
    assert np.all(delta_borda(s, s) == 0.0)


def test_delta_borda_elementwise():
    cur = _state([[1.0, -1.0]])
    prev = _state([[0.5, -0.5]])
    np.testing.assert_allclose(delta_borda(cur, prev), [[0.5, -0.5]])


def test_delta_borda_zero_sum_preserved():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 7))
    a -= a.mean(axis=1, keepdims=True)
    b = rng.normal(size=(3, 7))
    b -= b.mean(axis=1, keepdims=True)
    dh = delta_borda(_state(a), _state(b))
    np.testing.assert_allclose(dh.sum(axis=1), 0.0, atol=1e-12)


def test_delta_borda_shape_mismatch():
    with pytest.raises(ContractViolation):
        delta_borda(_state([[1.0, 2.0]]), _state([[1.0, 2.0, 3.0]]))


def test_borda_state_rank_rows():
    field = build_field(np.array([[0.5], [0.6], [0.7]]))
    state = borda_state(field)
    assert state.H is field.borda
    assert state.R.shape == state.H.shape
    assert sorted(state.R[0]) == [1.0, 2.0, 3.0]
