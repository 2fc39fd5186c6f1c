import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddp import Convergence, ContractViolation, solve_roots
from ddp.curvature import curvature_tensor, median
from ddp.lengthscale import SENTINEL_THRESHOLD, branch_layout

from oracles import (
    _sign_table_oracle,
    curvature_full_oracle,
    diagonal_root_oracle,
    diagonal_roots,
    enumerate_roots,
    refine_roots_oracle,
    solve_roots_full_oracle,
)


def test_diagonal_simple():
    root = diagonal_roots(4.0, 1.0)
    assert root.magnitude == pytest.approx(2.0)
    assert not root.sentinel


def test_diagonal_sentinel_on_zero_change():
    root = diagonal_roots(3.0, 0.0)
    assert root.sentinel
    assert math.isinf(root.magnitude)


def test_diagonal_negative_ratio_keeps_magnitude():
    root = diagonal_roots(2.0, -8.0)
    assert root.magnitude == pytest.approx(0.5)


def test_diagonal_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(200):
        r = rng.uniform(1.0, 81.0)
        dh = rng.normal(0, 2.0)
        expected = diagonal_root_oracle(r, dh)
        got = diagonal_roots(r, dh).magnitude
        if math.isinf(expected):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(expected, rel=1e-10)


def test_diagonal_closed_form_balance():
    rng = np.random.default_rng(1)
    for _ in range(200):
        r = rng.uniform(1.0, 50.0)
        dh = rng.uniform(0.01, 5.0)  # positive ratio branch
        x = diagonal_roots(r, dh).magnitude
        assert x * x * dh == pytest.approx(r, rel=1e-10)


@pytest.mark.parametrize("d,expected", [(1, 2), (2, 4), (3, 8), (4, 16)])
def test_root_count_law(d, expected):
    rng = np.random.default_rng(d)
    point = enumerate_roots(rng.uniform(1, 9, d), rng.normal(0, 1, d))
    assert point.vectors.shape == (expected, d)
    assert point.convergence.shape == (expected,)


def test_sign_flip_closure_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        r = rng.uniform(1.0, 20.0, 4)
        dh = rng.normal(0, 1.0, 4)
        dh[np.abs(dh) < 1e-6] = 1e-3  # keep every dimension finite
        point = enumerate_roots(r, dh)
        vectors = point.vectors
        n = vectors.shape[0]
        for i in range(n):
            partner = i ^ (n - 1)  # the index with every sign bit flipped
            assert np.array_equal(vectors[partner], -vectors[i])


def test_all_sentinel_point():
    point = enumerate_roots(np.array([1.0, 2.0]), np.zeros(2))
    assert np.all(point.sentinel)
    assert np.all(np.isinf(point.vectors))
    assert np.all(point.convergence == Convergence.CLOSED_FORM)


def test_mixed_sentinel_dimension():
    point = enumerate_roots(np.array([4.0, 2.0]), np.array([1.0, 0.0]))
    assert not point.sentinel[0] and point.sentinel[1]
    assert np.all(np.isinf(point.vectors[:, 1]))
    assert np.all(np.isfinite(point.vectors[:, 0]))


def test_negative_ratio_roots_keep_magnitude():
    # R/dH = -1/4: the refined root -1/2 carries the sign, both branches |x| = 1/2
    point = enumerate_roots(np.array([2.0]), np.array([-8.0]))
    assert point.convergence.tolist() == [Convergence.REFINED] * 2
    assert point.vectors[:, 0] == pytest.approx([-0.5, 0.5], rel=1e-15)


def test_convergence_labels_are_paired():
    rng = np.random.default_rng(3)
    r = rng.uniform(1, 81, (4, 30))
    dh = rng.normal(0, 1, (4, 30))
    batch = solve_roots(r, dh)
    n_roots = batch.convergence.shape[1]
    for i in range(n_roots):
        j = i ^ (n_roots - 1)
        np.testing.assert_array_equal(batch.convergence[:, i], batch.convergence[:, j])
    assert set(np.unique(batch.convergence)) <= {0, 1, 2}


def test_batch_and_per_point_agree():
    rng = np.random.default_rng(9)
    r = rng.uniform(1, 9, (3, 8))
    dh = rng.normal(0, 1, (3, 8))
    batch = solve_roots(r, dh)
    for a in range(8):
        point = enumerate_roots(r[:, a], dh[:, a])
        np.testing.assert_array_equal(point.vectors, batch.expand()[a])
        np.testing.assert_array_equal(point.convergence, batch.convergence[a])


def test_refined_branches_are_plus_minus_oracle_root():
    # With f >= 3 finite dimensions the coupled balance has one root x*:
    # every refined branch holds x* (first sign +) or -x*, and the damped
    # iteration converges to the same vector from every branch.
    rng = np.random.default_rng(11)
    for d in (3, 4, 5):
        r = rng.uniform(1.0, 81.0, (d, 400))
        dh = rng.normal(0.0, 1.0, (d, 400))
        batch = solve_roots(r, dh)
        oracle = refine_roots_oracle(r, dh)
        vectors = batch.expand()
        refined = batch.convergence == Convergence.REFINED
        assert refined.any()
        first_sign = np.where(np.arange(2 ** d) % 2 == 0, 1.0, -1.0)
        plus_minus = first_sign[None, :, None] * vectors[:, :1, :]
        np.testing.assert_array_equal(vectors[refined], plus_minus[refined])
        assert np.all(oracle.convergence[refined] == Convergence.REFINED)
        np.testing.assert_allclose(vectors[refined], oracle.expand()[refined], rtol=1e-9, atol=0)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_labels_match_oracle_with_sentinels(d):
    # the iteration is the reference where the fixed point is unique
    # (f >= 3) and where no coupling applies; f <= 2 is tested on its own
    rng = np.random.default_rng(20 + d)
    r = rng.uniform(1.0, 81.0, (d, 1500))
    dh = rng.normal(0.0, 1.0, (d, 1500))
    dh[rng.random(dh.shape) < 0.2] = 0.0  # sprinkle sentinels
    batch = solve_roots(r, dh)
    oracle = refine_roots_oracle(r, dh)
    f = (~batch.sentinel).sum(axis=1)
    unique = (f == 0) | (f >= 3)
    np.testing.assert_array_equal(batch.convergence[unique], oracle.convergence[unique])
    assert Convergence.REFINED in batch.convergence[unique]
    # closed-form and fallback roots are the signed diagonal on both routes
    not_refined = (batch.convergence != Convergence.REFINED) & unique[:, None]
    np.testing.assert_array_equal(batch.expand()[not_refined], oracle.expand()[not_refined])


def test_ill_conditioned_labels_match_oracle():
    # |dH| spread over twelve decades per dimension: the iteration needs a
    # long budget to settle, the closed form does not
    rng = np.random.default_rng(31)
    r = rng.uniform(1.0, 81.0, (3, 2000))
    dh = rng.choice([-1.0, 1.0], (3, 2000)) * 10.0 ** rng.uniform(-10.0, 2.0, (3, 2000))
    batch = solve_roots(r, dh)
    slow = refine_roots_oracle(r, dh, max_iter=2000)
    np.testing.assert_array_equal(batch.convergence, slow.convergence)
    # at the default budget the iteration can only run out of steps, which
    # it reports as a fallback where the closed form finds x*
    short = refine_roots_oracle(r, dh)
    differ = batch.convergence != short.convergence
    assert np.all(short.convergence[differ] == Convergence.FALLBACK)
    assert np.all(batch.convergence[differ] == Convergence.REFINED)


def test_d2_generic_points_always_fall_back():
    # two finite dimensions make the log-space system singular
    rng = np.random.default_rng(41)
    r = rng.uniform(1.0, 81.0, (2, 2000))
    dh = rng.normal(0.0, 1.0, (2, 2000))
    batch = solve_roots(r, dh)
    assert np.all(batch.convergence == Convergence.FALLBACK)


@pytest.mark.parametrize("dh", [[1.0, 1.0], [1.0, 3.0], [-2.0, 7.0], [0.5, -4.0]])
def test_d2_equal_ranks_fall_back_to_the_diagonal(dh):
    # |R1| = |R2| gives |c1| = |c2|: the singular system then has a whole
    # line of fixed points, and no one of them is the root
    r = np.array([[5.0], [5.0]])
    dh = np.array(dh)[:, None]
    batch = solve_roots(r, dh)
    assert np.all(batch.convergence == Convergence.FALLBACK)
    magnitude = np.sqrt(np.abs(r[:, 0] / dh[:, 0]))
    np.testing.assert_array_equal(batch.x[0], magnitude)
    np.testing.assert_array_equal(batch.expand()[0], branch_layout(2) * magnitude)


def test_d1_roots_are_signed_square_roots():
    # one finite dimension: z|z| = R/dH has the single root sign(c) sqrt|c|,
    # whatever the sign of the ratio
    rng = np.random.default_rng(42)
    r = rng.uniform(1.0, 81.0, (1, 4000))
    dh = rng.normal(0.0, 1.0, (1, 4000))
    batch = solve_roots(r, dh)
    assert np.all(batch.convergence == Convergence.REFINED)
    ratio = r[0] / dh[0]
    assert (ratio < 0.0).any()
    np.testing.assert_allclose(
        batch.x[:, 0], np.sign(ratio) * np.sqrt(np.abs(ratio)), rtol=1e-15, atol=0
    )


def test_fallback_restores_diagonal():
    # two finite dimensions have no coupled root: the signed diagonal stays
    point = enumerate_roots(np.array([4.0, 9.0]), np.array([1.0, -3.0]))
    assert np.all(point.convergence == Convergence.FALLBACK)
    np.testing.assert_array_equal(np.abs(point.vectors), np.broadcast_to([2.0, np.sqrt(3.0)], (4, 2)))


@given(
    d=st.integers(1, 5),
    n=st.integers(1, 80),
    sentinel_rate=st.sampled_from([0.0, 0.3, 0.6]),
    n_ranks=st.integers(1, 9),
    half=st.booleans(),
    scale=st.sampled_from([1.0, 1e-305, 1e305]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_every_point_takes_one_closed_form_root(d, n, sentinel_rate, n_ranks, half, scale, seed):
    """Per point: one |x| on all 2**D expanded branches, and the label its f gives.

    Ranks are integers or halves from a short range, so equal ranks (the
    singular f = 2 case with a line of fixed points) are common; Borda
    changes are signed integers or halves, so zero sums are too.  Scaling
    the ranks by 1e-305 or 1e305 puts every f = 1 root out of range, and
    scale 1 keeps every one in range.
    """
    rng = np.random.default_rng(seed)
    r = scale * rng.integers(1, n_ranks + 1, (d, n)) / (2.0 if half else 1.0)
    dh = rng.integers(-6, 7, (d, n)) / (2.0 if half else 1.0)
    dh[rng.random((d, n)) < sentinel_rate] = 0.0
    got = solve_roots(r, dh)
    mag = np.abs(got.expand())
    assert mag.tobytes() == np.broadcast_to(np.abs(got.x)[:, None, :], mag.shape).tobytes()
    assert got.label.shape == (n,) and got.x.shape == (n, d)

    label = got.label
    f = (~got.sentinel).sum(axis=1)
    refinable = (np.abs((4.0 / d) * dh.sum(axis=0)) >= SENTINEL_THRESHOLD) & (f > 0)
    assert np.all(label[~refinable] == Convergence.CLOSED_FORM)
    assert np.all(label[refinable & (f == 2)] == Convergence.FALLBACK)
    one = refinable & (f == 1)
    assert np.all(label[one] == (Convergence.REFINED if scale == 1.0 else Convergence.FALLBACK))

    oracle = refine_roots_oracle(r, dh)
    converged = one[:, None] & (oracle.convergence == Convergence.REFINED)
    cells = converged[:, :, None] & ~got.sentinel[:, None, :]
    np.testing.assert_allclose(got.expand()[cells], oracle.expand()[cells], rtol=1e-12, atol=0)


def test_solve_roots_shape_mismatch_is_contract_violation():
    with pytest.raises(ContractViolation, match="share a shape"):
        solve_roots(np.ones((4, 9)), np.ones((4, 8)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_branch_layout_pairs_each_index_with_its_negation(d):
    sigma = branch_layout(d)
    idx, sigma_all = _sign_table_oracle(d)
    np.testing.assert_array_equal(sigma, sigma_all)
    np.testing.assert_array_equal(sigma[idx ^ (2 ** d - 1)], -sigma)


@given(
    d=st.integers(1, 5),
    n=st.integers(1, 60),
    sentinel_rate=st.sampled_from([0.0, 0.3, 0.7]),
    decades=st.integers(0, 14),
    r_spread=st.sampled_from([0.0, 300.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_expand_matches_full_layout_oracle(d, n, sentinel_rate, decades, r_spread, seed):
    """One vector and one label per point rebuild the full layout bit for bit.

    Sentinels leave points with f <= 2 finite dimensions at every D,
    signed dH gives negative ratios, and R and dH spread over many decades
    reach fallbacks out of range.  |x|, kappa and their medians over
    points equal the medians over all 2**D branches of the full layout.
    """
    rng = np.random.default_rng(seed)
    r = rng.uniform(1.0, 81.0, (d, n)) * 10.0 ** rng.uniform(-r_spread, r_spread, (d, n))
    dh = rng.normal(0.0, 1.0, (d, n)) * 10.0 ** rng.uniform(-decades, 0.0, (d, n))
    dh[rng.random((d, n)) < sentinel_rate] = 0.0
    with np.errstate(all="ignore"):
        got = solve_roots(r, dh)
        want = solve_roots_full_oracle(r, dh)
    assert got.x.shape == (n, d) and got.label.shape == (n,)
    assert got.convergence.tobytes() == want.convergence.tobytes()
    assert got.expand().tobytes() == want.roots.tobytes()
    assert got.sentinel.tobytes() == want.sentinel.tobytes()

    assert np.abs(got.x).tobytes() == np.median(np.abs(want.roots), axis=1).tobytes()
    with np.errstate(all="ignore"):
        kappa = curvature_tensor(dh, got)
        kappa_full = curvature_full_oracle(dh, want)
    assert np.broadcast_to(kappa[:, None, :], kappa_full.shape).tobytes() == kappa_full.tobytes()
    pooled = median(kappa, axis=0)
    assert pooled.tobytes() == np.median(kappa_full, axis=(0, 1)).tobytes()
