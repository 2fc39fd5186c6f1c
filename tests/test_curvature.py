import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddp import (
    Chain,
    ContractViolation,
    Convergence,
    detect_chains,
    escalate_chain_categories,
    update_thresholds,
)
from ddp.curvature import classify_frame, curvature_tensor, median
from ddp.lengthscale import LengthScaleRoots

from oracles import (
    ThresholdHistory,
    chains_oracle,
    curvature_full_oracle,
    local_curvature,
    slice_roots,
    update_thresholds_oracle,
)


@dataclass
class PdiRecord:
    """Point-level classification with per-dimension breakdown flags."""

    category: int
    short_unstable: np.ndarray  # (D,) bool
    long_unstable: np.ndarray   # (D,) bool
    mode_mixity_controllable: bool = False
    mixed_disjoint: bool = False


def classify_pdi(kappa_per_dim, thresholds, dh_vector) -> PdiRecord:
    """Classify one point through ``classify_frame``.

    kappa_per_dim: (D,) per-dimension curvature (median across roots).
    thresholds: (kappa_short, kappa_long) arrays of shape (D,); NaN entries
    mark undefined thresholds and exclude that dimension.
    dh_vector: (D,) Borda change of the point.
    """
    kappa_short, kappa_long = (np.atleast_1d(np.asarray(t, dtype=float)) for t in thresholds)
    kappa_per_dim = np.atleast_1d(np.asarray(kappa_per_dim, dtype=float))
    dh_vector = np.atleast_1d(np.asarray(dh_vector, dtype=float))
    defined = np.isfinite(kappa_short) & np.isfinite(kappa_long)
    cls = classify_frame(
        kappa_per_dim[None, :],
        kappa_short[None, :],
        kappa_long[None, :],
        defined[None, :],
        dh_vector[None, :],
    )
    return PdiRecord(
        category=int(cls.categories[0]),
        short_unstable=cls.short_unstable[0],
        long_unstable=cls.long_unstable[0],
        mode_mixity_controllable=bool(cls.mode_mixity[0]),
        mixed_disjoint=bool(cls.mixed_disjoint[0]),
    )


def _uniform_roots(n, d, magnitude):
    """A LengthScaleRoots stand-in where every point has the closed-form |x| = magnitude."""
    return LengthScaleRoots(
        x=np.full((n, d), float(magnitude)),
        sentinel=np.zeros((n, d), dtype=bool),
        label=np.zeros(n, dtype=np.uint8),
    )


def test_local_curvature_direct():
    assert local_curvature(0.5, 2.0) == pytest.approx(0.125)


def test_local_curvature_zero_change():
    assert local_curvature(0.0, 3.0) == 0.0


def test_local_curvature_sentinel():
    assert local_curvature(0.7, math.inf) == 0.0


def test_curvature_tensor_zero_on_sentinel():
    roots = _uniform_roots(2, 2, 2.0)
    roots.sentinel[0, 1] = True
    roots.x[0, 1] = np.inf
    kappa = curvature_tensor(np.array([[0.5, 0.5], [1.0, 1.0]]).T, roots)
    assert kappa.shape == (2, 2)
    assert kappa[0, 1] == 0.0
    assert kappa[0, 0] == pytest.approx(0.125)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_curvature_tensor_is_every_expanded_branch_kappa(d):
    # one kappa per (point, dimension) is the kappa of each of the 2**D
    # signed vectors, refined (x*, signed) and closed-form (|x|) alike
    rng = np.random.default_rng(70 + d)
    n = 40
    label = np.resize(np.arange(3, dtype=np.uint8), n)
    signs = np.where(label[:, None] == Convergence.REFINED, rng.choice([-1.0, 1.0], (n, d)), 1.0)
    sentinel = rng.random((n, d)) < 0.2
    roots = LengthScaleRoots(
        x=np.where(sentinel, np.inf, rng.uniform(0.01, 100.0, (n, d)) * signs),
        sentinel=sentinel,
        label=label,
    )
    dh = rng.normal(0.0, 1.0, (d, n)) * (rng.random((d, n)) > 0.1)   # some exact zeros
    kappa = curvature_tensor(dh, roots)
    full = curvature_full_oracle(dh, roots)
    assert kappa.shape == (n, d)
    assert np.broadcast_to(kappa[:, None, :], full.shape).tobytes() == full.tobytes()


def _assert_same_medians(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@given(
    shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    nan_rate=st.sampled_from([0.0, 0.1]),
    mask_rate=st.sampled_from([0.0, 0.5, 1.0]),
)
@settings(max_examples=100, deadline=None)
def test_median_matches_np_median(shape, seed, nan_rate, mask_rate):
    """Sort-and-pick gives np.median's bits lane by lane, NaN lanes included."""
    rng = np.random.default_rng(seed)
    values = rng.choice([1.0, 2.0, 3.0, np.inf], shape) * rng.uniform(0.0, 2.0, shape)
    values[rng.random(shape) < nan_rate] = np.nan
    mask = rng.random(shape) >= mask_rate
    for axis in range(len(shape)):
        with np.errstate(invalid="ignore"):
            _assert_same_medians(median(values, axis=axis), np.median(values, axis=axis))
        # masked: np.median of the entries under the mask, NaN where there are none
        clean = np.where(np.isnan(values), 1.0, values)
        lanes = np.moveaxis(clean, axis, -1)
        under = np.moveaxis(mask, axis, -1)
        want = np.array([
            np.median(lane[m]) if m.any() else np.nan
            for lane, m in zip(lanes.reshape(-1, shape[axis]), under.reshape(-1, shape[axis]))
        ]).reshape(lanes.shape[:-1])
        _assert_same_medians(median(clean, axis=axis, mask=mask), want)


def test_thresholds_first_frame_coincide():
    upd = update_thresholds(_uniform_roots(3, 2, 2.0))
    assert upd.kappa_short.shape == (1, 3, 2)
    np.testing.assert_allclose(upd.kappa_short, 0.5)
    np.testing.assert_allclose(upd.kappa_long, 0.5)
    assert np.all(upd.defined)


def test_thresholds_running_mean():
    # two frames in one call: the running mean advances between them
    both = _uniform_roots(2, 1, 2.0)
    both.x[1] *= 2.0
    batched = update_thresholds(both, frames=2)
    assert batched.kappa_short[:, 0, 0].tolist() == [0.5, 0.25]
    assert batched.kappa_long[0, 0, 0] == 0.5
    assert batched.kappa_long[1, 0, 0] == pytest.approx(1.0 / 3.0)


def test_thresholds_long_lags_short():
    roots = _uniform_roots(3, 1, 1.0)
    roots.x *= np.array([1.0, 2.0, 3.0])[:, None]
    upd = update_thresholds(roots, frames=3)
    # increasing magnitudes: the running mean trails the newest value
    assert upd.kappa_long[2, 0, 0] > upd.kappa_short[2, 0, 0]


def test_thresholds_undefined_on_sentinel():
    roots = _uniform_roots(2, 2, 2.0)
    roots.sentinel[0, 1] = True
    roots.x[0, 1] = np.inf
    roots.x[1] *= 2.0
    upd = update_thresholds(roots, frames=2)
    assert upd.defined[0, 0, 0] and not upd.defined[0, 0, 1]
    assert np.isnan(upd.kappa_short[0, 0, 1])
    # the sentinel frame did not advance the running mean: the second
    # frame's long-term threshold sees its own magnitude alone in dim 1
    assert upd.kappa_long[1, 0, 1] == 0.25
    assert upd.kappa_long[1, 0, 0] == pytest.approx(1.0 / 3.0)


def test_thresholds_batched_frames_match_per_pair_oracle():
    # frames of one call must equal the per-pair update threaded in order,
    # bit for bit, including sentinel entries that skip the history
    rng = np.random.default_rng(11)
    for d, n, frames in ((1, 9, 3), (3, 27, 5), (4, 9, 9)):
        roots = _uniform_roots(n * frames, d, 1.0)
        roots.x *= rng.uniform(0.01, 100.0, (n * frames, d)) ** rng.integers(1, 3)
        roots.label[::3] = Convergence.REFINED   # refined points hold a signed x*
        roots.x[::3] *= rng.choice([-1.0, 1.0], roots.x[::3].shape)
        sentinel = rng.uniform(size=(n * frames, d)) < 0.3
        roots.sentinel[:] = sentinel
        roots.x[sentinel] = np.inf
        got = update_thresholds(roots, frames=frames)
        history = ThresholdHistory.empty(n, d)
        for k in range(frames):
            want, history = update_thresholds_oracle(slice_roots(roots, k * n, (k + 1) * n), history)
            for name in ("kappa_short", "kappa_long", "defined"):
                assert getattr(got, name)[k].tobytes() == getattr(want, name).tobytes(), name


def test_thresholds_frames_must_split_points():
    with pytest.raises(ContractViolation, match="do not split"):
        update_thresholds(_uniform_roots(7, 2, 2.0), frames=2)
    with pytest.raises(ContractViolation, match="do not split"):
        update_thresholds(_uniform_roots(7, 2, 2.0), frames=0)


def test_classify_full_stability():
    rec = classify_pdi(
        np.full(4, 0.1), (np.full(4, 0.5), np.full(4, 0.4)), np.full(4, 0.01)
    )
    assert rec.category == 1


def test_classify_short_term_only():
    kappa = np.array([0.6, 0.1])
    rec = classify_pdi(kappa, (np.array([0.5, 0.5]), np.array([0.8, 0.8])), np.array([0.3, 0.0]))
    assert rec.category == 2
    assert rec.short_unstable[0] and not rec.long_unstable[0]


def test_classify_long_term_only():
    kappa = np.array([0.6, 0.1])
    rec = classify_pdi(kappa, (np.array([0.8, 0.8]), np.array([0.5, 0.5])), np.array([0.3, 0.0]))
    assert rec.category == 3


def test_classify_mixed_disjoint_flagged():
    # dim 0 violates only the short threshold, dim 1 only the long one
    kappa = np.array([0.6, 0.6])
    rec = classify_pdi(kappa, (np.array([0.5, 0.9]), np.array([0.9, 0.5])), np.array([0.1, 0.1]))
    assert rec.category == 3
    assert rec.mixed_disjoint


def test_classify_single_joint_dimension():
    kappa = np.array([2.0, 0.1, 0.1, 0.1])
    thr = (np.full(4, 0.5), np.full(4, 0.5))
    rec = classify_pdi(kappa, thr, np.array([5.0, 0.0, 0.0, 0.0]))
    assert rec.category == 5


def test_classify_two_joint_dimensions():
    kappa = np.array([2.0, 2.0, 0.1, 0.1])
    thr = (np.full(4, 0.5), np.full(4, 0.5))
    rec = classify_pdi(kappa, thr, np.array([5.0, -5.0, 0.0, 0.0]))
    assert rec.category == 6


def test_classify_three_joint_dimensions_deviatoric_fails():
    kappa = np.array([2.0, 2.0, 2.0, 0.1])
    thr = (np.full(4, 0.5), np.full(4, 0.5))
    rec = classify_pdi(kappa, thr, np.array([5.0, -5.0, 5.0, 0.0]))
    assert rec.category == 7


def test_classify_dilatational_instability_is_conditional():
    # identical Borda change in every dimension: removing the mean calms all
    kappa = np.full(4, 2.0)
    thr = (np.full(4, 0.5), np.full(4, 0.5))
    rec = classify_pdi(kappa, thr, np.full(4, 5.0))
    assert rec.category == 4
    assert rec.mode_mixity_controllable


def test_classify_undefined_threshold_dimension_excluded():
    kappa = np.array([9.9, 0.1])
    thr = (np.array([np.nan, 0.5]), np.array([np.nan, 0.5]))
    rec = classify_pdi(kappa, thr, np.array([1.0, 0.0]))
    assert rec.category == 1


def test_classification_total_over_random_frames():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n, d = 17, 4
        cls = classify_frame(
            np.abs(rng.normal(0, 1, (n, d))),
            np.abs(rng.normal(0.5, 0.2, (n, d))) + 0.01,
            np.abs(rng.normal(0.5, 0.2, (n, d))) + 0.01,
            np.ones((n, d), dtype=bool),
            rng.normal(0, 2, (n, d)),
        )
        assert np.all((cls.categories >= 1) & (cls.categories <= 7))


@given(
    p=st.integers(1, 5),
    n=st.integers(1, 12),
    d=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_classify_stack_matches_per_pair_calls(p, n, d, seed):
    """classify_frame on a (P, N, D) stack equals P single-pair calls bit for bit."""
    rng = np.random.default_rng(seed)
    kappa = np.abs(rng.normal(0.0, 1.0, (p, n, d)))
    short, long_ = (np.abs(rng.normal(0.5, 0.3, (p, n, d))) for _ in range(2))
    defined = rng.random((p, n, d)) < 0.8
    # dH as the pipeline passes it: a transposed view of (P, D, N) changes,
    # with zeros and equal entries to reach the mode-mixity branches
    dh = rng.choice([-2.0, 0.0, 0.5, 1.0, 3.0], (p, d, n)) * rng.uniform(0.5, 1.5, (p, 1, n))
    stacked = classify_frame(kappa, short, long_, defined, dh.swapaxes(1, 2))
    for k in range(p):
        single = classify_frame(kappa[k], short[k], long_[k], defined[k], dh[k].T)
        for name, value in vars(single).items():
            got = getattr(stacked, name)[k]
            assert got.dtype == value.dtype and got.tobytes() == value.tobytes(), (k, name)


def test_detect_chains_run_example():
    chains = detect_chains(np.array([1, 5, 6, 5, 1]))
    assert len(chains) == 1
    assert chains[0].start_index == 1 and chains[0].length == 3


def test_detect_chains_none():
    assert detect_chains(np.ones(7, dtype=int)) == []


def test_detect_chains_unit_run():
    chains = detect_chains(np.array([1, 1, 7, 1]))
    assert chains == [Chain(start_index=2, length=1, dimensions=())]


def test_detect_chains_against_oracle_and_partition():
    rng = np.random.default_rng(11)
    for _ in range(100):
        cats = rng.integers(1, 8, size=rng.integers(1, 40))
        chains = detect_chains(cats)
        assert [(c.start_index, c.length) for c in chains] == chains_oracle(cats.tolist())
        assert sum(c.length for c in chains) == int(np.sum(cats >= 5))


def test_detect_chains_collects_dimensions():
    dims = np.zeros((4, 3), dtype=bool)
    dims[1, 0] = dims[2, 2] = True
    chains = detect_chains(np.array([1, 5, 5, 1]), dims)
    assert chains[0].dimensions == (0, 2)


def test_escalation_to_chain_categories():
    cats = np.array([1, 5, 5, 5, 1])
    chains = detect_chains(cats)
    out = escalate_chain_categories(cats, chains, critical_short=2.0, critical_long=10.0)
    np.testing.assert_array_equal(out, [1, 8, 8, 8, 1])
    out = escalate_chain_categories(cats, chains, critical_short=2.0, critical_long=2.5)
    np.testing.assert_array_equal(out, [1, 9, 9, 9, 1])
    out = escalate_chain_categories(cats, chains, critical_short=5.0, critical_long=9.0)
    np.testing.assert_array_equal(out, cats)
