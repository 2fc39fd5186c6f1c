import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddp import (
    ContractViolation,
    DataBurst,
    DdpError,
    PipelineConfig,
    SubjectMeta,
    aggregate,
    analyze_subject,
    critical_chain_lengths,
    detect_chains,
    escalate_chain_categories,
    gti,
    synthesize,
    zoom_profile,
)
from ddp.curvature import classify_frame, curvature_tensor
from ddp.ingest import prescale_burst
from ddp.lengthscale import LengthScaleRoots, branch_layout
from ddp.report import report_json
from ddp.zoomout import (
    ZoomProfile,
    _coarsen,
    line_polyline_intersections,
    residual_curvature,
)

from oracles import (
    critical_chain_lengths_oracle,
    pair_zoom,
    residual_curvature_oracle,
    segment_line_intersections_oracle,
    zoom_profile_oracle,
)
from test_golden import _same_bits
from test_properties import VALUE_KINDS

CFG = PipelineConfig()


def _burst(values, index=0):
    return DataBurst(values=values, burst_index=index, subject_id="Z")


def test_aggregate_81_to_27():
    burst = _burst(np.random.default_rng(0).uniform(1, 2, (81, 4)))
    coarse = aggregate(burst, 3)
    assert coarse.n_points == 27
    assert coarse.dt == pytest.approx(burst.dt * 3)


def test_aggregate_constant_stays_constant():
    coarse = aggregate(_burst(np.full((81, 4), 1.3)), 3)
    assert np.all(coarse.values == 1.3)


def test_aggregate_preserves_grand_mean():
    burst = _burst(np.random.default_rng(1).uniform(1, 2, (81, 4)))
    coarse = aggregate(burst, 3)
    np.testing.assert_allclose(
        coarse.values.mean(axis=0), burst.values.mean(axis=0), rtol=1e-13
    )


def test_aggregate_matches_stack_coarsening_bitwise():
    stack = np.random.default_rng(2).normal(0.0, 1.0, (5, 81, 4))
    coarse = _coarsen(stack, 3)
    for b in range(5):
        assert aggregate(_burst(stack[b]), 3).values.tobytes() == coarse[b].tobytes()


def test_aggregate_rejects_indivisible():
    with pytest.raises(ContractViolation):
        aggregate(_burst(np.ones((80, 4))), 3)


def test_zoom_ladder_point_counts():
    cfg = PipelineConfig(seed=3)
    ds = synthesize("stable", cfg, n_bursts=2)
    b0, _ = prescale_burst(ds.bursts[0])
    b1, _ = prescale_burst(ds.bursts[1])
    profile = zoom_profile([b0, b1], cfg).profile[0]
    assert profile.point_count.tolist() == [81, 27, 9]
    assert profile.x_coordinate.tolist() == [1.0, 3.0, 9.0]


def test_zoom_identical_pair_zero_curvature():
    values = np.random.default_rng(2).uniform(1, 2, (81, 4))
    profile = zoom_profile([_burst(values, 0), _burst(values.copy(), 1)], CFG).profile[0]
    assert np.all(profile.kappa_combined == 0.0)
    assert np.all(profile.kappa_per_dim == 0.0)


def test_zoom_stable_profile_decreases_toward_coarse():
    cfg = PipelineConfig(seed=1)
    ds = synthesize("stable", cfg, n_bursts=2)
    b0, _ = prescale_burst(ds.bursts[0])
    b1, _ = prescale_burst(ds.bursts[1])
    kappas = zoom_profile([b0, b1], cfg).profile[0].kappa_combined
    assert kappas[0] > kappas[1] > kappas[2]


def test_zoom_rejects_shape_mismatch():
    with pytest.raises(ContractViolation):
        zoom_profile([_burst(np.ones((81, 4))), _burst(np.ones((81, 3)), 1)], CFG)


def test_residual_curvature_constant_is_zero():
    values = np.full((81, 4), 2.0)
    rc = zoom_profile([_burst(values, 0), _burst(values.copy(), 1)], CFG).rc[0]
    assert np.all(rc.rc == 0.0)
    assert rc.rc_combined == 0.0
    assert np.all(rc.rc_per_dim == 0.0)


def test_residual_curvature_shape_and_sign():
    cfg = PipelineConfig(seed=5)
    ds = synthesize("stable", cfg, n_bursts=2)
    b0, _ = prescale_burst(ds.bursts[0])
    b1, _ = prescale_burst(ds.bursts[1])
    rc = zoom_profile([b0, b1], cfg).rc[0]
    assert rc.rc.shape == (4, 16)
    assert np.all(rc.rc >= 0.0)
    assert rc.rc_combined >= 0.0


def test_residual_curvature_requires_nine_points():
    with pytest.raises(ContractViolation, match="9-point"):
        residual_curvature(np.zeros((2, 27, 2, 1)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_residual_curvature_half_matches_full_layout_oracle(d):
    # every stored branch has its own magnitude, so each of the 2**D rc
    # columns must read the median of its own branch
    rng = np.random.default_rng(60 + d)
    n_pairs = 3
    half = rng.uniform(0.1, 10.0, (n_pairs * 9, 2 ** (d - 1), d)) * branch_layout(d)[0]
    sentinel = rng.random((n_pairs * 9, d)) < 0.1
    roots = LengthScaleRoots(
        roots=np.where(sentinel[:, None, :], np.inf, half),
        sentinel=sentinel,
        negative_ratio=np.zeros((n_pairs * 9, d), dtype=bool),
        convergence=np.zeros((n_pairs * 9, 2 ** d), dtype=np.uint8),
    )
    dh = rng.normal(0.0, 1.0, (d, n_pairs * 9))
    kappa = curvature_tensor(dh, roots).reshape(n_pairs, 9, -1, d)
    full = curvature_tensor(dh, replace(roots, roots=roots.expand()))
    got = residual_curvature(kappa)
    for p in range(n_pairs):
        want = residual_curvature_oracle(full[p * 9:(p + 1) * 9])
        _same_bits(got[p], want, f"pair {p}")


def _descending_column(rng, n, d):
    # every pair of a strictly descending column with steps >= 1 lacks an
    # admissible pair constant, so unprescaled, the dimension is unfittable
    values = rng.normal(0.0, 1.0, (n, d))
    values[:, rng.integers(d)] = -np.arange(n) * rng.uniform(1.0, 3.0)
    return values


TAIL_KINDS = {**VALUE_KINDS, "descending_column": _descending_column}


@given(
    d=st.integers(1, 5),
    n=st.sampled_from([9, 27, 81]),
    kinds=st.lists(st.sampled_from(sorted(TAIL_KINDS)), min_size=2, max_size=5),
    stride=st.integers(1, 2),
    prescale=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_batched_tail_matches_per_pair_oracle(d, n, kinds, stride, prescale, seed):
    """The batched zoom-out tail equals the per-pair tail it replaced.

    Pair k of the subject's result is compared with the oracle's pair k:
    level statistics, thresholds and RC records bit for bit;
    critical lengths, whose line fit changed from np.polyfit to the closed
    form, at rtol 1e-8 with identical sentinel decisions; categories,
    chains and GTI decisions exactly.  An unprescaled descending column is
    unfittable, and then both raise ContractViolation.
    """
    cfg = PipelineConfig(D=d, N=n, stride_n=stride)
    rng = np.random.default_rng(seed)
    bursts = [
        DataBurst(values=np.array(TAIL_KINDS[kind](rng, n, d)), burst_index=b, subject_id="T")
        for b, kind in enumerate(kinds)
    ]
    if prescale:
        bursts = [prescale_burst(b)[0] for b in bursts]
    unfittable = not prescale and "descending_column" in kinds and len(kinds) > stride
    with np.errstate(all="ignore"):
        try:
            want = zoom_profile_oracle(bursts, cfg)
        except DdpError as exc:
            assert type(exc) is ContractViolation or not unfittable
            with pytest.raises(type(exc)):
                zoom_profile(bursts, cfg)
            return
        got = zoom_profile(bursts, cfg)
    assert not unfittable
    assert len(got.pairs) == len(want)
    sentinel = float(n + 1)
    rc_got, rc_want = [], []
    for k, w in enumerate(want):
        g = pair_zoom(got, k)
        _same_bits(g, w, f"pair {k}")
        crit_g = critical_chain_lengths(g.profile, cfg)
        crit_w = critical_chain_lengths_oracle(w.profile, cfg)
        for cg, cw in zip(crit_g, crit_w):
            assert (cg == sentinel) == (cw == sentinel)
            assert math.isclose(cg, cw, rel_tol=1e-8, abs_tol=0.0), (cg, cw)
        cls = classify_frame(g.kappa_median, g.kappa_short, g.kappa_long, g.defined, g.dh.T)
        chains = detect_chains(cls.categories, cls.jointly_unstable)
        assert np.array_equal(
            escalate_chain_categories(cls.categories, chains, *crit_g),
            escalate_chain_categories(cls.categories, chains, *crit_w),
        )
        rc_got.append(g.rc.rc_combined)
        rc_want.append(w.rc.rc_combined)
        gti_g = gti(rc_got, chains, crit_g, cfg.drop_threshold)
        gti_w = gti(rc_want, chains, crit_w, cfg.drop_threshold)
        assert (gti_g.chain_max_length, gti_g.energy_drop_fraction, gti_g.triggered, gti_g.imminent) == (
            gti_w.chain_max_length, gti_w.energy_drop_fraction, gti_w.triggered, gti_w.imminent
        )


def test_unprescaled_unfittable_bursts_raise_but_analyze_prescales():
    # burst 2's dimension 1 descends in steps of 2: no pair of it has a real
    # pair constant, so unprescaled it is unfittable; prescaled, it is fine
    cfg = PipelineConfig(N=27)
    rng = np.random.default_rng(3)
    bursts = [_burst(rng.normal(0.0, 1.0, (27, 4)), b) for b in range(3)]
    bursts[2].values[:, 1] = -2.0 * np.arange(27)
    with pytest.raises(ContractViolation, match=r"dimension 1 of burst 2 .*prescaled"):
        zoom_profile(bursts, cfg)
    report, _ = analyze_subject("Z", bursts, SubjectMeta(), cfg)
    frames = json.loads(report_json([report], None, cfg))["subjects"][0]["frames"]
    assert len(frames) == 2
    assert all(fr["partial_dims"] == [] for fr in frames)


def _profile(kappas, ltildes, ls, n=81):
    x = np.array([1.0, 3.0, 9.0])
    kappa, ltilde, long_ = (np.array(v, dtype=float) for v in (kappas, ltildes, ls))
    return ZoomProfile(
        point_count=(n / x).astype(int),
        x_coordinate=x,
        kappa_per_dim=kappa[:, None],
        kappa_combined=kappa,
        inv_ltilde_per_dim=ltilde[:, None],
        inv_ltilde_combined=ltilde,
        inv_l_per_dim=long_[:, None],
        inv_l_combined=long_,
    )


def test_critical_lengths_no_intersection_sentinel():
    # the threshold lines stay below the mirrored curvature everywhere
    profile = _profile((1.0, 0.6, 0.2), (0.3, 0.5, 0.7), (0.3, 0.5, 0.7))
    assert critical_chain_lengths(profile, CFG) == (82.0, 82.0)


def test_critical_lengths_intersection_frozen_value():
    # flat long-run line crosses the mirrored curvature; value frozen from
    # the independent segment-intersection oracle
    profile = _profile((1.0, 0.6, 0.2), (0.3, 0.5, 0.7), (0.3, 0.32, 0.34))
    short, long_ = critical_chain_lengths(profile, CFG)
    assert short == pytest.approx(10.704772558690701, rel=1e-9)
    assert long_ == 82.0  # the steep instantaneous line never crosses


def test_critical_lengths_line_role_mapping():
    # swap the two line inputs: the crossing must move to the other output
    profile = _profile((1.0, 0.6, 0.2), (0.3, 0.32, 0.34), (0.3, 0.5, 0.7))
    short, long_ = critical_chain_lengths(profile, CFG)
    assert long_ == pytest.approx(10.704772558690701, rel=1e-9)
    assert short == 82.0


def test_critical_lengths_jump_rule_prefers_lower_curvature():
    # a V-shaped mirrored curvature crossed twice by a backward-declining
    # line: the process zone jumps to the farther, lower crossing
    t = np.log([1.0, 3.0, 9.0])
    kappas = (0.5, 0.05, 0.6)
    line_vals = tuple(0.3 + 0.1 * ti for ti in t)
    profile = _profile(kappas, (9.9, 9.9, 9.9), line_vals)
    short, _ = critical_chain_lengths(profile, CFG)
    ts_m = (-t[::-1]).tolist()
    ys_m = list(kappas)[::-1]
    hits = segment_line_intersections_oracle(ts_m, ys_m, 0.3, 0.1)
    assert len(hits) == 2
    farther = hits[-1]
    assert farther[1] < hits[0][1]
    assert short == pytest.approx(math.exp(farther[0]) * 81, rel=1e-9)


def test_critical_lengths_requires_two_usable_levels():
    profile = _profile((1.0, float("nan"), float("nan")),
                       (0.3, float("nan"), float("nan")),
                       (0.3, float("nan"), float("nan")))
    assert critical_chain_lengths(profile, CFG) == (82.0, 82.0)


def test_line_polyline_intersections_match_oracle():
    rng = np.random.default_rng(8)
    for _ in range(200):
        ts = np.sort(rng.uniform(-3, 0, 4))
        ys = rng.uniform(0, 1, 4)
        intercept, slope = rng.uniform(-1, 1, 2)
        got = line_polyline_intersections(ts, ys, intercept, slope)
        expected = segment_line_intersections_oracle(ts, ys, intercept, slope)
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert g[0] == pytest.approx(e[0], rel=1e-10, abs=1e-12)


def _chain(length):
    from ddp import Chain

    return [Chain(start_index=0, length=length)] if length else []


def test_gti_triggers_on_drop_and_chain():
    record = gti([2.0, 0.3], _chain(10), (4.0, 5.0))
    assert record.energy_drop_fraction == pytest.approx(0.85)
    assert record.triggered and record.imminent


def test_gti_below_drop_threshold():
    record = gti([2.0, 1.9], _chain(10), (4.0, 5.0))
    assert record.energy_drop_fraction == pytest.approx(0.05)
    assert not record.triggered


def test_gti_chain_below_critical():
    record = gti([2.0, 0.1], _chain(2), (4.0, 5.0))
    assert record.energy_drop_fraction == pytest.approx(0.95)
    assert not record.triggered


def test_gti_undefined_with_single_record():
    record = gti([2.0], _chain(10), (4.0, 5.0))
    assert record.energy_drop_fraction is None
    assert not record.triggered


def test_gti_undefined_with_zero_reference():
    record = gti([0.0, 0.0], _chain(10), (4.0, 5.0))
    assert record.energy_drop_fraction is None
    assert not record.triggered


def test_gti_rising_rc_clamps_to_zero():
    record = gti([1.0, 2.0], _chain(10), (4.0, 5.0))
    assert record.energy_drop_fraction == 0.0
    assert not record.triggered


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_burst_raises_naming_the_burst(value):
    # DataBurst rejects non-finite values, so one is written in afterwards;
    # the datum fit would drop its pairs and leave the lane fittable
    cfg = PipelineConfig(N=27)
    rng = np.random.default_rng(5)
    bursts = [prescale_burst(_burst(rng.uniform(0.5, 1.0, (27, 4)), b))[0] for b in range(3)]
    bursts[1].values[4, 2] = value
    with pytest.raises(ContractViolation, match=r"burst 1 holds a non-finite value"):
        zoom_profile(bursts, cfg)
