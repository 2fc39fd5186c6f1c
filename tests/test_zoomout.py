import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddp import (
    Chain,
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
import ddp.zoomout as zoomout
from ddp.curvature import classify_frame, curvature_tensor
from ddp.ingest import prescale_burst
from ddp.lengthscale import Convergence, LengthScaleRoots, solve_roots
from ddp.report import report_json
from ddp.zoomout import (
    ZoomProfile,
    _coarsen,
    line_polyline_intersections,
    residual_curvature,
)

from oracles import (
    critical_chain_lengths_oracle,
    curvature_full_oracle,
    pair_zoom,
    residual_curvature_oracle,
    segment_line_intersections_oracle,
    zoom_profile_levels_oracle,
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
    assert rc.rc_combined == 0.0
    assert np.all(rc.rc_per_dim == 0.0)


def test_residual_curvature_shape_and_sign():
    cfg = PipelineConfig(seed=5)
    ds = synthesize("stable", cfg, n_bursts=2)
    b0, _ = prescale_burst(ds.bursts[0])
    b1, _ = prescale_burst(ds.bursts[1])
    rc = zoom_profile([b0, b1], cfg).rc[0]
    assert rc.rc_per_dim.shape == (4,)
    assert np.all(rc.rc_per_dim >= 0.0)
    assert rc.rc_combined >= 0.0


def test_residual_curvature_requires_nine_points():
    with pytest.raises(ContractViolation, match="9-point"):
        residual_curvature(np.zeros((2, 27, 1)))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_residual_curvature_half_matches_full_layout_oracle(d):
    # one vector per point, each label with its own sign layout: the 2**D
    # rc columns of a dimension all read the median over the 9 points of
    # the expanded branches' kappa
    rng = np.random.default_rng(60 + d)
    n_pairs = 3
    n = n_pairs * 9
    sentinel = rng.random((n, d)) < 0.1
    label = rng.integers(0, 3, n).astype(np.uint8)
    x = rng.uniform(0.1, 10.0, (n, d))
    x = np.where(label[:, None] == Convergence.REFINED, x * rng.choice([-1.0, 1.0], (n, d)), x)
    roots = LengthScaleRoots(
        x=np.where(sentinel, np.inf, x),
        sentinel=sentinel,
        label=label,
    )
    dh = rng.normal(0.0, 1.0, (d, n))
    got = residual_curvature(curvature_tensor(dh, roots).reshape(n_pairs, 9, d))
    full = curvature_full_oracle(dh, roots)
    for p in range(n_pairs):
        want = residual_curvature_oracle(full[p * 9:(p + 1) * 9])
        _same_bits(got[p], want, f"pair {p}")


def test_residual_curvature_keeps_values_near_the_float_maximum():
    # one value per point: the median is 1e308 itself; a median over
    # copies of it would take (v + v) / 2, which overflows to inf
    kappa = np.full((2, 9, 3), 1e308)
    kappa[1, :4] = 0.5
    rc = residual_curvature(kappa)
    assert rc.rc_per_dim.tolist() == [[1e308] * 3] * 2
    assert rc.rc_combined.tolist() == [1e308, 1e308]


def test_level_medians_keep_values_near_the_float_maximum(monkeypatch):
    # kappa of 1e308 at every point, which an eps far below the default
    # can reach (see curvature_tensor): every level median over the odd
    # point counts 81, 27 and 9 is 1e308, and so are RC and the finest
    # kappa; D = 3 keeps the medians over dimensions finite too
    cfg = PipelineConfig(D=3, seed=7)
    bursts = _prescaled_subjects("stable", cfg, 3)[0]
    monkeypatch.setattr(
        zoomout, "curvature_tensor", lambda dh, roots: np.full(roots.x.shape, 1e308)
    )
    zoom = zoom_profile(bursts, cfg)
    assert np.all(zoom.profile.kappa_per_dim == 1e308)
    assert np.all(zoom.profile.kappa_combined == 1e308)
    assert np.all(zoom.kappa_median == 1e308)
    assert np.all(zoom.rc.rc_per_dim == 1e308) and np.all(zoom.rc.rc_combined == 1e308)


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
    unfittable = not prescale and "descending_column" in kinds
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
    assert len(got.previous) == len(want)
    sentinel = float(n + 1)
    rc_got, rc_want = [], []
    for k, w in enumerate(want):
        g = pair_zoom(got, k)
        _same_bits(g, w, f"pair {k}")
        crit_g = critical_chain_lengths(g.profile)
        crit_w = critical_chain_lengths_oracle(w.profile)
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


def _prescaled_subjects(profile, cfg, n_bursts):
    ds = synthesize(profile, cfg, n_bursts=n_bursts, n_subjects=2)
    return [[prescale_burst(b)[0] for b in ds.bursts_for(sid)] for sid in ds.subjects()]


@pytest.mark.parametrize("profile", ["stable", "burst", "drift"])
@pytest.mark.parametrize("stride", [1, 2])
def test_single_root_solve_matches_per_level_solves_bitwise(profile, stride):
    """Every level's points of a pair in one root solve, curvature and
    threshold call give the bits of one call of each per level: every
    SubjectZoom array, the finest level's roots and thresholds included."""
    cfg = PipelineConfig(seed=7, stride_n=stride)
    for bursts in _prescaled_subjects(profile, cfg, 6):
        _same_bits(zoom_profile(bursts, cfg), zoom_profile_levels_oracle(bursts, cfg), "zoom")


def test_single_root_solve_matches_per_level_solves_at_243_points():
    cfg = PipelineConfig(seed=11, N=243)
    for bursts in _prescaled_subjects("burst", cfg, 4):
        _same_bits(zoom_profile(bursts, cfg), zoom_profile_levels_oracle(bursts, cfg), "zoom")


# (stride, bursts): no frame pair from 0..stride bursts; at stride 2, burst 1
# of 3 is in no pair
FEW_BURSTS = [(s, b) for s in (1, 2, 3) for b in range(s + 1)] + [(2, 3)]


@pytest.mark.parametrize("stride, n_bursts", FEW_BURSTS)
def test_zoom_profile_columns_with_few_bursts(stride, n_bursts):
    """P = max(B - stride, 0) pairs: every column has P in front, also at
    P = 0, with the bits of one root solve per level."""
    cfg = PipelineConfig(seed=5, N=27, stride_n=stride)
    bursts = _prescaled_subjects("stable", cfg, max(n_bursts, 1))[0][:n_bursts]
    zoom = zoom_profile(bursts, cfg)
    p, n, d, levels = max(n_bursts - stride, 0), cfg.N, cfg.D, len(cfg.zoom_point_counts())
    assert zoom.previous.tolist() == list(range(p))
    assert zoom.current.tolist() == list(range(stride, n_bursts))
    th, pr, rc = zoom.thresholds, zoom.profile, zoom.rc
    for got, want in (
        (zoom.dh, (p, d, n)), (zoom.current_state.borda.H, (p, d, n)),
        (zoom.current_state.datum, (p, d)), (zoom.kappa_median, (p, n, d)),
        (th.kappa_short, (p, n, d)), (th.kappa_long, (p, n, d)), (th.defined, (p, n, d)),
        (zoom.roots.sentinel, (p * n, d)), (zoom.fallback_fraction, (p,)),
        (pr.kappa_per_dim, (p, levels, d)), (pr.inv_l_combined, (p, levels)),
        (rc.rc_per_dim, (p, d)), (rc.rc_combined, (p,)),
    ):
        assert got.shape == want
    _same_bits(zoom, zoom_profile_levels_oracle(bursts, cfg), "zoom")
    if (stride, n_bursts) == (2, 3):   # the burst in no pair changes nothing
        _same_bits(zoom_profile([bursts[0], bursts[0], bursts[2]], cfg), zoom, "zoom")


@pytest.mark.parametrize("n, n_bursts", [(81, 6), (243, 3), (9, 2)])
def test_zoom_profile_solves_roots_once(monkeypatch, n, n_bursts):
    cfg = PipelineConfig(seed=7, N=n)
    bursts = _prescaled_subjects("stable", cfg, n_bursts)[0]
    points = []

    def counted(*args):
        roots = solve_roots(*args)
        points.append(roots.n_points)
        return roots

    monkeypatch.setattr(zoomout, "solve_roots", counted)
    zoom_profile(bursts, cfg)
    assert points == [(n_bursts - 1) * sum(cfg.zoom_point_counts())]


def test_unprescaled_unfittable_bursts_raise_but_analyze_prescales():
    # burst 2's dimension 1 descends in steps of 2: no pair of it has a real
    # pair constant, so unprescaled it is unfittable; prescaled, it is fine
    cfg = PipelineConfig(N=27)
    rng = np.random.default_rng(3)
    bursts = [_burst(rng.normal(0.0, 1.0, (27, 4)), b) for b in range(3)]
    bursts[2].values[:, 1] = -2.0 * np.arange(27)
    with pytest.raises(ContractViolation, match=r"dimension 1 of burst 2 .*prescaled"):
        zoom_profile(bursts, cfg)
    with pytest.raises(ContractViolation, match=r"dimension 1 of burst 2 "):
        zoom_profile(bursts[2:], cfg)   # no frame pair, and the burst is still checked
    report, _ = analyze_subject("Z", bursts, SubjectMeta(), cfg)
    frames = json.loads(report_json([report], None, cfg))["subjects"][0]["frames"]
    assert len(frames) == 2
    assert all(fr["partial_dims"] == [] for fr in frames)


_UNFITTABLE = (
    r"zoom_profile needs prescaled bursts, which have one at any epsilon_denominator below 0\.5 "
)


def test_unprescaled_burst_message_names_prescaling_at_the_default_epsilon():
    cfg = PipelineConfig(N=27)
    values = np.random.default_rng(3).normal(0.0, 1.0, (27, 4))
    values[:, 2] = -2.0 * np.arange(27)   # no pair of it has a real pair constant
    with pytest.raises(ContractViolation, match=_UNFITTABLE + r"\(this is 1e-09\)$"):
        zoom_profile([_burst(values, 0), _burst(values.copy(), 1)], cfg)


def test_prescaled_burst_message_names_an_epsilon_beyond_one_half():
    # prescaled values always have a real pair constant, but only below 0.5
    # does the guard band surely admit one; at 2.0 it admits none in dimension 0
    cfg = PipelineConfig(N=27, epsilon_denominator=2.0)
    bursts = _prescaled_subjects("stable", cfg, 3)[0]
    with pytest.raises(ContractViolation, match=_UNFITTABLE + r"\(this is 2\.0\)$"):
        zoom_profile(bursts, cfg)


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
    assert critical_chain_lengths(profile) == (82.0, 82.0)


def test_critical_lengths_intersection_frozen_value():
    # flat long-run line crosses the mirrored curvature; value frozen from
    # the independent segment-intersection oracle
    profile = _profile((1.0, 0.6, 0.2), (0.3, 0.5, 0.7), (0.3, 0.32, 0.34))
    short, long_ = critical_chain_lengths(profile)
    assert short == pytest.approx(10.704772558690701, rel=1e-9)
    assert long_ == 82.0  # the steep instantaneous line never crosses


def test_critical_lengths_line_role_mapping():
    # swap the two line inputs: the crossing must move to the other output
    profile = _profile((1.0, 0.6, 0.2), (0.3, 0.32, 0.34), (0.3, 0.5, 0.7))
    short, long_ = critical_chain_lengths(profile)
    assert long_ == pytest.approx(10.704772558690701, rel=1e-9)
    assert short == 82.0


def test_critical_lengths_jump_rule_prefers_lower_curvature():
    # a V-shaped mirrored curvature crossed twice by a backward-declining
    # line: the process zone jumps to the farther, lower crossing
    t = np.log([1.0, 3.0, 9.0])
    kappas = (0.5, 0.05, 0.6)
    line_vals = tuple(0.3 + 0.1 * ti for ti in t)
    profile = _profile(kappas, (9.9, 9.9, 9.9), line_vals)
    short, _ = critical_chain_lengths(profile)
    ts_m = (-t[::-1]).tolist()
    ys_m = list(kappas)[::-1]
    hits = segment_line_intersections_oracle(ts_m, ys_m, 0.3, 0.1)
    assert len(hits) == 2
    farther = hits[-1]
    assert farther[1] < hits[0][1]
    assert short == pytest.approx(math.exp(farther[0]) * 81, rel=1e-9)


def _left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_critical_lengths_fit_sums_from_left_to_right(monkeypatch):
    # 1e16 + 1.0 - 1e16 is 0.0 from left to right, 1.0 compensated (the
    # builtin sum() from Python 3.12 on): the fitted lines keep the first
    ls = (1e16, 1.0, -1e16)
    assert _left_to_right(ls) != math.fsum(ls)
    profile = _profile((1.0, 0.6, 0.2), (0.3, 0.5, 0.7), ls)
    lines = []

    def recording(ts, ys, intercept, slope):
        lines.append((intercept, slope))
        return line_polyline_intersections(ts, ys, intercept, slope)

    monkeypatch.setattr(zoomout, "line_polyline_intersections", recording)
    critical_chain_lengths(profile)

    t = np.log(profile.x_coordinate).tolist()
    t_mean = _left_to_right(t) / 3
    t_dev = [v - t_mean for v in t]
    t_ss = _left_to_right(v * v for v in t_dev)
    want = []
    for values in ((0.3, 0.5, 0.7), ls):   # the long line is fitted first
        v_mean = _left_to_right(values) / 3
        slope = _left_to_right(a * (v - v_mean) for a, v in zip(t_dev, values)) / t_ss
        want.append((v_mean - slope * t_mean, slope))
    assert lines == want


def test_critical_lengths_requires_two_usable_levels():
    profile = _profile((1.0, float("nan"), float("nan")),
                       (0.3, float("nan"), float("nan")),
                       (0.3, float("nan"), float("nan")))
    assert critical_chain_lengths(profile) == (82.0, 82.0)


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


def test_gti_cannot_fire_at_the_sentinel_critical_length():
    # a chain holds at most N points, so it never exceeds the N + 1 sentinel
    n = 81
    record = gti([2.0, 0.0], _chain(n), (float(n + 1), float(n + 1)))
    assert record.energy_drop_fraction == 1.0
    assert not record.triggered


# critical lengths at N = 81 as critical_chain_lengths gives them, the N + 1
# sentinel or exp(t*) * N, plus 0 and NaN (which no chain length exceeds)
_CRITICALS = st.one_of(
    st.sampled_from([0.0, math.nan, 82.0]),
    st.floats(-40.0, 1.0).map(lambda t: math.exp(t) * 81),
)


@given(
    rc=st.lists(st.one_of(st.sampled_from([0.0, math.nan]), st.floats(0.0, 10.0)), max_size=4),
    lengths=st.lists(st.integers(1, 81), max_size=3),
    criticals=st.tuples(_CRITICALS, _CRITICALS),
    threshold=st.floats(0.01, 0.99),
)
@settings(max_examples=300, deadline=None)
def test_gti_imminent_is_triggered(rc, lengths, criticals, threshold):
    # a chain longer than a critical length >= 0 holds at least one point
    record = gti(rc, [Chain(start_index=0, length=k) for k in lengths], criticals, threshold)
    assert record.imminent == record.triggered
    assert record.chain_max_length >= 1 or not record.triggered


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
