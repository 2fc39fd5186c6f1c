import math

import numpy as np
import pytest

from ddp import (
    ContractViolation,
    DataBurst,
    PipelineConfig,
    aggregate,
    critical_chain_lengths,
    gti,
    synthesize,
    zoom_profile,
)
from ddp.ingest import prescale_burst
from ddp.zoomout import (
    ResidualCurvatureRecord,
    ZoomLevel,
    ZoomProfile,
    line_polyline_intersections,
    residual_curvature,
)

from oracles import segment_line_intersections_oracle

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


def test_aggregate_rejects_indivisible():
    with pytest.raises(ContractViolation):
        aggregate(_burst(np.ones((80, 4))), 3)


def test_zoom_ladder_point_counts():
    cfg = PipelineConfig(seed=3)
    ds = synthesize("stable", cfg, n_bursts=2)
    b0, _ = prescale_burst(ds.bursts[0])
    b1, _ = prescale_burst(ds.bursts[1])
    out = zoom_profile([b0, b1], cfg)[0]
    assert [lv.point_count for lv in out.profile.levels] == [81, 27, 9]
    assert [lv.x_coordinate for lv in out.profile.levels] == [1.0, 3.0, 9.0]


def test_zoom_identical_pair_zero_curvature():
    values = np.random.default_rng(2).uniform(1, 2, (81, 4))
    out = zoom_profile([_burst(values, 0), _burst(values.copy(), 1)], CFG)[0]
    for lv in out.profile.levels:
        assert lv.kappa_combined == 0.0
        assert np.all(lv.kappa_per_dim == 0.0)


def test_zoom_stable_profile_decreases_toward_coarse():
    cfg = PipelineConfig(seed=1)
    ds = synthesize("stable", cfg, n_bursts=2)
    b0, _ = prescale_burst(ds.bursts[0])
    b1, _ = prescale_burst(ds.bursts[1])
    out = zoom_profile([b0, b1], cfg)[0]
    kappas = [lv.kappa_combined for lv in out.profile.levels]
    assert kappas[0] > kappas[1] > kappas[2]


def test_zoom_rejects_shape_mismatch():
    with pytest.raises(ContractViolation):
        zoom_profile([_burst(np.ones((81, 4))), _burst(np.ones((81, 3)), 1)], CFG)


def test_residual_curvature_constant_is_zero():
    values = np.full((81, 4), 2.0)
    out = zoom_profile([_burst(values, 0), _burst(values.copy(), 1)], CFG)[0]
    rc = residual_curvature(out.profile)
    assert np.all(rc.rc == 0.0)
    assert rc.rc_combined == 0.0
    assert np.all(rc.rc_per_dim == 0.0)


def test_residual_curvature_shape_and_sign():
    cfg = PipelineConfig(seed=5)
    ds = synthesize("stable", cfg, n_bursts=2)
    b0, _ = prescale_burst(ds.bursts[0])
    b1, _ = prescale_burst(ds.bursts[1])
    out = zoom_profile([b0, b1], cfg)[0]
    rc = residual_curvature(out.profile)
    assert rc.rc.shape == (4, 16)
    assert np.all(rc.rc >= 0.0)
    assert rc.rc_combined >= 0.0
    assert all(rc.modulation[d] is not None for d in range(4))


def _profile(kappas, ltildes, ls, n=81):
    levels = []
    for x, k, lt, ll in zip((1.0, 3.0, 9.0), kappas, ltildes, ls):
        levels.append(
            ZoomLevel(
                point_count=int(n / x),
                x_coordinate=x,
                valid_dims=np.array([True]),
                kappa_per_dim=np.array([k]),
                kappa_combined=k,
                inv_ltilde_per_dim=np.array([lt]),
                inv_ltilde_combined=lt,
                inv_l_per_dim=np.array([ll]),
                inv_l_combined=ll,
            )
        )
    return ZoomProfile(
        levels=levels,
        coarsest_kappa=np.zeros((9, 2, 1)),
        coarsest_valid=np.array([True]),
        finest_points=n,
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


def _rc(value):
    return ResidualCurvatureRecord(
        rc=np.full((1, 2), value),
        rc_per_dim=np.array([value]),
        rc_combined=value,
        modulation=[None],
    )


def _chain(length):
    from ddp import Chain

    return [Chain(start_index=0, length=length)] if length else []


def test_gti_triggers_on_drop_and_chain():
    record = gti([_rc(2.0), _rc(0.3)], _chain(10), (4.0, 5.0))
    assert record.energy_drop_fraction == pytest.approx(0.85)
    assert record.triggered and record.imminent


def test_gti_below_drop_threshold():
    record = gti([_rc(2.0), _rc(1.9)], _chain(10), (4.0, 5.0))
    assert record.energy_drop_fraction == pytest.approx(0.05)
    assert not record.triggered


def test_gti_chain_below_critical():
    record = gti([_rc(2.0), _rc(0.1)], _chain(2), (4.0, 5.0))
    assert record.energy_drop_fraction == pytest.approx(0.95)
    assert not record.triggered


def test_gti_undefined_with_single_record():
    record = gti([_rc(2.0)], _chain(10), (4.0, 5.0))
    assert record.energy_drop_fraction is None
    assert not record.triggered


def test_gti_undefined_with_zero_reference():
    record = gti([_rc(0.0), _rc(0.0)], _chain(10), (4.0, 5.0))
    assert record.energy_drop_fraction is None
    assert not record.triggered


def test_gti_rising_rc_clamps_to_zero():
    record = gti([_rc(1.0), _rc(2.0)], _chain(10), (4.0, 5.0))
    assert record.energy_drop_fraction == 0.0
    assert not record.triggered
