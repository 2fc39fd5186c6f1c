import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddp import (
    GroupUnavailable,
    PipelineConfig,
    analyze_dataset,
    boxplot_stats,
    emit,
    energy_exchange_amplitude,
    group_stats,
    percent_change,
    synthesize,
)
import ddp.report as report
from ddp.report import SubjectPool, dim_stats, report_json, roots_table_csv

from oracles import boxplot_stats_oracle, group_stats_oracle, quantile_oracle

CFG = PipelineConfig()


def test_boxplot_quartiles_linear_interpolation():
    b = boxplot_stats([1.0, 2.0, 3.0, 4.0])
    assert b.q25 == pytest.approx(1.75)
    assert b.q75 == pytest.approx(3.25)
    assert b.q25 == pytest.approx(quantile_oracle([1, 2, 3, 4], 0.25))
    assert b.q75 == pytest.approx(quantile_oracle([1, 2, 3, 4], 0.75))


def test_boxplot_constant_sequence():
    b = boxplot_stats([2.0, 2.0, 2.0])
    assert b.q25 == b.q75 == 2.0
    assert b.whisker_low == b.whisker_high == 2.0
    assert b.outliers == ()


def test_boxplot_rejects_empty():
    with pytest.raises(ValueError):
        boxplot_stats([])


@given(st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=40))
@settings(max_examples=60, deadline=None)
def test_boxplot_whisker_width_and_outliers(values):
    b = boxplot_stats(values)
    v = np.asarray(values, dtype=float)
    sigma = float(np.std(v))
    assert (b.whisker_high - b.whisker_low) == pytest.approx(5.4 * sigma, abs=1e-9)
    outside = sorted(v[(v < b.whisker_low) | (v > b.whisker_high)])
    assert list(b.outliers) == [pytest.approx(x) for x in outside]
    assert b.q25 <= b.q75


def _same_boxplot(got, want):
    fields = ("q25", "q75", "whisker_low", "whisker_high")
    assert [np.float64(getattr(got, f)).tobytes() for f in fields] == [
        np.float64(getattr(want, f)).tobytes() for f in fields
    ]
    assert np.array(got.outliers).tobytes() == np.array(want.outliers).tobytes()


def test_boxplot_rows_match_per_row_oracle():
    # each row's statistics equal the oracle's, bit for bit
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 8, 16, 17, 32, 129, 1000):
        rows = rng.lognormal(0.0, 2.0, (20, m))
        rows[::4, 0] *= 1e6  # far outliers in some rows
        rows[1] = rows[1, 0]  # a constant row
        for row in rows:
            _same_boxplot(boxplot_stats(row), boxplot_stats_oracle(row))
        ragged = np.concatenate([rows[0], [np.nan, np.inf]])
        _same_boxplot(boxplot_stats(ragged), boxplot_stats_oracle(ragged))


def test_dim_stats_worked_example():
    st_ = dim_stats([0.1, 0.5, 3.5, 4.0], threshold=3.0, bin_edges=(0.3, 1.5, 3.0))
    assert st_.median == pytest.approx(2.0)
    assert st_.percent_above == pytest.approx(50.0)
    assert st_.bin_counts == (1, 1, 0, 2)


def test_dim_stats_singleton():
    st_ = dim_stats([0.3], threshold=3.0, bin_edges=(0.3, 1.5, 3.0))
    assert st_.median == pytest.approx(0.3)
    assert st_.percent_above == 0.0
    assert st_.bin_counts == (1, 0, 0, 0)


def test_dim_stats_rejects_empty():
    with pytest.raises(GroupUnavailable):
        dim_stats([], threshold=1.0, bin_edges=(0.3,))


@given(st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=60))
@settings(max_examples=60, deadline=None)
def test_dim_stats_bins_partition(values):
    st_ = dim_stats(values, threshold=3.0, bin_edges=(0.3, 1.5, 3.0))
    assert sum(st_.bin_counts) == st_.n == len(values)
    assert 0.0 <= st_.percent_above <= 100.0
    assert min(values) <= st_.median <= max(values)


def _pool(label, values_per_dim):
    return SubjectPool(
        subject_id=f"{label}-x",
        group_label=label,
        rc_values_per_dim=[np.asarray(v, dtype=float) for v in values_per_dim],
    )


def test_group_stats_medians_and_change():
    cfg = PipelineConfig(D=2)
    ctrl = _pool("control", [[0.364, 0.364], [0.3, 0.3]])
    post = _pool("post_aclr", [[0.480, 0.480], [0.3, 0.3]])
    gs = group_stats([ctrl, post], cfg, threshold=3.0)
    assert gs.groups["control"].per_dim[0].median == pytest.approx(0.364)
    assert gs.groups["post_aclr"].per_dim[0].median == pytest.approx(0.480)
    change = gs.percent_change_per_dim[0]
    assert change == pytest.approx(31.868131868131865, rel=1e-12)
    assert abs(change - 32.05) < 0.5


def test_group_stats_threshold_from_overall_median():
    cfg = PipelineConfig(D=1, rc_threshold_multiplier=10.0)
    gs = group_stats([_pool("control", [[0.2, 0.3, 0.4]])], cfg)
    assert gs.threshold == pytest.approx(3.0)


def test_group_stats_empty_group_listed_unavailable():
    cfg = PipelineConfig(D=1)
    gs = group_stats(
        [_pool("control", [[0.5]]), _pool("post_aclr", [[]])], cfg, threshold=1.0
    )
    assert "post_aclr" in gs.unavailable
    assert "control" in gs.groups
    assert gs.percent_change_per_dim is None


def test_group_stats_leaves_inputs_unchanged():
    # the medians reorder scratch copies in place, never the caller's arrays
    values = [[3.0, 1.0, np.nan, 2.0, 0.5], [0.25, 4.0, 1.5]]
    pools = [_pool("control", values), _pool("post_aclr", values[::-1])]
    before = [[v.copy() for v in p.rc_values_per_dim] for p in pools]
    group_stats(pools, PipelineConfig(D=2))
    finite = np.array(values[1])
    dim_stats(finite, threshold=1.0, bin_edges=(0.3,))
    for p, b in zip(pools, before):
        for v, w in zip(p.rc_values_per_dim, b):
            np.testing.assert_array_equal(v, w)
    np.testing.assert_array_equal(finite, values[1])


def test_group_stats_matches_concatenated_reference():
    # streaming through one buffer at a time gives the statistics of the
    # concatenated pools, with NaN, empty and missing dimensions and an
    # unknown label that only feeds the threshold
    rng = np.random.default_rng(9)
    cfg = PipelineConfig(D=3)
    for trial in range(30):
        pools = []
        for s_ in range(int(rng.integers(1, 8))):
            label = ("control", "post_aclr", "unlabeled", "other")[int(rng.integers(4))]
            dims = int(rng.integers(1, 4))
            values = [rng.lognormal(-1.0, 1.5, int(rng.integers(0, 40))) for _ in range(dims)]
            for v in values:
                v[rng.uniform(size=v.size) < 0.1] = np.nan
            pools.append(SubjectPool(f"S{s_}", label, values))
        for threshold in (None, 0.5):
            try:
                want = group_stats_oracle(pools, cfg, threshold)
            except GroupUnavailable:  # nothing to pool at all
                with pytest.raises(GroupUnavailable):
                    group_stats(pools, cfg, threshold)
                continue
            assert group_stats(pools, cfg, threshold) == want


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_group_stats_in_small_chunks_matches_concatenated_reference(chunk):
    """Chunks far smaller than a pool send every median through several
    selection passes; ties, signs and wide ranges must give the medians
    and counts of the concatenated pools."""
    rng = np.random.default_rng(chunk)
    cfg = PipelineConfig(D=2)
    kinds = [
        lambda n: rng.lognormal(-1.0, 3.0, n),
        lambda n: rng.integers(-2, 3, n).astype(float),   # ties across chunks
        lambda n: rng.normal(0.0, 1.0, n) * 10.0 ** rng.integers(-300, 300, n),
        lambda n: np.full(n, 0.75),                        # one value
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_POOL_CHUNK", chunk)
        for trial in range(12):
            pools = []
            for s_ in range(int(rng.integers(1, 6))):
                label = ("control", "post_aclr", "unlabeled")[int(rng.integers(3))]
                values = [kinds[(trial + d) % len(kinds)](int(rng.integers(0, 30))) for d in range(2)]
                for v in values:
                    v[rng.uniform(size=v.size) < 0.1] = np.nan
                pools.append(SubjectPool(f"S{s_}", label, values))
            for threshold in (None, 0.5):
                try:
                    want = group_stats_oracle(pools, cfg, threshold)
                except GroupUnavailable:
                    with pytest.raises(GroupUnavailable):
                        group_stats(pools, cfg, threshold)
                    continue
                assert group_stats(pools, cfg, threshold) == want


def test_group_stats_working_set_is_bounded():
    # 6.4 MB of pooled values; pooling them into one array would need all of it
    rng = np.random.default_rng(4)
    pools = [_pool(("control", "post_aclr")[s_ % 2], rng.lognormal(0.0, 1.0, (2, 1000)))
             for s_ in range(400)]
    tracemalloc.start()
    try:
        group_stats(pools, PipelineConfig(D=2))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_group_stats_nothing_to_pool():
    with pytest.raises(GroupUnavailable):
        group_stats([_pool("control", [[]])], PipelineConfig(D=1))


def test_percent_change_formula():
    assert percent_change(0.364, 0.480) == pytest.approx(31.868131868131865)


def test_energy_amplitude_direct():
    assert energy_exchange_amplitude([1, 0, 0, 0], [2, 0, 0, 0], 2.0) == pytest.approx(1.0)


def test_energy_amplitude_orthogonal():
    assert energy_exchange_amplitude([1, 0, 0, 0], [0, 1, 0, 0], 2.0) == 0.0


def test_energy_amplitude_mass_normalization():
    a1 = energy_exchange_amplitude([1, 2, 3, 4], [4, 3, 2, 1], 1.0)
    a2 = energy_exchange_amplitude([1, 2, 3, 4], [4, 3, 2, 1], 2.0)
    assert a2 == pytest.approx(a1 / 2.0)


@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=4, max_size=4),
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
)
@settings(max_examples=60, deadline=None)
def test_energy_amplitude_homogeneity(rc, com, scale, mass):
    base = energy_exchange_amplitude(rc, com, mass)
    scaled = energy_exchange_amplitude([scale * x for x in rc], com, mass)
    assert scaled == pytest.approx(scale * base, rel=1e-9, abs=1e-12)
    heavier = energy_exchange_amplitude(rc, com, mass * scale)
    assert heavier == pytest.approx(base / scale, rel=1e-9, abs=1e-12)


def test_energy_amplitude_length_mismatch():
    with pytest.raises(ValueError):
        energy_exchange_amplitude([1, 2], [1, 2, 3], 1.0)


@pytest.fixture(scope="module")
def small_analysis():
    cfg = PipelineConfig(seed=21, N=27)
    ds = synthesize("stable", cfg, n_bursts=3, n_subjects=2, group_label="control")
    ds2 = synthesize(
        "stable", PipelineConfig(seed=22, N=27), n_bursts=3, n_subjects=2,
        group_label="post_aclr", subject_prefix="PST",
    )
    merged = type(ds)(bursts=ds.bursts + ds2.bursts, metadata={**ds.metadata, **ds2.metadata})
    result = analyze_dataset(merged, cfg)
    stats = group_stats(result.subjects, cfg)
    return cfg, result, stats


def test_emit_json_deterministic(tmp_path, small_analysis):
    cfg, result, stats = small_analysis
    p1 = emit(result.subjects, stats, "json", tmp_path / "a.json", cfg)[0]
    p2 = emit(result.subjects, stats, "json", tmp_path / "b.json", cfg)[0]
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_json_round_trips(small_analysis):
    cfg, result, stats = small_analysis
    text = report_json(result.subjects, stats, cfg)
    doc = json.loads(text)
    assert doc["schema_version"] == "1.0"
    rep = result.subjects[0]
    frame = doc["subjects"][0]["frames"][0]
    original = rep.frames[0].rc.rc_combined
    assert frame["rc_combined"] == pytest.approx(original, rel=1e-15)
    # every serialized float survives a parse round trip bit for bit
    assert json.loads(json.dumps(doc)) == doc


def test_emit_csv_row_count(tmp_path, small_analysis):
    cfg, result, stats = small_analysis
    paths = emit(result.subjects, stats, "csv", tmp_path, cfg)
    roots_csv = next(p for p in paths if p.name == "rc_roots.csv")
    lines = roots_csv.read_text().strip().splitlines()
    n_pairs = sum(len(r.frames) for r in result.subjects)
    assert len(lines) - 1 == n_pairs * cfg.D * 2 ** cfg.D


def test_emit_rejects_unknown_format(tmp_path, small_analysis):
    cfg, result, stats = small_analysis
    with pytest.raises(ValueError):
        emit(result.subjects, stats, "parquet", tmp_path, cfg)


def test_roots_table_has_explicit_nan_for_undefined(small_analysis):
    import copy

    cfg, result, _ = small_analysis
    rep = copy.deepcopy(result.subjects[0])
    rep.frames[0].rc.rc[0, :] = np.nan
    text = roots_table_csv([rep])
    assert ",nan" in text


def test_json_has_no_bare_nan(small_analysis):
    cfg, result, stats = small_analysis
    rep = result.subjects[0]
    text = report_json([rep], stats, cfg)
    json.loads(text)  # strict JSON: would fail on NaN/Infinity tokens


def test_frames_are_views_into_the_subject_columns():
    # what the benchmark reads of a report: each frame's values, writes into a
    # frame's categories that the next read of `frames` sees, and rc pools
    # that own their data, so keeping them keeps nothing else alive
    import copy

    cfg = PipelineConfig(seed=7, N=27)
    rep = analyze_dataset(synthesize("burst", cfg, n_bursts=5), cfg).subjects[0]
    doc = json.loads(report_json([rep], None, cfg))["subjects"][0]
    table = rep.frame_table
    assert len(rep.frames) == len(doc["frames"]) == 4
    assert any(fr.chains for fr in rep.frames)
    for p, (fr, fj) in enumerate(zip(rep.frames, doc["frames"])):
        assert fr.categories.base is table.categories
        assert np.array_equal(fr.categories, table.categories[p])
        assert {str(k): v for k, v in fr.pdi_counts.items()} == fj["pdi_counts"]
        assert [(c.start_index, c.length) for c in fr.chains] == [
            (c["start_index"], c["length"]) for c in fj["chains"]
        ]
        assert fr.gti.triggered is fj["gti"]["triggered"]
        assert fr.rc.rc_combined == fj["rc_combined"]
        assert fr.rc.rc.tolist() == fj["rc_roots"]
        assert fr.current_burst_index == fj["current_burst_index"]
        assert (fr.critical_short, fr.critical_long) == (fj["critical_short"], fj["critical_long"])
        assert fr.profile.kappa_combined.tolist() == [lv["kappa_combined"] for lv in fj["levels"]]

    flipped = copy.deepcopy(rep)
    flipped.frames[0].categories[0] = 10
    assert flipped.frames[0].categories[0] == 10
    assert rep.frames[0].categories[0] != 10

    assert len(rep.rc_values_per_dim) == cfg.D
    assert all(v.base is None for v in rep.rc_values_per_dim)
