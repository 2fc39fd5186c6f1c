import json
import logging
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from ddp import (
    DataBurst,
    Dataset,
    PipelineConfig,
    SubjectMeta,
    ValidationError,
    analyze_dataset,
    analyze_subject,
    emit_xyzm,
    solve_roots,
    synthesize,
)
import ddp.zoomout
from ddp.cli import main
from ddp.pipeline import DUMP_KINDS
from ddp.report import report_json, roots_table_csv

from oracles import refine_roots_oracle


def test_analyze_frame_count_matches_pairs():
    cfg = PipelineConfig(seed=13, N=27)
    ds = synthesize("stable", cfg, n_bursts=5)
    res = analyze_dataset(ds, cfg)
    assert len(res.subjects) == 1
    assert len(res.subjects[0].frames) == 4


def test_analyze_respects_stride():
    cfg = PipelineConfig(seed=13, N=27, stride_n=2)
    ds = synthesize("stable", cfg, n_bursts=5)
    res = analyze_dataset(ds, cfg)
    frames = res.subjects[0].frames
    assert len(frames) == 3
    assert frames[0].previous_burst_index == 0
    assert frames[0].current_burst_index == 2
    assert frames[0].dt_span == pytest.approx(2.0)


def test_analyze_subject_without_history_reports_empty():
    cfg = PipelineConfig(seed=1, N=27)
    ds = synthesize("stable", cfg, n_bursts=1)
    res = analyze_dataset(ds, cfg)
    rep = res.subjects[0]
    assert rep.frames == []
    assert rep.pdi_histogram == {}
    assert np.all(np.isnan(rep.rc_median_per_dim))


@pytest.mark.parametrize("stride, n_bursts", [(s, b) for s in (1, 2, 3) for b in range(s + 1)])
def test_subject_without_frame_pair_reports_empty_columns(stride, n_bursts):
    """At most `stride` bursts give a frame table of P = 0 through every writer."""
    cfg = PipelineConfig(seed=5, N=27, stride_n=stride)
    bursts = synthesize("stable", cfg, n_bursts=max(n_bursts, 1), include_com=True).bursts
    meta = SubjectMeta(com_displacement={0: np.ones(cfg.D)})
    rep, rows = analyze_subject("S", bursts[:n_bursts], meta, cfg, dumps=DUMP_KINDS)
    assert rep.frames == []
    assert rep.frame_table.categories.shape == (0, cfg.N)
    assert rep.pdi_histogram == {} and rep.energy_exchange_amplitudes == {}
    sub = json.loads(report_json([rep], None, cfg))["subjects"][0]
    assert sub["frames"] == [] and sub["n_bursts"] == n_bursts
    assert sub["rc_values_per_dim"] == [[]] * cfg.D
    assert sub["rc_median_per_dim"] == [None] * cfg.D and sub["rc_combined_median"] is None
    assert roots_table_csv([rep]) == "subject_id,group_label,burst_index,dimension,root_index,rc\n"
    assert rows == {kind: [] for kind in DUMP_KINDS}
    if n_bursts:
        dumps = analyze_dataset(Dataset(bursts=bursts[:n_bursts]), cfg, dumps=DUMP_KINDS).dumps
        assert all(text.count("\n") == 1 for text in dumps.values())   # the header only


def test_analyze_rejects_wrong_burst_size():
    cfg = PipelineConfig(N=81)
    ds = Dataset(bursts=[DataBurst(values=np.ones((27, 4)), burst_index=b) for b in range(2)])
    with pytest.raises(ValidationError):
        analyze_dataset(ds, cfg)


def test_prescale_factors_recorded_per_burst():
    cfg = PipelineConfig(seed=3, N=27)
    ds = synthesize("stable", cfg, n_bursts=3)
    rep = analyze_dataset(ds, cfg).subjects[0]
    assert len(rep.prescale_factors) == 3
    for div, burst in zip(rep.prescale_factors, ds.bursts):
        np.testing.assert_allclose(div, np.max(np.abs(burst.values), axis=0))


def test_energy_amplitudes_when_com_present():
    cfg = PipelineConfig(seed=9, N=27)
    ds = synthesize("stable", cfg, n_bursts=3, include_com=True)
    rep = analyze_dataset(ds, cfg).subjects[0]
    assert set(rep.energy_exchange_amplitudes) == {1, 2}
    assert all(v >= 0.0 for v in rep.energy_exchange_amplitudes.values())


def test_dump_tables_shapes():
    cfg = PipelineConfig(seed=23, N=27)
    ds = synthesize("stable", cfg, n_bursts=3)
    res = analyze_dataset(ds, cfg, dumps=("borda", "roots", "pdi", "zoom"))
    n_pairs = 2
    borda = res.dumps["borda"].strip().splitlines()
    assert len(borda) - 1 == n_pairs * cfg.D * cfg.N
    roots = res.dumps["roots"].strip().splitlines()
    assert len(roots) - 1 == n_pairs * cfg.N * 2 ** cfg.D
    pdi = res.dumps["pdi"].strip().splitlines()
    assert len(pdi) - 1 == n_pairs * cfg.N
    zoom = res.dumps["zoom"].strip().splitlines()
    assert len(zoom) - 1 == n_pairs * 2  # levels 27 and 9
    assert borda[0].startswith("subject_id,burst_index,dimension,point")


def test_dump_unknown_kind_rejected():
    cfg = PipelineConfig(seed=23, N=27)
    ds = synthesize("stable", cfg, n_bursts=2)
    with pytest.raises(ValidationError):
        analyze_dataset(ds, cfg, dumps=("everything",))


# --- closed-form roots against the iterated oracle ------------------------


def _noise_dataset(cfg, n_bursts, draw):
    return Dataset(
        bursts=[DataBurst(values=draw((cfg.N, cfg.D)), burst_index=b) for b in range(n_bursts)]
    )


def _scaled(ds, scale):
    return Dataset(
        bursts=[DataBurst(values=b.values * scale, burst_index=b.burst_index) for b in ds.bursts]
    )


def _adversarial_cases():
    rng = np.random.default_rng(5)
    cfg = PipelineConfig(seed=5)
    stable = synthesize("stable", cfg, n_bursts=4)
    zero_col = _scaled(stable, np.array([1.0, 1.0, 0.0, 1.0]))
    cfg3 = PipelineConfig(D=3, seed=6)
    cfg5 = PipelineConfig(D=5, N=243, seed=8)
    return {
        "signed_noise": (cfg, _noise_dataset(cfg, 4, lambda s: rng.normal(0.0, 1.0, s))),
        "zero_column": (cfg, zero_col),
        "huge": (cfg, _scaled(stable, 1e300)),
        "tiny": (cfg, _scaled(stable, 1e-300)),
        "mixed_scales": (cfg, _scaled(stable, np.array([1e-6, 1.0, 1e3, 1e8]))),
        "cauchy": (cfg, _noise_dataset(cfg, 4, rng.standard_cauchy)),
        "d3_burst": (cfg3, synthesize("burst", cfg3, n_bursts=4)),
        "d5_n243": (cfg5, synthesize("burst", cfg5, n_bursts=3)),
    }


def _analyze_with(solver, monkeypatch, ds, cfg):
    labels = []

    def counting(r, dh):
        out = solver(r, dh)
        labels.append(out.convergence.ravel())
        return out

    monkeypatch.setattr(ddp.zoomout, "solve_roots", counting)
    return analyze_dataset(ds, cfg).subjects, np.concatenate(labels)


@pytest.mark.parametrize(
    "case",
    ["signed_noise", "zero_column", "huge", "tiny", "mixed_scales", "cauchy", "d3_burst", "d5_n243"],
)
def test_closed_form_roots_match_iteration_end_to_end(case, monkeypatch):
    cfg, ds = _adversarial_cases()[case]
    got, got_labels = _analyze_with(solve_roots, monkeypatch, ds, cfg)
    ref, ref_labels = _analyze_with(
        lambda r, dh: refine_roots_oracle(r, dh).collapse(), monkeypatch, ds, cfg
    )
    np.testing.assert_array_equal(got_labels, ref_labels)
    for rep_got, rep_ref in zip(got, ref, strict=True):
        for a, b in zip(rep_got.frames, rep_ref.frames, strict=True):
            np.testing.assert_array_equal(a.categories, b.categories)
            assert a.chains == b.chains
            assert a.gti.triggered == b.gti.triggered
            np.testing.assert_allclose(a.rc.rc_per_dim, b.rc.rc_per_dim, rtol=1e-8, atol=0)
            np.testing.assert_allclose(
                [a.critical_short, a.critical_long],
                [b.critical_short, b.critical_long],
                rtol=1e-8,
                atol=0,
            )


# --- command line ---------------------------------------------------------


def test_cli_synth_analyze_stats_round_trip(tmp_path, capsys):
    corpus_a = tmp_path / "control"
    corpus_b = tmp_path / "post"
    assert main(["synth", "--profile", "stable", "--seed", "3", "--out", str(corpus_a),
                 "--subjects", "2", "--bursts", "3", "--burst-len", "27",
                 "--group", "control", "--prefix", "CTL"]) == 0
    assert main(["synth", "--profile", "stable", "--seed", "4", "--out", str(corpus_b),
                 "--subjects", "2", "--bursts", "3", "--burst-len", "27",
                 "--group", "post_aclr", "--prefix", "PST"]) == 0
    assert len(list(corpus_a.glob("*.xyzm"))) == 2

    # one subject per file; merge both corpora in a single directory
    merged = tmp_path / "all"
    merged.mkdir()
    for f in list(corpus_a.glob("*.xyzm")):
        (merged / f"a_{f.name}").write_text(f.read_text())
    for f in list(corpus_b.glob("*.xyzm")):
        (merged / f"b_{f.name}").write_text(f.read_text())

    report_path = tmp_path / "report.json"
    assert main(["analyze", "--input", str(merged), "--burst-len", "27",
                 "--out", str(report_path), "--dump", "zoom"]) == 0
    assert report_path.exists()
    assert (tmp_path / "dump_zoom.csv").exists()
    doc = json.loads(report_path.read_text())
    assert len(doc["subjects"]) == 4
    assert doc["group_stats"] is not None

    stats_csv = tmp_path / "stats.csv"
    assert main(["stats", "--reports", str(tmp_path), "--groups", "control,post_aclr",
                 "--format", "csv", "--out", str(stats_csv)]) == 0
    text = stats_csv.read_text()
    assert text.startswith("group,dimension,")
    assert "control," in text and "post_aclr," in text
    capsys.readouterr()


@pytest.mark.parametrize("fmt,written", [
    ("json", ["dump_pdi.csv", "report.json"]),
    ("csv", ["dump_pdi.csv", "rc_roots.csv"]),
])
def test_cli_analyze_out_with_a_dot_is_a_directory(fmt, written, tmp_path, capsys):
    """Only a destination ending in .json names a file; every output lands in one directory."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "--profile", "stable", "--seed", "3", "--out", str(corpus),
                 "--bursts", "3", "--burst-len", "27"]) == 0
    out = tmp_path / "results.v2"
    assert main(["analyze", "--input", str(corpus), "--burst-len", "27", "--format", fmt,
                 "--dump", "pdi", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "results.v2"]
    capsys.readouterr()


def test_cli_synth_burst_writes_injections(tmp_path):
    out = tmp_path / "c"
    assert main(["synth", "--profile", "burst", "--seed", "5", "--out", str(out),
                 "--bursts", "4", "--burst-len", "27"]) == 0
    inj = json.loads((out / "injections.json").read_text())
    assert list(inj) == ["SYN000"]
    assert inj["SYN000"]["burst_index"] == 2


def test_cli_analyze_missing_input(tmp_path, capsys):
    assert main(["analyze", "--input", str(tmp_path / "nope.xyzm")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("as_dir", [False, True])
def test_cli_analyze_rejects_file_that_is_not_utf8(as_dir, tmp_path, capsys):
    bad = tmp_path / "latin1.xyzm"
    bad.write_bytes("#subject Sé\n0 0 0 0\n".encode("latin-1"))
    assert main(["analyze", "--input", str(tmp_path if as_dir else bad),
                 "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "latin1.xyzm" in err and "UTF-8" in err


def test_cli_stats_missing_reports(tmp_path, capsys):
    assert main(["stats", "--reports", str(tmp_path / "nope")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope" in err


def test_cli_analyze_skips_directory_matching_glob(tmp_path, capsys):
    (tmp_path / "a.xyzm").mkdir()
    assert main(["analyze", "--input", str(tmp_path), "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err.startswith("error: no .xyzm files")


def test_cli_stats_skips_directory_matching_glob(tmp_path, capsys):
    (tmp_path / "sub.json").mkdir()
    assert main(["stats", "--reports", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: no report .json files")


def _stats_doc(columns, **config):
    return json.dumps({
        "config": {**asdict(PipelineConfig()), **config},
        "subjects": [{"subject_id": "a", "group_label": "control", "rc_values_per_dim": columns}],
    })


@pytest.mark.parametrize("text", [
    '{"subjects": [',
    "[1, 2]",
    '{"subjects": [1]}',
    '{"subjects": 5}',
    '{"subjects": [{"subject_id": "a", "group_label": "control", "rc_values_per_dim": 5}]}',
    json.dumps({"config": {**asdict(PipelineConfig()), "D": "x"}, "subjects": []}),
    _stats_doc([[0.5], [0.5], [0.5], [0.5]], D=4.0),
    _stats_doc([[[0.5, 0.6]], [0.5], [0.5], [0.5]]),
    _stats_doc([[0.5, True], [0.5], [0.5], [0.5]]),
    _stats_doc([[0.5, "1.5"], [0.5], [0.5], [0.5]]),
    _stats_doc([[0.5], [0.5], [0.5]], D=2),
    _stats_doc([[0.5, 10**400], [0.5], [0.5], [0.5]]),
])
def test_cli_stats_rejects_malformed_report(text, tmp_path, capsys):
    (tmp_path / "broken.json").write_text(text, encoding="utf-8")
    assert main(["stats", "--reports", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed report") and "broken.json" in err


def test_cli_stats_rejects_subject_without_id(tmp_path, capsys):
    doc = {"subjects": [{"group_label": "control", "rc_values_per_dim": [[0.5]]}]}
    (tmp_path / "noid.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["stats", "--reports", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "noid.json" in err and "subject_id" in err


@pytest.mark.parametrize("fmt,written", [
    ("json", ["report.json"]),
    ("csv", ["rc_roots.csv"]),
])
def test_cli_analyze_without_rc_values_writes_no_group_stats(fmt, written, tmp_path, capsys, caplog):
    # one burst per subject: no frame pair, so no group has an RC value
    corpus = tmp_path / "corpus"
    assert main(["synth", "--profile", "stable", "--subjects", "2", "--bursts", "1",
                 "--burst-len", "27", "--group", "control", "--out", str(corpus)]) == 0
    out = tmp_path / "out"
    assert main(["analyze", "--input", str(corpus), "--burst-len", "27", "--format", fmt,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == written
    assert "no residual-curvature values in any group" in caplog.text
    if fmt == "json":
        doc = json.loads((out / "report.json").read_text())
        assert [s["subject_id"] for s in doc["subjects"]] == ["SYN000", "SYN001"]
        assert doc["group_stats"] is None


def test_cli_prints_warnings_as_prefixed_lines(tmp_path, capsys):
    """The single-burst control repro warns that it writes no group
    statistics; with the #mass line removed, ingest warns too."""
    corpus = tmp_path / "corpus"
    assert main(["synth", "--profile", "stable", "--subjects", "1", "--bursts", "1",
                 "--burst-len", "27", "--group", "control", "--out", str(corpus)]) == 0
    xyzm = corpus / "SYN000.xyzm"
    xyzm.write_text("".join(line for line in xyzm.read_text().splitlines(keepends=True)
                            if not line.startswith("#mass")))
    capsys.readouterr()
    assert main(["analyze", "--input", str(corpus), "--burst-len", "27",
                 "--out", str(tmp_path / "out")]) == 0
    out, err = capsys.readouterr()
    assert out == f"{tmp_path / 'out' / 'report.json'}\n"
    assert err == (
        "warning: subject SYN000 has no #mass directive; defaulting to 1.0 kg\n"
        "warning: writing no group statistics: no residual-curvature values in any group\n"
    )
    assert not logging.getLogger("ddp").handlers   # the handler lasts one call


def _analyzed_report(tmp_path, name, *, dims, group):
    corpus = tmp_path / f"corpus_{name}"
    assert main(["synth", "--profile", "stable", "--seed", "3", "--bursts", "3", "--burst-len", "27",
                 "--dims", str(dims), "--group", group, "--out", str(corpus)]) == 0
    out = tmp_path / "reports" / f"{name}.json"
    assert main(["analyze", "--input", str(corpus), "--burst-len", "27", "--dims", str(dims),
                 "--out", str(out)]) == 0
    return out


def test_cli_stats_rejects_reports_analyzed_with_different_configs(tmp_path, capsys):
    first = _analyzed_report(tmp_path, "a", dims=4, group="control")
    other = _analyzed_report(tmp_path, "b", dims=2, group="post_aclr")
    capsys.readouterr()
    assert main(["stats", "--reports", str(first.parent)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: report {other} was analyzed with D=2, but {first} with D=4")


def test_cli_stats_pools_a_report_holding_removed_config_keys(tmp_path, capsys):
    first = _analyzed_report(tmp_path, "a", dims=4, group="control")
    other = _analyzed_report(tmp_path, "b", dims=4, group="post_aclr")
    doc = json.loads(other.read_text())
    doc["config"].update(refinement_max_iter=100, refinement_tol=1e-10)
    other.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["stats", "--reports", str(first.parent)]) == 0
    text = capsys.readouterr().out
    assert "control," in text and "post_aclr," in text



def test_cli_stats_pools_a_report_at_the_method_constants(tmp_path, capsys):
    # the golden report was written when the four constants were settable
    golden = json.loads((Path(__file__).with_name("golden") / "report_seed7.json").read_text())
    doc = golden["stable"]["report"]
    assert doc["config"] == json.loads(json.dumps(asdict(PipelineConfig(seed=7))))
    assert list(doc["config"]) == [
        "D", "N", "stride_n", "aggregation_factor", "drop_threshold",
        "rc_threshold_multiplier", "bin_edges", "epsilon_denominator", "seed",
    ]
    for sub, label in zip(doc["subjects"], ("control", "post_aclr")):
        sub["group_label"] = label
    (tmp_path / "older.json").write_text(json.dumps(doc))
    assert main(["stats", "--reports", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "control," in out and "post_aclr," in out


@pytest.mark.parametrize("name,value", [
    ("aggregation_factor", 2),
    ("drop_threshold", 0.5),
    ("rc_threshold_multiplier", 5.0),
    ("bin_edges", [0.3, 1.5]),
])
def test_cli_stats_refuses_a_report_at_another_method_constant(name, value, tmp_path, capsys):
    report = _analyzed_report(tmp_path, "a", dims=4, group="control")
    doc = json.loads(report.read_text())
    doc["config"][name] = value
    report.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["stats", "--reports", str(report.parent)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: report {report} was analyzed with {name}={value!r}, "
                          f"but this version with {name}=")


def test_cli_stats_pools_a_well_formed_hand_written_report(tmp_path, capsys):
    (tmp_path / "ok.json").write_text(_stats_doc([[0.5, None, 1], [0.5], [], [0.5]]))
    assert main(["stats", "--reports", str(tmp_path)]) == 0
    assert "control," in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["analyze", "--input", "{corpus}", "--burst-len", "27", "--out", "{blocker}/report.json"],
    ["synth", "--profile", "stable", "--burst-len", "27", "--out", "{blocker}"],
])
def test_cli_reports_os_errors_as_error_lines(command, tmp_path, capsys):
    corpus, blocker = tmp_path / "corpus", tmp_path / "blocker"
    assert main(["synth", "--profile", "stable", "--bursts", "2", "--burst-len", "27",
                 "--out", str(corpus)]) == 0
    blocker.write_text("a file, not a directory")
    capsys.readouterr()
    argv = [a.format(corpus=corpus, blocker=blocker) for a in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err

def test_cli_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["synth", "--profile", "drift", "--seed", "8", "--out", str(a),
          "--bursts", "3", "--burst-len", "27"])
    main(["synth", "--profile", "drift", "--seed", "8", "--out", str(b),
          "--bursts", "3", "--burst-len", "27"])
    fa = sorted(a.glob("*.xyzm"))[0]
    fb = sorted(b.glob("*.xyzm"))[0]
    assert fa.read_bytes() == fb.read_bytes()


def test_cli_subject_split_across_files_keeps_com(tmp_path, capsys):
    cfg = PipelineConfig(seed=9, N=27)
    ds = synthesize("stable", cfg, n_bursts=4, include_com=True)
    assert len(ds.metadata["SYN000"].com_displacement) == 4
    (tmp_path / "whole.xyzm").write_text(emit_xyzm(ds))
    split = tmp_path / "split"
    split.mkdir()
    for name, part in (("a", ds.bursts[:2]), ("b", ds.bursts[2:])):
        (split / f"{name}.xyzm").write_text(emit_xyzm(Dataset(bursts=part, metadata=ds.metadata)))
    reports = []
    for source in (tmp_path / "whole.xyzm", split):
        out = tmp_path / f"{source.stem}.json"
        assert main(["analyze", "--input", str(source), "--burst-len", "27", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]
    amplitudes = json.loads(reports[0])["subjects"][0]["energy_exchange_amplitudes"]
    assert list(amplitudes) == ["1", "2", "3"]


def test_cli_parse_error_names_its_file(tmp_path, capsys):
    cfg = PipelineConfig(seed=9, N=27)
    text = emit_xyzm(synthesize("stable", cfg, n_bursts=2))
    (tmp_path / "a.xyzm").write_text(text)
    lines = text.splitlines()
    lines[20] = "0.1 0.2 x 0.4"
    (tmp_path / "b.xyzm").write_text("\n".join(lines) + "\n")
    assert main(["analyze", "--input", str(tmp_path), "--burst-len", "27",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'b.xyzm'}: line 21: malformed numeric token")
