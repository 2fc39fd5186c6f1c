"""Report emission: the JSON writer, the CSV fields and the dump rows.

Every text the package writes is compared byte for byte with the oracle
emitters of tests/oracles.py, which clean each value into Python types and
pass it to json.dumps, or format one numpy scalar per CSV field.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ddp.pipeline
from ddp import (
    Dataset,
    PipelineConfig,
    analyze_dataset,
    emit_xyzm,
    parse_xyzm,
    prescale_burst,
    synthesize,
    zoom_profile,
)
from ddp.cli import main
from ddp.curvature import classify_frame
from ddp.lengthscale import LengthScaleRoots
from ddp.pipeline import _dump_header, _roots_rows
import ddp.report
from ddp.report import (
    BoxplotStats,
    csv_field,
    csv_num,
    csv_nums,
    group_stats,
    group_stats_csv,
    json_text,
    report_json,
    roots_table_csv,
)

from oracles import (
    collect_dumps_oracle,
    group_stats_json_oracle,
    json_text_oracle,
    report_json_oracle,
    roots_dump_rows_oracle,
    roots_table_csv_oracle,
)

SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    math.nan, math.inf, -math.inf, 0.1, 1e16, 1e-7,
)

_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _floats,
    st.integers(),
    _floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.text(),
)
_arrays = st.one_of(
    st.lists(_floats, max_size=12).map(lambda v: np.array(v, dtype=float)),
    st.lists(_floats, min_size=2, max_size=12).map(lambda v: np.array(v[:len(v) // 2 * 2]).reshape(2, -1)),
    st.lists(st.integers(-2**31, 2**31), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
)
_values = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda inner: st.one_of(
        st.lists(inner, max_size=6),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(_floats, max_size=8),
        st.dictionaries(st.text(), inner, max_size=5),
    ),
    max_leaves=16,
)


@given(_values)
@settings(max_examples=150, deadline=None)
def test_json_text_matches_json_dumps_of_cleaned_values(value):
    assert json_text(value) == json_text_oracle(value)


@pytest.mark.parametrize("x", SPECIAL_FLOATS)
def test_json_text_special_floats(x):
    for value in (x, [x], [x, 1.5], [1.5, x], np.array([x, 2.0]), {"k": (x,)}):
        assert json_text(value) == json_text_oracle(value)


def test_json_text_strings_and_bools():
    text = 'é "q" \\ \x00\x1f  \U0001f600'
    value = {text: [text, True, False, None], "b": (True, 1, 1.0)}
    assert json_text(value) == json.dumps(value, indent=2)
    assert json_text([]) == "[]" and json_text({}) == "{}" and json_text(()) == "[]"
    assert json_text([[], {}, [[]]]) == json.dumps([[], {}, [[]]], indent=2)


@pytest.mark.parametrize(
    "bad", [np.bool_(True), {1, 2}, object(), 1j, b"x"],
    ids=["np.bool_", "set", "object", "complex", "bytes"],
)
def test_json_text_rejects_what_json_dumps_rejects(bad):
    for value in (bad, [bad], [1.5, bad], {"k": bad}, (2.5, 3.5, bad)):
        with pytest.raises(TypeError):
            json_text_oracle(value)
        with pytest.raises(TypeError):
            json_text(value)


_REPEATED = (0.5, -2.25, 1e300, 0.1, 5e-324)
_MIXED_LISTS = {
    "repeats with zeros": [0.5, 0.0, 0.5, -0.0, 0.5, -0.0, 0.0, 0.5],
    "repeats with non-finite": [0.5, math.nan, 0.5, math.inf, -math.inf, math.nan, 0.5, math.inf],
    "repeats with all": [0.1, 0.0, math.nan, 0.1, -0.0, -math.inf, 0.1, math.inf] * 3,
    "one item": [0.25],
    "one zero": [-0.0],
    "one nan": [math.nan],
    "all equal": [0.1] * 16,
    "all equal zeros": [-0.0] * 16,
    "all equal inf": [-math.inf] * 16,
    "each twice": [v for v in _REPEATED for _ in range(2)],
    "int among repeats": [1.0, 1.0, 1, 1.0],
    "float64 among repeats": [0.5, 0.5, np.float64(0.5), 0.5],
}


@pytest.mark.parametrize("values", _MIXED_LISTS.values(), ids=_MIXED_LISTS.keys())
def test_float_lists_with_repeats_match_the_oracles(values):
    """Each distinct float is formatted once, and the text stays that of
    one repr per item: 0.0 and -0.0 (which are equal keys), NaN, inf, and
    items that are not floats but equal to one keep their own text."""
    for value in (values, tuple(values), {"k": values}, [values, values]):
        assert json_text(value) == json_text_oracle(value)
    if all(type(v) is float for v in values):
        assert json_text(np.array(values)) == json_text_oracle(np.array(values))
        assert csv_nums(values) == [csv_num(v) for v in values]


def test_bool_among_repeated_floats_keeps_its_text():
    value = [1.0, 1.0, True, 1.0, 0.5, 0.5]   # True == 1.0 would share its key
    assert json_text(value) == json.dumps(value, indent=2)


@given(st.lists(st.sampled_from(SPECIAL_FLOATS + _REPEATED) | st.floats(), max_size=48))
@settings(max_examples=200, deadline=None)
def test_float_lists_match_the_oracles(values):
    assert json_text(values) == json_text_oracle(values)
    assert csv_nums(values) == [csv_num(v) for v in values]


def test_repeated_floats_are_formatted_once(monkeypatch):
    """A list of 16 copies each of 9 values, as a subject's RC values hold
    its medians, takes 9 reprs; a list with a zero takes one per item."""
    calls = []

    def counted(v):
        calls.append(v)
        return float.__repr__(v)

    monkeypatch.setattr(ddp.report, "_float_repr", counted)
    values = [0.1 * k for k in range(1, 10) for _ in range(16)]
    assert json_text(values) == json_text_oracle(values)
    assert len(calls) == 9
    expected = [csv_num(v) for v in values + [0.0]]
    calls.clear()
    assert csv_nums(values + [0.0]) == expected
    assert len(calls) == len(values) + 1


def test_json_text_rejects_non_str_keys():
    with pytest.raises(TypeError):
        json_text({(1, 2): 0.5})


def test_json_text_writes_a_dataclass_as_its_fields_in_order():
    box = BoxplotStats(q25=0.5, q75=1.5, whisker_low=-1.0, whisker_high=3.0, outliers=(4.0,))
    fields = {"q25": 0.5, "q75": 1.5, "whisker_low": -1.0, "whisker_high": 3.0, "outliers": [4.0]}
    # the iqr property is not a field, so it stays out
    assert json_text([box, None]) == json.dumps([fields, None], indent=2)
    with pytest.raises(TypeError):
        json_text(BoxplotStats)   # a dataclass type is not an instance


def _corpus(D, N, seed):
    """Two control and two post_aclr subjects with #com, through xyzm text."""
    cfg = PipelineConfig(D=D, N=N, seed=seed)
    parts = [
        synthesize("burst", cfg, n_bursts=3, n_subjects=2, group_label="control",
                   include_com=True, subject_prefix="CTL"),
        synthesize("stable", PipelineConfig(D=D, N=N, seed=seed + 1), n_bursts=3,
                   n_subjects=2, group_label="post_aclr", include_com=True, subject_prefix="ACL"),
    ]
    merged = Dataset(
        bursts=[b for ds in parts for b in ds.bursts],
        metadata={k: v for ds in parts for k, v in ds.metadata.items()},
    )
    return cfg, merged


def _dump_tables_oracle(ds, reports, cfg, kinds):
    """The dump tables from the per-pair oracle, called on each subject's zoom result."""
    rows = {kind: [] for kind in kinds}
    for rep in reports:
        zoom = zoom_profile([prescale_burst(b)[0] for b in ds.bursts_for(rep.subject_id)], cfg)
        th = zoom.thresholds
        cls = classify_frame(
            zoom.kappa_median, th.kappa_short, th.kappa_long, th.defined, zoom.dh.swapaxes(1, 2)
        )
        for p, fr in enumerate(rep.frames):
            collect_dumps_oracle(
                rows, rep.subject_id, fr.current_burst_index, zoom, p, cls, fr.categories
            )
    return {kind: "\n".join([_dump_header(kind, cfg)] + rows[kind]) + "\n" for kind in kinds}


@pytest.mark.parametrize("D,N,seed", [(3, 27, 4), (4, 27, 7)])
def test_outputs_match_oracle_emitters(D, N, seed, tmp_path, capsys):
    cfg, ds = _corpus(D, N, seed)
    kinds = ddp.pipeline.DUMP_KINDS
    result = analyze_dataset(ds, cfg, dumps=kinds)
    stats = group_stats(result.subjects, cfg)
    report = report_json(result.subjects, stats, cfg)
    assert report == report_json_oracle(result.subjects, stats, cfg)
    assert roots_table_csv(result.subjects) == roots_table_csv_oracle(result.subjects)
    for pinned in (None, 0.5):
        gs = group_stats(result.subjects, cfg, threshold=pinned)
        assert json_text(gs) + "\n" == group_stats_json_oracle(gs)

    want = _dump_tables_oracle(ds, result.subjects, cfg, kinds)
    for kind in kinds:
        assert result.dumps[kind] == want[kind], kind

    reports = tmp_path / "reports"
    reports.mkdir()
    (reports / "r.json").write_text(report)
    for fmt, expected in (
        ("json", group_stats_json_oracle(stats)),
        ("csv", group_stats_csv(stats, cfg)),
    ):
        assert main(["stats", "--reports", str(reports), "--format", fmt]) == 0
        assert capsys.readouterr().out == expected


def test_synth_injections_json(tmp_path, capsys):
    assert main(["synth", "--profile", "burst", "--seed", "3", "--subjects", "2",
                 "--bursts", "3", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    ds = synthesize("burst", PipelineConfig(seed=3), n_bursts=3, n_subjects=2)
    want = {
        sid: {
            "burst_index": m.injection.burst_index,
            "time_index": m.injection.time_index,
            "dimension": m.injection.dimension,
            "drop_fraction": m.injection.drop_fraction,
        }
        for sid, m in ds.metadata.items()
    }
    assert (tmp_path / "injections.json").read_text() == json.dumps(want, indent=2) + "\n"


def test_rc_roots_with_special_floats_match_oracles():
    # served frames give finite rc values; here the 4 pairs x 3 dimensions
    # hold every special float once, which rc_roots in the JSON report and
    # the roots CSV repeat for each of the 8 roots of a dimension
    cfg = PipelineConfig(D=3, N=27, seed=5)
    rep = analyze_dataset(synthesize("burst", cfg, n_bursts=5), cfg).subjects[0]
    rc = rep.frame_table.rc.rc_per_dim   # each frame's rc is a view into it
    assert rc.size == len(SPECIAL_FLOATS)
    rc.flat[:] = np.random.default_rng(0).permutation(np.array(SPECIAL_FLOATS))
    assert roots_table_csv([rep]) == roots_table_csv_oracle([rep])
    assert report_json([rep], None, cfg) == report_json_oracle([rep], None, cfg)


@given(st.text(alphabet='ab ,"\r\n\té;', max_size=8))
@settings(max_examples=100, deadline=None)
def test_csv_field_quotes_as_csv_writer(text):
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    assert buf.getvalue() == csv_field(text) + ",\r\n"


def test_csv_rows_keep_header_width_with_awkward_subject_id():
    sid = 'knee,left "A"'
    cfg = PipelineConfig(N=27, seed=2)
    text = emit_xyzm(synthesize("burst", cfg, n_bursts=3, include_com=True))
    text = text.replace("#subject SYN000", f"#subject {sid}")
    result = analyze_dataset(parse_xyzm(text, cfg), cfg, dumps=ddp.pipeline.DUMP_KINDS)
    assert result.subjects[0].subject_id == sid
    tables = dict(result.dumps, rc_roots=roots_table_csv(result.subjects))
    for name, table in tables.items():
        header, *rows = csv.reader(io.StringIO(table))
        assert rows, name
        for row in rows:
            assert len(row) == len(header), (name, row)
            assert row[0] == sid, name
    plain = analyze_dataset(parse_xyzm(text.replace(sid, "knee left A"), cfg), cfg)
    assert roots_table_csv(plain.subjects) == roots_table_csv_oracle(plain.subjects)


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_roots_rows_match_expanded_vectors(D):
    # one vector per point of either sign, with -0.0, subnormals, extremes,
    # nan and inf, sentinel dimensions (+inf) and one label per point, every
    # label present; point 0 holds 0.0 and point 1 -0.0 in dimension 0
    rng = np.random.default_rng(D)
    n = 24
    x = rng.standard_normal((n, D)) * 10.0 ** rng.integers(-300, 300, (n, D))
    special = np.array(SPECIAL_FLOATS)
    pick = rng.uniform(size=x.shape) < 0.4
    x[pick] = rng.choice(special, size=int(pick.sum()))
    x[0, 0], x[1, 0] = 0.0, -0.0
    sentinel = rng.uniform(size=(n, D)) < 0.15
    sentinel[:2, 0] = False
    x[sentinel] = np.inf
    label = np.resize(np.arange(3, dtype=np.uint8), n)
    rng.shuffle(label)
    lsr = LengthScaleRoots(x=x, sentinel=sentinel, label=label)
    head = '"a,b",7,'
    heads = [f"{head}{a}," for a in range(n)]
    assert _roots_rows(heads, lsr) == roots_dump_rows_oracle(head, lsr)
