import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddp import (
    DataBurst,
    Dataset,
    ParseError,
    PipelineConfig,
    TruncationError,
    ValidationError,
    analyze_dataset,
    emit_xyzm,
    parse_xyzm,
    parse_xyzm_files,
    prescale_burst,
    synthesize,
)

from oracles import parse_xyzm_oracle

CFG9 = PipelineConfig(N=9)


def _lines(n, d=4, start=0.0):
    return "\n".join(
        " ".join(str(start + 0.01 * (i * d + j)) for j in range(d)) for i in range(n)
    )


def test_parse_single_line_values():
    text = "#subject s1\n" + _lines(8) + "\n0.470 0.364 0.422 0.036\n"
    ds = parse_xyzm(text, CFG9)
    assert len(ds.bursts) == 1
    np.testing.assert_allclose(ds.bursts[0].values[-1], [0.470, 0.364, 0.422, 0.036])


def test_parse_81_lines_single_burst():
    cfg = PipelineConfig(N=81)
    ds = parse_xyzm(_lines(81), cfg)
    assert len(ds.bursts) == 1
    assert ds.bursts[0].n_points == 81


def test_parse_two_bursts_and_indices():
    ds = parse_xyzm(_lines(18), CFG9)
    assert [b.burst_index for b in ds.bursts] == [0, 1]


def test_malformed_token_carries_line_number():
    text = _lines(3) + "\n0.1 abc 0.3 0.4\n"
    with pytest.raises(ParseError) as err:
        parse_xyzm(text, CFG9)
    assert err.value.line_number == 4


@pytest.mark.parametrize("bad, error, line", [
    ("0.1 abc 0.3 0.4", ParseError, 5), ("0.1 nan 0.3 0.4", ValidationError, 5),
])
def test_file_errors_name_their_file(tmp_path, bad, error, line):
    paths = [tmp_path / "a.xyzm", tmp_path / "b.xyzm"]
    paths[0].write_text(_lines(9) + "\n")
    paths[1].write_text("#subject S\n" + _lines(3) + f"\n{bad}\n")
    with pytest.raises(ParseError) as err:
        parse_xyzm_files(paths, CFG9)
    assert type(err.value) is error and err.value.line_number == line
    assert str(err.value).startswith(f"{paths[1]}: line {line}: ")
    with pytest.raises(error, match=f"^line {line}: "):   # one stream: no name to add
        parse_xyzm(paths[1].read_text(), CFG9)


def test_files_parse_as_one_input(tmp_path, caplog):
    # each file starts from the default directives; burst numbers, #com and
    # #mass of a subject carry over, and the #mass warning is checked once
    first = "#subject S\n#mass 70.0\n#dt 0.5\n#com 1 2 3 4\n" + _lines(9) + "\n"
    second = "#subject S\n" + _lines(9, start=1.0) + "\n#subject T\n" + _lines(9) + "\n"
    paths = [tmp_path / "a.xyzm", tmp_path / "b.xyzm"]
    paths[0].write_text(first)
    paths[1].write_text(second)
    with caplog.at_level("WARNING", logger="ddp.ingest"):
        ds = parse_xyzm_files(paths, CFG9)
    assert [r.getMessage() for r in caplog.records] == [
        "subject T has no #mass directive; defaulting to 1.0 kg"
    ]
    assert [(b.subject_id, b.burst_index, b.dt) for b in ds.bursts] == [
        ("S", 0, 0.5), ("S", 1, 1.0), ("T", 0, 1.0)
    ]
    assert ds.metadata["S"].mass == 70.0 and not ds.metadata["S"].mass_defaulted
    assert list(ds.metadata["S"].com_displacement) == [0]
    _same_dataset(parse_xyzm(first + "#dt 1.0\n#com none\n" + second, CFG9), ds)


def test_wrong_width_rejected():
    with pytest.raises(ParseError):
        parse_xyzm("1.0 2.0 3.0\n", CFG9)


def test_non_finite_value_rejected():
    text = "0.1 nan 0.3 0.4\n"
    with pytest.raises(ValidationError):
        parse_xyzm(text, CFG9)


def test_truncated_burst_rejected():
    with pytest.raises(TruncationError):
        parse_xyzm(_lines(5), CFG9)


def test_subject_switch_mid_burst_rejected():
    text = _lines(4) + "\n#subject other\n" + _lines(5)
    with pytest.raises(TruncationError):
        parse_xyzm(text, CFG9)


def test_directives_applied():
    text = (
        "#subject s7\n#mass 70.5\n#dt 0.00625\n#group control\n"
        "#com 0.1 0.2 0.3 0.4\n" + _lines(9) + "\n#com none\n" + _lines(9)
    )
    ds = parse_xyzm(text, CFG9)
    b0, b1 = ds.bursts
    assert b0.subject_id == "s7" and b0.group_label == "control"
    assert b0.dt == pytest.approx(0.00625)
    meta = ds.metadata["s7"]
    assert meta.mass == pytest.approx(70.5) and not meta.mass_defaulted
    np.testing.assert_allclose(meta.com_displacement[0], [0.1, 0.2, 0.3, 0.4])
    assert 1 not in meta.com_displacement


def test_unknown_directive_is_comment():
    ds = parse_xyzm("# free-form note\n#whatever 12\n" + _lines(9), CFG9)
    assert len(ds.bursts) == 1


def test_bad_group_label_rejected():
    with pytest.raises(ParseError):
        parse_xyzm("#group sideways\n" + _lines(9), CFG9)


def test_parse_accepts_file_object():
    ds = parse_xyzm(io.StringIO(_lines(9)), CFG9)
    assert len(ds.bursts) == 1


def test_round_trip_is_exact():
    cfg = PipelineConfig(N=9, seed=31)
    ds = synthesize("burst", cfg, n_bursts=3, n_subjects=2, include_com=True,
                    group_label="control")
    text = emit_xyzm(ds)
    again = parse_xyzm(text, cfg)
    assert emit_xyzm(again) == text
    for b1, b2 in zip(ds.bursts, again.bursts):
        assert np.array_equal(b1.values, b2.values)
        assert b1.dt == b2.dt and b1.group_label == b2.group_label
    for sid in ds.subjects():
        m1, m2 = ds.metadata[sid], again.metadata[sid]
        assert m1.mass == m2.mass
        assert set(m1.com_displacement) == set(m2.com_displacement)
        for k in m1.com_displacement:
            assert np.array_equal(m1.com_displacement[k], m2.com_displacement[k])


def _frame_pairs(n_bursts, stride):
    cfg = PipelineConfig(seed=4, N=9, stride_n=stride)
    frames = analyze_dataset(synthesize("stable", cfg, n_bursts=n_bursts), cfg).subjects[0].frames
    return [(f.previous_burst_index, f.current_burst_index) for f in frames]


def test_frame_pairs_stride_one():
    assert _frame_pairs(3, 1) == [(0, 1), (1, 2)]


def test_frame_pairs_stride_two():
    assert _frame_pairs(3, 2) == [(0, 2)]


def test_frame_pairs_insufficient_history_empty():
    # a subject with at most `stride` bursts yields no frame and no error
    assert _frame_pairs(1, 1) == []
    assert _frame_pairs(2, 2) == []


@pytest.mark.parametrize("n_bursts,stride", [(1, 1), (4, 1), (7, 3), (2, 5)])
def test_frame_pairs_count_law(n_bursts, stride):
    assert _frame_pairs(n_bursts, stride) == [(t - stride, t) for t in range(stride, n_bursts)]


def test_synthesize_deterministic():
    cfg = PipelineConfig(seed=11, N=9)
    d1 = synthesize("stable", cfg, n_bursts=4)
    d2 = synthesize("stable", cfg, n_bursts=4)
    for b1, b2 in zip(d1.bursts, d2.bursts):
        assert np.array_equal(b1.values, b2.values)


def test_synthesize_shapes_and_finiteness():
    cfg = PipelineConfig(seed=1, N=81)
    ds = synthesize("stable", cfg, n_bursts=10)
    assert len(ds.bursts) == 10
    for b in ds.bursts:
        assert b.values.shape == (81, 4)
        assert np.all(np.isfinite(b.values))


def test_synthesize_burst_records_injection():
    cfg = PipelineConfig(seed=2, N=81)
    ds = synthesize("burst", cfg, n_bursts=6)
    inj = ds.metadata[ds.subjects()[0]].injection
    assert inj is not None
    assert inj.burst_index == 3 and inj.time_index == 40
    assert 0 <= inj.dimension < 4
    assert inj.drop_fraction >= 0.9
    # the recorded collapse is actually in the data
    stable = synthesize("stable", cfg, n_bursts=6)
    b = ds.bursts[inj.burst_index].values[:, inj.dimension]
    s = stable.bursts[inj.burst_index].values[:, inj.dimension]
    np.testing.assert_allclose(b[inj.time_index:], s[inj.time_index:] * 0.05)
    np.testing.assert_allclose(b[: inj.time_index], s[: inj.time_index])


def test_synthesize_rejects_unknown_profile():
    with pytest.raises(ValidationError):
        synthesize("chaotic", PipelineConfig(N=9))


def test_prescale_divides_by_max_abs():
    burst = DataBurst(values=np.array([[2.0, -4.0], [1.0, 2.0], [0.5, 1.0]]))
    scaled, div = prescale_burst(burst)
    np.testing.assert_allclose(div, [2.0, 4.0])
    assert np.max(np.abs(scaled.values), axis=0) == pytest.approx([1.0, 1.0])


def test_prescale_skips_zero_dimension():
    burst = DataBurst(values=np.array([[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]]))
    scaled, div = prescale_burst(burst)
    np.testing.assert_allclose(div, [4.0, 1.0])
    assert np.all(scaled.values[:, 1] == 0.0)


def test_burst_invariants():
    with pytest.raises(ValidationError):
        DataBurst(values=np.ones((2, 4)))  # too few points
    with pytest.raises(ValidationError):
        DataBurst(values=np.full((9, 4), np.inf))


def test_dataset_burst_index_monotonic():
    b0 = DataBurst(values=np.ones((9, 4)), burst_index=1)
    b1 = DataBurst(values=np.ones((9, 4)), burst_index=1)
    with pytest.raises(ValidationError):
        Dataset(bursts=[b0, b1])


def test_dataset_groups_interleaved_bursts_by_subject_in_first_seen_order():
    spec = [("b", 0), ("a", 0), ("b", 2), ("c", 5), ("a", 1), ("b", 3)]
    bursts = [DataBurst(values=np.ones((9, 4)), burst_index=k, subject_id=sid) for sid, k in spec]
    ds = Dataset(bursts=bursts)
    grouped = ds.by_subject()
    assert list(grouped) == ds.subjects() == ["b", "a", "c"]
    own = {"b": [0, 2, 5], "a": [1, 4], "c": [3]}
    for sid, got in grouped.items():
        want = [id(bursts[i]) for i in own[sid]]
        assert [id(b) for b in got] == [id(b) for b in ds.bursts_for(sid)] == want
    assert Dataset(bursts=[]).by_subject() == {} and Dataset(bursts=[]).subjects() == []


def _same_dataset(got, want):
    assert len(got.bursts) == len(want.bursts)
    for b1, b2 in zip(got.bursts, want.bursts):
        assert b1.values.dtype == b2.values.dtype and b1.values.tobytes() == b2.values.tobytes()
        assert (b1.dt, b1.burst_index, b1.subject_id, b1.group_label) == (
            b2.dt, b2.burst_index, b2.subject_id, b2.group_label)
    assert list(got.metadata) == list(want.metadata)
    for sid, m1 in got.metadata.items():
        m2 = want.metadata[sid]
        assert (m1.mass, m1.mass_defaulted) == (m2.mass, m2.mass_defaulted)
        assert list(m1.com_displacement) == list(m2.com_displacement)
        for k, v in m1.com_displacement.items():
            assert v.tobytes() == m2.com_displacement[k].tobytes()


def _outcome(parse, text, cfg):
    """The dataset, or the type, line and message of the error raised."""
    try:
        return parse(text, cfg)
    except ParseError as exc:
        return type(exc), exc.line_number, str(exc)


@given(
    d=st.integers(1, 4),
    n_bursts=st.integers(1, 3),
    seed=st.integers(0, 999),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
)
@settings(max_examples=40, deadline=None)
def test_parse_round_trips_emitted_text_like_the_line_by_line_oracle(d, n_bursts, seed, newline):
    cfg = PipelineConfig(D=d, N=9, seed=seed)
    ds = synthesize("burst", cfg, n_bursts=n_bursts, n_subjects=2, include_com=True)
    text = emit_xyzm(ds).replace("\n", newline)
    again = parse_xyzm(text, cfg)
    _same_dataset(again, ds)
    _same_dataset(again, parse_xyzm_oracle(text, cfg))
    assert emit_xyzm(again) == emit_xyzm(ds)


# Each fault rewrites the data line it is given; None deletes the line.
_FAULTS = {
    "bad_token": lambda tokens: [*tokens[:-1], "0.5x"],
    "hex_token": lambda tokens: ["0x1p-2", *tokens[1:]],
    "missing_value": lambda tokens: tokens[:-1],
    "extra_value": lambda tokens: [*tokens, "0.25"],
    "nan": lambda tokens: ["nan", *tokens[1:]],
    "inf": lambda tokens: [*tokens[:-1], "-inf"],
    "overflow": lambda tokens: ["1e999", *tokens[1:]],
    "subject_after": lambda tokens: [" ".join(tokens) + "\n#subject other"],
    "dt_after": lambda tokens: [" ".join(tokens) + "\n#dt -1"],
    "deleted": None,
}


@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 999),
    faults=st.lists(
        st.tuples(st.sampled_from(sorted(_FAULTS)), st.integers(0, 8)), min_size=1, max_size=2
    ),
    burst=st.integers(0, 2),
    truncate=st.integers(0, 12),
)
@settings(max_examples=150, deadline=None)
def test_malformed_input_raises_like_the_line_by_line_oracle(d, seed, faults, burst, truncate):
    """One or two faults in one burst, and the text perhaps cut short: the
    same error type, line and message as parsing line by line."""
    cfg = PipelineConfig(D=d, N=9, seed=seed)
    lines = emit_xyzm(synthesize("stable", cfg, n_bursts=3, include_com=True)).splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    for kind, row in faults:
        i = data[9 * burst + row]
        fault = _FAULTS[kind]
        lines[i] = "" if fault is None else " ".join(fault(lines[i].split()))
    text = "\n".join(lines[:len(lines) - truncate]) + "\n"
    got = _outcome(parse_xyzm, text, cfg)
    want = _outcome(parse_xyzm_oracle, text, cfg)
    if isinstance(want, Dataset):
        _same_dataset(got, want)
    else:
        assert got == want


def test_string_input_splits_lines_like_file_input(tmp_path):
    # \f and the other separators str.splitlines() also breaks at are
    # whitespace inside a line of a file
    cfg = PipelineConfig(D=2, N=9)
    rows = ["0.1\x0c0.2", "0.3\x0b0.4", "0.5\x1c0.6", "0.7\x850.8", "0.9 1.0"]
    text = "#subject S\r\n" + "\r\n".join(rows + ["1.1 1.2"] * 4) + "\r"
    path = tmp_path / "s.xyzm"
    path.write_bytes(text.encode("utf-8"))
    from_file = parse_xyzm_files([path], cfg)
    assert len(from_file.bursts) == 1
    _same_dataset(parse_xyzm(text, cfg), from_file)
    _same_dataset(parse_xyzm(io.StringIO(text, newline=None), cfg), from_file)
    np.testing.assert_array_equal(from_file.bursts[0].values[:2], [[0.1, 0.2], [0.3, 0.4]])


@pytest.mark.parametrize("text, line", [
    ("0.1 0.2\n0.3\n", 2),                    # wrong count ends the text mid-burst
    ("0.1 0.2\n0.3 x\n#subject T\n", 2),      # a bad token before a mid-burst subject change
    ("0.1 0.2\n#dt 0\n0.3 nan\n", 2),         # a bad directive after the burst began
    ("0.1 0.2\n0.3 nan\n0.5 0.6 0.7\n", 2),   # two faults: the first one raises
])
def test_pending_burst_raises_its_first_bad_line(text, line):
    cfg = PipelineConfig(D=2, N=9)
    with pytest.raises(ParseError) as info:
        parse_xyzm(text, cfg)
    want = _outcome(parse_xyzm_oracle, text, cfg)
    assert (type(info.value), info.value.line_number, str(info.value)) == want
    assert info.value.line_number == line
