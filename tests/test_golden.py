"""Golden report: the pipeline's output on a fixed corpus, frozen.

The corpus is stable, burst (with the com channel) and drift, two subjects
each, N=81, 6 bursts, seed 7.  For every profile the golden file holds the
parsed JSON report plus, per subject and frame, the final point categories
and the root convergence labels (one letter per (point, root) from the
roots dump: c closed form, r refined, f fallback).

Integers, booleans, strings, nulls, categories, chains, GTI flags, PDI
counts and convergence labels compare exactly; floats compare at relative
1e-8.  Re-freeze only for an intended behaviour change, and say why in
CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --freeze
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from ddp import PipelineConfig, analyze_dataset, synthesize, zoom_profile
from ddp.ingest import prescale_burst
from ddp.report import report_json

from oracles import pair_zoom

GOLDEN = Path(__file__).with_name("golden") / "report_seed7.json"
PROFILES = ("stable", "burst", "drift")
FLOAT_RTOL = 1e-8


def _run(profile: str) -> dict:
    cfg = PipelineConfig(seed=7)
    ds = synthesize(profile, cfg, n_bursts=6, n_subjects=2, include_com=profile == "burst")
    result = analyze_dataset(ds, cfg, dumps=("roots",))
    labels: dict[tuple[str, str], list[str]] = {}
    for row in result.dumps["roots"].splitlines()[1:]:
        fields = row.split(",")
        labels.setdefault((fields[0], fields[1]), []).append(fields[-1][0])
    return {
        "report": json.loads(report_json(result.subjects, None, cfg)),
        "categories": {
            rep.subject_id: ["".join(map(str, fr.categories.tolist())) for fr in rep.frames]
            for rep in result.subjects
        },
        "convergence": {
            rep.subject_id: [
                "".join(labels[(rep.subject_id, str(fr.current_burst_index))])
                for fr in rep.frames
            ]
            for rep in result.subjects
        },
    }


def _differences(got, want, path="$") -> list[str]:
    """Paths where two parsed JSON values disagree under the golden rules."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in _differences(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in _differences(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("profile", PROFILES)
def test_golden_report(profile, golden):
    got = _run(profile)
    want = golden[profile]
    assert got["categories"] == want["categories"]
    assert got["convergence"] == want["convergence"]
    problems = _differences(got["report"], want["report"])
    assert not problems, "\n".join(problems[:20])


def test_golden_comparison_catches_changes(golden):
    report = golden["stable"]["report"]
    assert _differences(report, report) == []
    changed = json.loads(json.dumps(report))
    frame = changed["subjects"][0]["frames"][1]
    frame["rc_combined"] *= 1.0 + 1e-6
    frame["gti"]["triggered"] = not frame["gti"]["triggered"]
    assert len(_differences(changed, report)) == 2


def _same_bits(a, b, path="pair") -> None:
    """Assert two zoom results agree bit for bit, field by field."""
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, path
        assert a.tobytes() == b.tobytes(), path
    elif hasattr(a, "__dataclass_fields__"):
        assert type(a) is type(b), path
        for name in a.__dataclass_fields__:
            _same_bits(getattr(a, name), getattr(b, name), f"{path}.{name}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for i, (x, y) in enumerate(zip(a, b)):
            _same_bits(x, y, f"{path}[{i}]")
    elif isinstance(a, float):
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), path
    else:
        assert a == b, path


@pytest.mark.parametrize("stride", [1, 2])
def test_pair_outcome_ignores_later_bursts(stride):
    cfg = PipelineConfig(seed=7, stride_n=stride)
    ds = synthesize("burst", cfg, n_bursts=6)
    bursts = [prescale_burst(b)[0] for b in ds.bursts]
    full = zoom_profile(bursts, cfg)
    assert len(full.previous) == len(bursts) - stride
    for k in range(len(full.previous)):
        prefix = zoom_profile(bursts[:k + stride + 1], cfg)
        assert len(prefix.previous) == k + 1
        _same_bits(pair_zoom(prefix, k), pair_zoom(full, k), f"pair {k}")
    assert len(zoom_profile(bursts[:stride], cfg).previous) == 0


def _freeze() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {profile: _run(profile) for profile in PROFILES}
    GOLDEN.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")


if __name__ == "__main__":
    if sys.argv[1:] != ["--freeze"]:
        sys.exit(__doc__)
    _freeze()
