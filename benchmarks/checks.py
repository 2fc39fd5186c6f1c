"""Output checks, the behaviour fingerprint and the self-test of the checks.

Every request's outputs are checked on every seed:

* the JSON report parses and holds no NaN or Infinity token;
* it has one subject with one frame per frame pair, and each frame's
  ``pdi_counts`` match the categories the library returned;
* every category lies in 1..9 and every chain point has category >= 5;
* the roots CSV has one row per (frame, dimension, root) and the dump
  tables, when asked for, one per (frame, dimension, point), per
  (frame, point, root), per (frame, point) and per (frame, level).

The fingerprint sums a fixed prefix of requests: the category histogram,
chain count, GTI fires and root convergence labels compare exactly with the
frozen ones, the median ``rc_combined`` of their frames at relative 1e-8.
"""

from __future__ import annotations

import copy
import json
import math
import re
import statistics
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FROZEN = Path(__file__).with_name("fingerprint.json")
RC_RELATIVE_TOLERANCE = 1e-8
LABELS = ("closed_form", "refined", "fallback")


@dataclass
class Outcome:
    """What one request produced."""

    result: object            # ddp AnalysisResult
    report: str               # report_json text
    roots_csv: str            # roots_table_csv text


def _reject_constant(token):
    raise ValueError(f"report contains {token}")


def _rows(text: str) -> int:
    return text.count("\n") - 1  # minus the header


def check(outcome: Outcome, config, n_bursts: int) -> list[str]:
    """Everything wrong with one request's outputs (empty when correct)."""
    problems: list[str] = []
    try:
        doc = json.loads(outcome.report, parse_constant=_reject_constant)
    except ValueError as exc:
        return [f"report JSON: {exc}"]
    subjects = outcome.result.subjects
    if len(subjects) != 1 or len(doc.get("subjects", ())) != 1:
        return [f"expected one subject, got {len(subjects)}"]
    rep, sub = subjects[0], doc["subjects"][0]
    n_frames = n_bursts - config.stride_n
    if len(rep.frames) != n_frames or len(sub["frames"]) != n_frames:
        problems.append(f"expected {n_frames} frames, got {len(rep.frames)}")
    for i, (fr, fj) in enumerate(zip(rep.frames, sub["frames"])):
        cats = np.asarray(fr.categories)
        if cats.shape != (config.N,) or not ((cats >= 1) & (cats <= 9)).all():
            problems.append(f"frame {i}: categories outside 1..9")
        for chain in fr.chains:
            members = cats[chain.start_index:chain.start_index + chain.length]
            if members.size != chain.length or (members < 5).any():
                problems.append(f"frame {i}: chain at {chain.start_index} has a point below 5")
        counts = Counter(int(c) for c in cats)
        if {int(k): v for k, v in fj["pdi_counts"].items()} != dict(counts):
            problems.append(f"frame {i}: pdi_counts differ from the categories")
    d, n, nroots = config.D, config.N, 2 ** config.D
    levels = len(config.zoom_point_counts())
    expected = {
        "borda": n_frames * d * n,
        "roots": n_frames * n * nroots,
        "pdi": n_frames * n,
        "zoom": n_frames * levels,
    }
    for kind, text in outcome.result.dumps.items():
        if _rows(text) != expected[kind]:
            problems.append(f"dump {kind}: {_rows(text)} rows, expected {expected[kind]}")
    if _rows(outcome.roots_csv) != n_frames * d * nroots:
        problems.append(f"roots CSV: {_rows(outcome.roots_csv)} rows")
    return problems


def check_group_stats(stats, labels: set[str]) -> list[str]:
    problems = []
    if set(stats.groups) != labels:
        problems.append(f"group_stats groups {sorted(stats.groups)} != {sorted(labels)}")
    for label, group in stats.groups.items():
        if not math.isfinite(group.combined.median):
            problems.append(f"group_stats {label}: combined median is not finite")
    if labels >= {"control", "post_aclr"} and stats.percent_change_combined is None:
        problems.append("group_stats: no percent change between control and post_aclr")
    return problems


def self_test(outcome: Outcome, config, n_bursts: int) -> list[str]:
    """Feed the checks a report with a flipped category and one with a NaN.

    Returns what went wrong with the self-test: empty when the unperturbed
    outcome passes and each perturbed one is counted as a failure.
    """
    if check(outcome, config, n_bursts):
        return ["self-test needs a correct outcome to perturb"]
    flipped = copy.deepcopy(outcome)
    frame = flipped.result.subjects[0].frames[0]
    if frame.chains:
        frame.categories[frame.chains[0].start_index] = 1
    else:
        frame.categories[0] = 10
    poisoned = Outcome(
        result=outcome.result,
        report=re.sub(r'"mass": [^,\n]+', '"mass": NaN', outcome.report, count=1),
        roots_csv=outcome.roots_csv,
    )
    failures = [name for name, bad in (("flipped category", flipped), ("NaN", poisoned))
                if not check(bad, config, n_bursts)]
    return [f"self-test: {name} not caught" for name in failures]


def fingerprint(outcomes: list[Outcome], labels: Counter) -> dict:
    """Behaviour fingerprint of a fixed list of request outcomes."""
    histogram: Counter = Counter()
    chains = fires = 0
    rc = []
    for outcome in outcomes:
        for rep in outcome.result.subjects:
            histogram.update(rep.pdi_histogram)
            for fr in rep.frames:
                chains += len(fr.chains)
                fires += int(fr.gti.triggered)
                if math.isfinite(fr.rc.rc_combined):
                    rc.append(fr.rc.rc_combined)
    return {
        "requests": len(outcomes),
        "category_histogram": {str(k): histogram[k] for k in sorted(histogram)},
        "chains": chains,
        "gti_fired": fires,
        "root_labels": {name: labels[f"roots.{name}"] for name in LABELS},
        "rc_combined_median": statistics.median(rc) if rc else None,
    }


def compare(found: dict, frozen: dict) -> list[str]:
    """Differences between a fingerprint and the frozen one."""
    problems = [
        f"fingerprint {key}: {found[key]} != frozen {frozen[key]}"
        for key in ("requests", "category_histogram", "chains", "gti_fired", "root_labels")
        if found[key] != frozen[key]
    ]
    a, b = found["rc_combined_median"], frozen["rc_combined_median"]
    if a is None or b is None:
        if a != b:
            problems.append(f"fingerprint rc_combined_median: {a} != frozen {b}")
    elif abs(a - b) > RC_RELATIVE_TOLERANCE * abs(b):
        problems.append(f"fingerprint rc_combined_median: {a!r} != frozen {b!r}")
    return problems


def frozen_fingerprint(workload: str, seed: int) -> dict | None:
    """The frozen fingerprint of a workload, if one was frozen at this seed."""
    frozen = json.loads(FROZEN.read_text(encoding="utf-8"))
    if frozen["seed"] != seed:
        return None
    return frozen["workloads"].get(workload)
