"""Run one workload in this process and print its measurements as one JSON line.

    python3 benchmarks/measure.py --workload NAME --seed N --seconds S --trace 0|1

run.py starts this in a fresh interpreter per workload, with the checkout's
``src`` on PYTHONPATH, so peak RSS belongs to this workload alone.  The load
is a closed loop with one client: the next request starts when the previous
one and its output check are done.

Untraced (``--trace 0``): requests run for ``--seconds``.  Only
``solve_roots`` is wrapped, to count root convergence labels for the
fingerprint; that costs one bincount per request.

Traced (``--trace 1``): an untraced pass runs for half of ``--seconds``,
then a traced pass runs the same requests again.  Per-layer metrics come
from the traced pass; the ratio of the two passes' busy times is the
tracing overhead.  Spans are written to ``.bench_out/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import ddp
import ddp.pipeline
import ddp.report

import checks
import spans
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".bench_out"
MAX_PROBLEMS = 5


def make_pool(w: Workload, seed: int) -> list[str]:
    """xyzm text of each subject in the workload's pool; the same seed, the same text."""
    def corpus(config_seed, n, group="unlabeled", prefix="SYN"):
        config = ddp.PipelineConfig(N=w.n_points, seed=config_seed)
        return ddp.synthesize(w.profile, config, n_bursts=w.n_bursts, n_subjects=n,
                              group_label=group, include_com=w.output_heavy,
                              subject_prefix=prefix)

    if w.output_heavy:
        half = w.pool // 2
        groups = [corpus(2 * seed, half, "control", "CTL"),
                  corpus(2 * seed + 1, half, "post_aclr", "ACL")]
        order = [(ds, sid) for pair in zip(*(g.subjects() for g in groups))
                 for ds, sid in zip(groups, pair)]
    else:
        ds = corpus(seed, w.pool)
        order = [(ds, sid) for sid in ds.subjects()]
    return [
        ddp.emit_xyzm(ddp.Dataset(bursts=ds.bursts_for(sid), metadata={sid: ds.metadata[sid]}))
        for ds, sid in order
    ]


def run_request(text: str, config, w: Workload) -> checks.Outcome:
    """One subject in, its JSON report and roots CSV out, as ``ddp analyze`` writes them."""
    dataset = ddp.parse_xyzm(text, config)
    result = ddp.analyze_dataset(dataset, config, dumps=ddp.pipeline.DUMP_KINDS if w.output_heavy else ())
    report = ddp.report.report_json(result.subjects, None, config)
    return checks.Outcome(result, report, ddp.report.roots_table_csv(result.subjects))


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    frames: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    prefix: list[checks.Outcome] = field(default_factory=list)
    labels: Counter = field(default_factory=Counter)
    self_test: list[str] | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)


def run_pass(pool, config, w: Workload, tracer: spans.Tracer,
             seconds: float | None = None, requests: int | None = None) -> Pass:
    """Closed loop over the pool, for ``seconds`` or for ``requests`` requests.

    A timed pass always runs at least the fingerprint's requests.  One
    ``group_stats`` call over every analyzed subject closes the pass, as
    ``ddp stats`` pools the reports of a study; only the part of each report
    it reads is kept.
    """
    out = Pass()
    rc_pools = []
    n_frames = w.n_bursts - config.stride_n
    start = time.perf_counter()
    i = 0
    while True:
        if requests is not None:
            if i >= requests:
                break
        elif time.perf_counter() - start >= seconds and i >= w.fingerprint_requests:
            break
        tracer.request = i
        t0 = time.perf_counter()
        try:
            outcome = run_request(pool[i % len(pool)], config, w)
        except Exception:
            outcome = None
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        out.latencies.append(t1 - t0)
        out.busy_s += t1 - t0
        out.attempted += 1
        if outcome is None:
            out.fail(f"request {i} raised: {error}")
        else:
            problems = checks.check(outcome, config, w.n_bursts)
            if problems:
                out.fail(f"request {i}: {'; '.join(problems[:3])}")
                outcome = None
            else:
                out.frames += n_frames
                if out.self_test is None:
                    out.self_test = checks.self_test(outcome, config, w.n_bursts)
                rc_pools.extend(
                    ddp.report.SubjectPool(r.subject_id, r.group_label, r.rc_values_per_dim)
                    for r in outcome.result.subjects
                )
        if i < w.fingerprint_requests:
            out.prefix.append(outcome)
            if i == w.fingerprint_requests - 1:
                out.labels = Counter(tracer.counts)
        i += 1

    tracer.request = None
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        stats = ddp.report.group_stats(rc_pools, config)
    except Exception:
        stats = None
        error = traceback.format_exc(limit=3)
    out.busy_s += time.perf_counter() - t0
    if stats is None:
        out.fail(f"group_stats raised: {error}")
    else:
        problems = checks.check_group_stats(stats, {p.group_label for p in rc_pools})
        if problems:
            out.fail("; ".join(problems))
    return out


def warm_up(w: Workload, seed: int) -> None:
    """Run a small subject through the same calls so lazy set-up happens untimed."""
    small = Workload(w.profile, 81, 3, 2, 0, w.output_heavy)
    config = ddp.PipelineConfig()
    outcome = run_request(make_pool(small, seed)[0], config, small)
    ddp.report.group_stats(outcome.result.subjects, config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    config = ddp.PipelineConfig(N=w.n_points)
    pool = make_pool(w, args.seed)
    warm_up(w, args.seed)

    labels = spans.Tracer(timed=False, only=("solve_roots",))
    labels.install()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_pass(pool, config, w, labels, seconds=budget)
    labels.uninstall()
    passes = [untraced]

    result = {
        "workload": args.workload,
        "requests": len(untraced.latencies),
        "frame_pairs": untraced.frames,
        "busy_s": untraced.busy_s,
        "subject_p50_s": statistics.median(untraced.latencies),
        "subject_p90_s": None,
        "frames_per_s": untraced.frames / untraced.busy_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # p90 only where at least ten samples lie beyond it
    if len(untraced.latencies) >= 100:
        result["subject_p90_s"] = statistics.quantiles(untraced.latencies, n=10)[-1]

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        traced = run_pass(pool, config, w, tracer, requests=len(untraced.latencies))
        tracer.uninstall()
        passes.append(traced)
        layer = tracer.metrics(len(traced.latencies), traced.busy_s)
        layer["trace.overhead"] = traced.busy_s / untraced.busy_s - 1.0
        result["layer_metrics"] = layer
        SPANS_DIR.mkdir(exist_ok=True)
        path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        result["spans_file"] = str(path.relative_to(ROOT))

    # A fingerprint request that failed its check is already counted; when
    # the rest differ from the frozen fingerprint, each of them fails too.
    found, status = None, "not computed: a fingerprint request failed"
    if None not in untraced.prefix:
        found = checks.fingerprint(untraced.prefix, untraced.labels)
        frozen = checks.frozen_fingerprint(args.workload, args.seed)
        mismatch = checks.compare(found, frozen) if frozen is not None else []
        status = ("none frozen for this seed" if frozen is None
                  else "differs from the frozen one" if mismatch else "matches the frozen one")
        if mismatch:
            untraced.failed += len(untraced.prefix) - 1
            untraced.fail("; ".join(mismatch))
    result.update(
        fingerprint=found,
        fingerprint_status=status,
        attempted=sum(p.attempted for p in passes),
        failed=sum(p.failed for p in passes),
        problems=[m for p in passes for m in p.problems][:MAX_PROBLEMS],
        self_test=[m for p in passes for m in (p.self_test if p.self_test is not None
                                               else ["self-test never ran"])],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
