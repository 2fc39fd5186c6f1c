"""Benchmark of the ddp pipeline, end to end and layer by layer.

    python3 benchmarks/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout of the repository; the library is
imported from the checkout's ``src``.  Without ``--workload`` every
workload runs, one after another; without ``--trace`` each runs untraced
and then traced.  Each (workload, mode) runs in a fresh interpreter
(measure.py), so peak RSS and set-up time belong to that workload alone.

Untraced runs report the end-to-end metrics, traced runs the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are the same figures as a table, with the behaviour fingerprint.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 3          # fresh interpreters timed per untraced run
RUN_DEADLINE_S = 170.0    # one (workload, mode) run, set-up included
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_fraction": "ratio",
}


class BenchmarkError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DDP_MAX_PARALLEL_SUBJECTS", None)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before " + " ".join(argv))
    try:
        return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"timed out: {' '.join(argv)}") from None
    except subprocess.CalledProcessError as exc:
        raise BenchmarkError(f"exit code {exc.returncode}: {' '.join(argv)}") from None


def setup_seconds(env, deadline: float) -> float:
    """Median wall time of a fresh interpreter running ``import ddp``.

    The median also drops the one slower import that writes the bytecode
    caches in a fresh checkout, which users do not pay on every run.
    """
    probe = ["-c", "import ddp"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        run_child(probe, env, deadline)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_fraction") or name == "trace.overhead":
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def run_one(workload: str, seed: int, seconds: int, trace: int, env) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = setup_seconds(env, deadline) if trace == 0 else None
    proc = run_child([str(HERE / "measure.py"), "--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)], env, deadline)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{workload}: the measuring process printed nothing")
    run = json.loads(lines[-1])
    if trace == 0:
        metrics = {
            "frames_per_s": run["frames_per_s"],
            "peak_rss_mb": run["peak_rss_mb"],
            "setup_s": setup,
            "success_fraction": 1.0 - run["failed"] / run["attempted"],
        }
    else:
        metrics = run["layer_metrics"]
    run["trace"] = trace
    run["correct"] = run["failed"] == 0 and not run["self_test"]
    run["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    return run


def layer_shares(metrics: dict) -> dict[str, float]:
    """Self seconds per request of each layer, from its functions' ``*_s`` metrics."""
    shares: dict[str, float] = {}
    for name, m in metrics.items():
        if name.endswith("_s") and not name.startswith("trace."):
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + m["value"]
    return shares


def print_table(run: dict, seed: int) -> None:
    mode = "traced" if run["trace"] else "untraced"
    print(f"== {run['workload']}  seed {seed}  {mode}: {run['attempted']} attempted, "
          f"{run['failed']} failed, {run['requests']} requests timed")
    metrics = run["metrics"]
    if run["trace"] == 0:
        for name, m in metrics.items():
            print(f"   {name:<18} {m['value']:>12.6g} {m['unit']}")
        print(f"   {'subject_p50_s':<18} {run['subject_p50_s']:>12.6g} s")
        p90 = run["subject_p90_s"]
        print(f"   {'subject_p90_s':<18} "
              + (f"{p90:>12.6g} s" if p90 is not None
                 else f"{'-':>12} needs 100 requests, had {run['requests']}"))
        print(f"   {'fail_fraction':<18} {run['failed'] / run['attempted']:>12.6g} ratio")
        print(f"   {run['frame_pairs']} frame pairs in {run['busy_s']:.3f} s busy; "
              f"setup_s is the median of {SETUP_PROBES} fresh imports")
    else:
        shares = layer_shares(metrics)
        total = sum(shares.values()) or 1.0
        print(f"   {'layer':<16} {'self s/request':>14} {'share':>7}")
        for layer, sec in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"   {layer:<16} {sec:>14.6f} {100 * sec / total:>6.1f}%")
        for name, m in metrics.items():
            print(f"   {name:<42} {m['value']:>14.6g} {m['unit']}")
        print(f"   spans written to {run['spans_file']}")
    print(f"   fingerprint ({run['fingerprint_status']}): {json.dumps(run['fingerprint'])}")
    for message in run["self_test"] + run["problems"]:
        print(f"   FAIL {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "ddp" / "__init__.py").is_file():
        print(f"error: no ddp package under {SRC}; run inside a checkout", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    runs = []
    try:
        for name in names:
            for trace in modes:
                run = run_one(name, args.seed, args.seconds, trace, env)
                print_table(run, args.seed)
                runs.append(run)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{'traced.' if r['trace'] else ''}{k}": m
                   for r in runs for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
