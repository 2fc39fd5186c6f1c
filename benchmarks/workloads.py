"""The benchmark's workloads.

Every workload is D=4 with stride 1.  A request is one subject's xyzm text:
parse it, analyze it, emit its JSON report and roots CSV (and, where asked,
the dump tables).  The subject pool is generated from the run's seed before
anything is timed, and requests cycle through it.  Every workload reaches
every function the trace wraps, so no per-layer time is a constant zero.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    profile: str                # synthesize() profile
    n_points: int               # N, points per burst
    n_bursts: int               # bursts per subject
    pool: int                   # subjects generated per run
    fingerprint_requests: int   # leading requests the fingerprint covers
    output_heavy: bool          # all four dumps, com channel, control/post_aclr groups


WORKLOADS = {
    # The common compute-bound case, shaped like the acceptance test's corpus:
    # the root solve dominates, so it carries ROADMAP items 3 and 4.
    "cohort_stable": Workload("stable", 81, 10, 64, 8, False),
    # The same pipeline driven for output: chains, escalation, energy
    # amplitudes and group stats run here, and emission costs about a quarter
    # of analyze time, so a compute gain that costs emission shows up here.
    # Not gated in BENCHMARK.json: three workloads of steady-length runs do
    # not fit the time a full set of gated runs may take.
    "burst_dumps": Workload("burst", 81, 8, 48, 8, True),
    # One wide frame per burst: normalization builds D*N*N margins, so memory
    # and build_field dominate and a root-solver change should barely move it.
    "wide_frame": Workload("stable", 2187, 4, 2, 1, False),
}
