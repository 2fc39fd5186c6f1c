"""Zoom-out aggregation, residual curvature, critical chain lengths, GTI.

Every frame pair is re-analyzed at increasing aggregation levels (81, 27,
9 points for the defaults): consecutive groups of `factor` points are
replaced by their per-dimension mean and the whole normalization, ranking,
length-scale and curvature stack is rerun on the coarsened frames.  The
curvature remaining at the coarsest (9-point) level is the residual
curvature, a magnitude-only measure of the energy exchange rate of the
frame as a whole.

`zoom_profile` walks this hierarchy once per subject, level by level.  It
keeps the subject's bursts as one `(B, N_l, D)` stack per level, coarsens
the stack with one reshape-mean and normalizes and ranks it with one
`build_field` and one `borda_state` call; each frame pair takes its Borda
change and ranks by indexing the stacked results.  The Borda changes of
all frame pairs at a level go through one root solve and one curvature
evaluation.  The tail is array-shaped across pairs too: one
`update_thresholds` call per level takes the root-magnitude medians of
every pair at once and then advances the running mean pair by pair in
time order, each level statistic is one median over the `(P, ..., D)`
stack, and `residual_curvature` takes the medians of every pair in one
call on the coarsest level.  Points never interact across pairs and the
running mean only looks back, so a pair's results do not depend on the
bursts that follow it.

The result is one `SubjectZoom` per subject, every per-pair result a
column with the P pairs in front: the level statistics as one
`ZoomProfile` of `(P, L, D)` and `(P, L)` arrays over the L levels, the
residual curvature as one `ResidualCurvatureRecord` of `(P, ...)` arrays,
the fallback fractions, and the finest level's Borda changes, roots,
curvature medians and thresholds, which the pipeline classifies in one
call.  Bursts must be prescaled: prescaling puts every value in [-1, 1],
so each frame of at least 9 points has two values within 0.25 of each
other, whose pair constant is real and (for an `epsilon_denominator`
below 0.5) admissible, and no dimension is ever unfittable.  Unprescaled
bursts that break this raise `ContractViolation`, and so does a burst
holding a non-finite value, whose pair constants the datum fit excludes.

Critical chain lengths come from an intersection construction on the
per-level statistics.  With x the aggregation level (finest = 1) and a log
x axis, the curvature polyline is mirrored about log x = 0, the two
threshold lines (inverse instantaneous and inverse long-run length scale)
are fit by least squares across levels (closed-form slope and intercept)
and extended backwards, and each line's intersection with the mirrored
curvature polyline is converted back from log x to a fraction of the
frame, then scaled by the frame length.
When several intersections exist, the process zone jumps to a farther
candidate whenever the curvature there is lower.  The inverse
instantaneous line yields the long-term critical chain length and the
inverse long-run line the short-term one.  No intersection means the
frame cannot support a global transition: the critical length is set to
the unreachable N + 1.

Critical chain lengths and the GTI take one pair at a time (index a
`ZoomProfile` with a pair number to get its levels).  The global
transition indicator (GTI) fires when the longest unstable chain exceeds
the short-term critical length and the combined residual curvature
dropped by at least the drop threshold within one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .config import PipelineConfig
from .curvature import (
    LengthScaleRoots,
    ThresholdUpdate,
    curvature_tensor,
    median,
    update_thresholds,
)
from .errors import ContractViolation
from .ingest import DataBurst
from .lengthscale import Convergence, branch_layout, solve_roots
from .normalization import build_field
from .ranking import BordaState, borda_state, delta_borda


def _coarsen(values: np.ndarray, factor: int) -> np.ndarray:
    """Means of consecutive groups of `factor` points of (N, D) or (B, N, D) values."""
    *lead, n, d = values.shape
    if factor < 2:
        raise ContractViolation("aggregation factor must be at least 2")
    if n % factor:
        raise ContractViolation(f"{n} points are not divisible by factor {factor}")
    return values.reshape(*lead, n // factor, factor, d).mean(axis=-2)


def aggregate(burst: DataBurst, factor: int) -> DataBurst:
    """Coarsen a burst by replacing groups of `factor` points by their mean."""
    return replace(burst, values=_coarsen(burst.values, factor), dt=burst.dt * factor)


@dataclass
class FrameLevelState:
    """Normalization and ranking results of one burst at one level, or of a stack.

    Shapes are those of one burst; a stack of B bursts puts B in front.
    """

    borda: BordaState            # H, R (D, N)
    datum: np.ndarray            # (D,)
    datum_residual: np.ndarray   # (D,)
    fit_excluded_fraction: np.ndarray   # (D,)
    margin_zeroed_fraction: np.ndarray  # (D,)
    unfittable: np.ndarray       # (D,) bool

    def __getitem__(self, index) -> FrameLevelState:
        """The bursts of a stack selected by ``index``."""
        return FrameLevelState(**{f.name: getattr(self, f.name)[index] for f in fields(self)})


def frame_level_state(values: np.ndarray, config: PipelineConfig) -> FrameLevelState:
    """Normalize and rank an (N, D) frame or a (B, N, D) stack, one call of each stage."""
    field = build_field(values, config.epsilon_denominator)
    state = borda_state(field)
    shape = values.shape[:-2] + values.shape[-1:]   # (D,) or (B, D): the lanes

    def lanes(a: np.ndarray) -> np.ndarray:
        return a.reshape(shape + a.shape[1:])

    return FrameLevelState(
        borda=BordaState(H=lanes(state.H), R=lanes(state.R)),
        datum=lanes(field.datum),
        datum_residual=lanes(field.datum_residual),
        fit_excluded_fraction=lanes(field.fit_excluded_fraction),
        margin_zeroed_fraction=lanes(field.margin_zeroed_fraction),
        unfittable=lanes(field.unfittable),
    )


@dataclass
class ZoomProfile:
    """Per-level statistics of P frame pairs over the L zoom levels, finest first.

    The level ladder is shared by all pairs.  Indexing with a pair number
    gives that pair's profile, its statistics (L, D) and (L,) views.
    """

    point_count: np.ndarray          # (L,) int
    x_coordinate: np.ndarray         # (L,) aggregation level, finest = 1
    kappa_per_dim: np.ndarray        # (P, L, D)
    kappa_combined: np.ndarray       # (P, L)
    inv_ltilde_per_dim: np.ndarray   # (P, L, D)
    inv_ltilde_combined: np.ndarray  # (P, L)
    inv_l_per_dim: np.ndarray        # (P, L, D)
    inv_l_combined: np.ndarray       # (P, L)

    @property
    def finest_points(self) -> int:
        return int(self.point_count[0])

    def __getitem__(self, index) -> ZoomProfile:
        """The statistics of the pairs selected by ``index`` on the shared ladder."""
        return ZoomProfile(self.point_count, self.x_coordinate, *(
            getattr(self, f.name)[index] for f in fields(self)[2:]
        ))


@dataclass
class ResidualCurvatureRecord:
    """Curvature left at the coarsest level, per dimension and per root.

    Shapes are those of P pairs; indexing with a pair number drops P.
    """

    rc: np.ndarray           # (P, D, 2**D)
    rc_per_dim: np.ndarray   # (P, D)
    rc_combined: np.ndarray  # (P,)

    def __getitem__(self, index) -> ResidualCurvatureRecord:
        return ResidualCurvatureRecord(*(getattr(self, f.name)[index] for f in fields(self)))


@dataclass
class SubjectZoom:
    """The zoom-out analysis of every frame pair (t - stride, t) of one subject.

    Every per-pair result has the P pairs in front, in pair order.  All but
    `pairs` are None when the subject has no frame pair.
    """

    pairs: list[tuple[int, int]]         # (previous, current) indices into the burst list
    profile: ZoomProfile | None
    rc: ResidualCurvatureRecord | None
    fallback_fraction: np.ndarray | None    # (P,)
    current_state: FrameLevelState | None   # the current bursts, (P, D, N) counts and ranks
    dh: np.ndarray | None                   # (P, D, N)
    roots: LengthScaleRoots | None          # P * N points, pair-major
    kappa_median: np.ndarray | None         # (P, N, D)
    thresholds: ThresholdUpdate | None      # (P, N, D)


def zoom_profile(bursts: list[DataBurst], config: PipelineConfig) -> SubjectZoom:
    """Run the full per-level analysis for every frame pair of one subject.

    The pairs are (t - stride, t), in order.  Levels form the outer loop:
    the stack of all bursts is coarsened, normalized and ranked once per
    level, the Borda changes of all pairs go through one root solve and one
    curvature evaluation, and the thresholds and level statistics of all
    pairs come from one batched call each.  The running threshold mean
    advances pair by pair, so a pair never sees a later burst.  The
    residual curvature of every pair is taken from the coarsest level.

    The bursts must be prescaled (`prescale_burst`): a dimension with no
    admissible pair constant at some level raises ContractViolation, and
    so does a non-finite value.
    """
    counts = config.zoom_point_counts()
    for b in bursts:
        if b.n_points != counts[0] or b.n_dims != config.D:
            raise ContractViolation(
                f"burst {b.burst_index} is {b.n_points}x{b.n_dims}, "
                f"the config expects {counts[0]}x{config.D}"
            )
        if not np.isfinite(b.values).all():
            raise ContractViolation(f"burst {b.burst_index} holds a non-finite value")
    stride = config.stride_n
    pairs = [(t - stride, t) for t in range(stride, len(bursts))]
    if not pairs:
        return SubjectZoom(pairs, None, None, None, None, None, None, None, None)
    n_pairs, d = len(pairs), config.D

    # per level, the (P, D) medians of curvature and of the two thresholds
    level_stats: tuple[list[np.ndarray], ...] = ([], [], [])
    fallback_vectors = np.zeros(n_pairs, dtype=np.int64)
    prev = np.array([p for p, _ in pairs])
    cur = prev + stride
    stack = np.stack([b.values for b in bursts])            # (B, N, D)

    for li, n_l in enumerate(counts):
        if li > 0:
            stack = _coarsen(stack, config.aggregation_factor)
        state = frame_level_state(stack, config)            # (B, D, N_l) counts and ranks
        if state.unfittable.any():
            b, dim = np.argwhere(state.unfittable)[0].tolist()
            raise ContractViolation(
                f"dimension {dim} of burst {bursts[b].burst_index} has no admissible pair "
                f"constant at the {n_l}-point level; zoom_profile needs prescaled bursts"
            )
        dh = delta_borda(state.borda[cur], state.borda[prev])       # (P, D, N_l)
        dh_points = dh.transpose(1, 0, 2).reshape(d, -1)
        r_points = state.borda.R[cur].transpose(1, 0, 2).reshape(d, -1)
        roots_all = solve_roots(r_points, dh_points, config)
        kappa_all = curvature_tensor(dh_points, roots_all)  # (P * N_l, 2**(D-1), D)
        kappa = kappa_all.reshape(n_pairs, n_l, -1, d)

        thresholds = update_thresholds(roots_all, frames=n_pairs)
        # the kappa median over the stored branches is the one over all 2**D
        level_stats[0].append(median(kappa.reshape(n_pairs, -1, d), axis=1))
        level_stats[1].append(median(thresholds.kappa_short, axis=1, mask=thresholds.defined))
        level_stats[2].append(median(thresholds.kappa_long, axis=1, mask=thresholds.defined))
        fallback_vectors += np.count_nonzero(
            roots_all.convergence.reshape(n_pairs, -1) == Convergence.FALLBACK, axis=1
        )
        if li == 0:
            finest = dict(
                current_state=state[cur],
                dh=dh,
                roots=roots_all,
                kappa_median=median(kappa, axis=2),         # (P, N, D)
                thresholds=thresholds,
            )

    per_dim = [np.stack(stats, axis=1) for stats in level_stats]   # (P, L, D)
    factor = config.aggregation_factor
    kappa_c, ltilde_c, long_c = (median(v, axis=2, mask=np.isfinite(v)) for v in per_dim)
    profile = ZoomProfile(
        point_count=np.array(counts),
        x_coordinate=np.array([float(factor ** li) for li in range(len(counts))]),
        kappa_per_dim=per_dim[0],
        kappa_combined=kappa_c,
        inv_ltilde_per_dim=per_dim[1],
        inv_ltilde_combined=ltilde_c,
        inv_l_per_dim=per_dim[2],
        inv_l_combined=long_c,
    )
    # kappa now belongs to the coarsest level
    return SubjectZoom(
        pairs=pairs,
        profile=profile,
        rc=residual_curvature(kappa),
        fallback_fraction=fallback_vectors / (sum(counts) * 2 ** d),
        **finest,
    )


def residual_curvature(kappa: np.ndarray) -> ResidualCurvatureRecord:
    """Residual curvature of every frame pair from its coarsest zoom level.

    kappa: (P, 9, 2**(D-1), D) curvature of P pairs at the 9-point level,
    one entry per stored root branch.  Returns one record with the P pairs
    in front; `rc` holds all 2**D columns, each the median of its stored
    branch.
    """
    if kappa.shape[1] != 9:
        raise ContractViolation("zoom profile did not reach the 9-point level")
    half = median(kappa, axis=1).transpose(0, 2, 1)              # (P, D, 2**(D-1))
    rc_per_dim = median(half, axis=-1)
    return ResidualCurvatureRecord(
        rc=half.take(branch_layout(kappa.shape[-1])[1], axis=-1),  # (P, D, 2**D)
        rc_per_dim=rc_per_dim,
        rc_combined=median(rc_per_dim, axis=1, mask=np.isfinite(rc_per_dim)),
    )


def line_polyline_intersections(
    ts: np.ndarray, ys: np.ndarray, intercept: float, slope: float
) -> list[tuple[float, float]]:
    """Intersections of the line y = intercept + slope*t with a polyline.

    Returns (t, y) pairs sorted by t descending (nearest the origin first).
    Parallel overlaps contribute no isolated intersection.
    """
    ts = np.asarray(ts, dtype=float).tolist()
    ys = np.asarray(ys, dtype=float).tolist()
    found: list[tuple[float, float]] = []
    for i in range(len(ts) - 1):
        t0, t1 = ts[i], ts[i + 1]
        y0, y1 = ys[i], ys[i + 1]
        if t1 == t0:
            continue
        seg_slope = (y1 - y0) / (t1 - t0)
        denom = slope - seg_slope
        if denom == 0.0:
            continue
        t_star = (y0 - seg_slope * t0 - intercept) / denom
        lo, hi = (t0, t1) if t0 <= t1 else (t1, t0)
        if lo - 1e-12 <= t_star <= hi + 1e-12:
            found.append((float(t_star), float(intercept + slope * t_star)))
    found.sort(key=lambda p: -p[0])
    deduped: list[tuple[float, float]] = []
    for cand in found:
        if not deduped or abs(cand[0] - deduped[-1][0]) > 1e-12:
            deduped.append(cand)
    return deduped


def critical_chain_lengths(
    profile: ZoomProfile, config: PipelineConfig
) -> tuple[float, float]:
    """(short, long) critical chain lengths in points of the finest frame.

    Built from the combined per-level statistics of one pair's profile.
    Returns the unreachable sentinel N + 1 for a line with no intersection
    (or a profile with fewer than two usable levels).
    """
    n = profile.finest_points
    sentinel = float(n + 1)
    usable = (
        np.isfinite(profile.kappa_combined)
        & np.isfinite(profile.inv_ltilde_combined)
        & np.isfinite(profile.inv_l_combined)
    )
    if np.count_nonzero(usable) < 2:
        return sentinel, sentinel

    t = np.log(profile.x_coordinate[usable]).tolist()
    # mirror the curvature polyline about log x = 0
    ts_mirror = [-v for v in reversed(t)]
    ys_mirror = profile.kappa_combined[usable][::-1].tolist()
    t_mean = sum(t) / len(t)
    t_dev = [v - t_mean for v in t]
    t_ss = sum(v * v for v in t_dev)

    def _critical_for(values: list[float]) -> float:
        # closed-form least-squares line through (t, values)
        v_mean = sum(values) / len(values)
        slope = sum(a * (v - v_mean) for a, v in zip(t_dev, values)) / t_ss
        intercept = v_mean - slope * t_mean
        candidates = line_polyline_intersections(ts_mirror, ys_mirror, intercept, slope)
        if not candidates:
            return sentinel
        # from the nearest intersection, the process zone jumps to each
        # farther one with lower curvature: the first of the lowest
        t_star, _ = min(candidates, key=lambda cand: cand[1])
        return float(math.exp(t_star) * n)

    long_critical = _critical_for(profile.inv_ltilde_combined[usable].tolist())
    short_critical = _critical_for(profile.inv_l_combined[usable].tolist())
    return short_critical, long_critical


@dataclass
class GtiRecord:
    chain_max_length: int
    critical_short: float
    critical_long: float
    energy_drop_fraction: float | None
    triggered: bool
    imminent: bool


def gti(
    rc_combined,
    chains,
    criticals: tuple[float, float],
    drop_threshold: float = 0.8,
) -> GtiRecord:
    """Global transition indicator for the newest frame pair.

    rc_combined is the combined residual curvature of each frame pair, in
    order, with the current pair last.  The drop fraction needs at least
    two values and a positive previous one; otherwise it stays undefined
    and the indicator cannot fire.  Rising residual curvature clamps to
    drop 0.
    """
    critical_short, critical_long = criticals
    chain_max = max((c.length for c in chains), default=0)
    drop: float | None = None
    if len(rc_combined) >= 2:
        prev, cur = float(rc_combined[-2]), float(rc_combined[-1])
        if math.isfinite(prev) and prev > 0.0 and math.isfinite(cur):
            drop = max(0.0, (prev - cur) / prev)
    triggered = drop is not None and drop >= drop_threshold and chain_max > critical_short
    imminent = triggered and chain_max >= 1
    record = GtiRecord(
        chain_max_length=chain_max,
        critical_short=critical_short,
        critical_long=critical_long,
        energy_drop_fraction=drop,
        triggered=triggered,
        imminent=imminent,
    )
    if record.triggered:
        assert record.chain_max_length > record.critical_short
        assert record.energy_drop_fraction is not None
        assert record.energy_drop_fraction >= drop_threshold
    return record
