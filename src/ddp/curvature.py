"""Local curvature, stability thresholds, category classification, chains.

Curvature is the energy-exchange-rate proxy kappa = |dH| / x**2: the Borda
change of a point over the squared length scale associated with it.  A
sentinel (unbounded) length scale means no exchange, kappa = 0.

Two thresholds gate each point and dimension.  The short-term threshold is
the inverse of the current frame pair's root magnitude |x| (the same on
every root branch); the long-term threshold is the inverse of the
running mean of those magnitudes over all frame pairs seen so far.  On the
first analyzed pair the two coincide.

Point categories:

    1  fully stable, no ratio above 1
    2  short-term violation only
    3  long-term violation only (also the resolution for points with
       disjoint short-only and long-only violations; flagged)
    4  jointly unstable dimensions exist but the instability vanishes when
       the dilatational (mean) part of the Borda change is removed
    5  one jointly unstable dimension
    6  two jointly unstable dimensions
    7  three or more jointly unstable dimensions

Categories 8 and 9 are frame-level escalations applied to chain members
once critical chain lengths are known (8: chain longer than the short-term
critical length, 9: longer than the long-term one).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .lengthscale import LengthScaleRoots

# Escalated categories assigned at frame level.
CHAIN_SHORT_CATEGORY = 8
CHAIN_LONG_CATEGORY = 9
UNSTABLE_MIN_CATEGORY = 5


def median(values: np.ndarray, axis: int, mask: np.ndarray | None = None) -> np.ndarray:
    """np.median along `axis`, bit for bit, by sorting each lane and picking its middle.

    A median is one order statistic or the mean of the two middle ones.  A
    lane holding a NaN gives NaN, as in np.median (sorting puts NaN last).
    With a `mask`, only the entries under it count: the others sort to the
    end as NaN, and a lane with no entry under the mask gives NaN.
    """
    lanes = np.moveaxis(values if mask is None else np.where(mask, values, np.nan), axis, -1)
    shape, n = lanes.shape[:-1], lanes.shape[-1]
    ordered = np.sort(lanes.reshape(-1, n), axis=1)   # one lane per row
    count = np.full(len(ordered), n)
    if mask is not None:
        count = np.count_nonzero(mask, axis=axis).ravel()
    rows, last = np.arange(len(ordered)), np.maximum(count - 1, 0)
    lo, hi = ordered[rows, last // 2], ordered[rows, count // 2]
    mid, even = lo.copy(), count % 2 == 0
    mid[even] = (lo[even] + hi[even]) / 2   # only where taken: the sum can overflow
    return np.where(np.isnan(ordered[rows, last]), np.nan, mid).reshape(shape)


def curvature_tensor(dh_matrix, roots: LengthScaleRoots) -> np.ndarray:
    """kappa per (point, dimension) for a whole frame pair.

    dh_matrix: (D, N).  Returns (N, D), the kappa of each of a point's 2**D
    root vectors (they differ only in sign), with exact zeros on sentinels
    and where dH is zero.

    In the pipeline kappa < B**2 N**2, B = 4(N - 1)/eps: margins of prescaled
    values are below 2/eps, so |dH| < B, and ranks lie in [1, N].  Closed
    form and fallback: x**2 = |R/dH|, so kappa <= dH**2.  Refined: with
    c_d = D R_d / sum_k dH_k, log|x*_d| = log|c_d| / 2 - sum_k log(R_k / R_d)
    / (2(f - 2)) over the f finite dimensions, so |x*_d| >= sqrt(|c_d|) / N,
    and kappa <= |dH_d| |sum_k dH_k| N**2 / D.  The bound is 5.5e28 at N = 243
    and the default eps = 1e-9; kappa reaches 8.99e307, where v + v
    overflows, only for an eps below about 4e-154 * N**2.
    """
    dh_pts = np.abs(np.asarray(dh_matrix, dtype=float).T)  # (N, D)
    x2 = np.square(roots.x)
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = dh_pts / x2
    return np.where(np.isinf(x2) | roots.sentinel, 0.0, kappa)


@dataclass
class ThresholdUpdate:
    kappa_short: np.ndarray  # (P, N, D), NaN where undefined
    kappa_long: np.ndarray   # (P, N, D), NaN where undefined
    defined: np.ndarray      # (P, N, D) bool, both thresholds defined


def update_thresholds(roots: LengthScaleRoots, frames: int = 1) -> ThresholdUpdate:
    """Short- and long-term curvature thresholds of consecutive frame pairs.

    `roots` holds `frames` frame pairs of equal length, point-major and in
    time order (zero frames hold zero points).  The per-point magnitude
    statistic is |x|, the same on all 2**D branches, read for all pairs in
    one call; the running mean starts empty and then advances pair by
    pair, so a pair's long-term threshold sees only the pairs up to and
    including it.  Sentinel dimensions contribute nothing: thresholds stay
    undefined there and the running mean is not advanced.
    """
    total, d = roots.sentinel.shape
    n = total // max(frames, 1)
    if frames < 0 or frames * n != total:
        raise ContractViolation(f"{total} points do not split into {frames} frame pairs")

    magnitude = np.abs(roots.x).reshape(frames, n, d)  # inf on sentinels
    defined = np.isfinite(magnitude)

    count = np.zeros((n, d), dtype=np.int64)
    mean = np.zeros((n, d))
    means = np.empty_like(magnitude)
    long_defined = np.empty_like(defined)
    for k in range(frames):
        # incremental mean only where a new defined magnitude arrived
        new = defined[k]
        count[new] += 1
        mean[new] += (magnitude[k][new] - mean[new]) / count[new]
        means[k] = mean
        long_defined[k] = count > 0

    with np.errstate(divide="ignore"):
        kappa_short = np.where(defined, 1.0 / magnitude, np.nan)
        kappa_long = np.where(long_defined, 1.0 / np.where(long_defined, means, 1.0), np.nan)
    return ThresholdUpdate(
        kappa_short=kappa_short,
        kappa_long=kappa_long,
        defined=defined,  # a defined magnitude also defines the running mean
    )


@dataclass
class FrameClassification:
    """Point classification; the shapes are those of one pair, or a stack of P pairs in front."""

    categories: np.ndarray       # (N,) int, point-level values in 1..7
    short_unstable: np.ndarray   # (N, D) bool
    long_unstable: np.ndarray    # (N, D) bool
    jointly_unstable: np.ndarray # (N, D) bool
    mode_mixity: np.ndarray      # (N,) bool
    mixed_disjoint: np.ndarray   # (N,) bool


def classify_frame(
    kappa_median: np.ndarray,
    kappa_short: np.ndarray,
    kappa_long: np.ndarray,
    defined: np.ndarray,
    dh_points: np.ndarray,
) -> FrameClassification:
    """Vectorized point classification of one frame pair or a stack of pairs.

    kappa_median, kappa_short, kappa_long, defined, dh_points: (N, D) for
    one pair or (P, N, D) for P pairs; every reduction runs over the last
    axis, so each point is classified on its own.  Dimensions with
    undefined thresholds are excluded from every ratio.
    """
    points = kappa_median.shape[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        short_ratio = np.where(defined, kappa_median / kappa_short, 0.0)
        long_ratio = np.where(defined, kappa_median / kappa_long, 0.0)
    short_flag = defined & (short_ratio > 1.0)
    long_flag = defined & (long_ratio > 1.0)
    joint = short_flag & long_flag

    any_short = short_flag.any(axis=-1)
    any_long = long_flag.any(axis=-1)
    n_joint = joint.sum(axis=-1)

    categories = np.ones(points, dtype=int)
    categories[any_short & ~any_long] = 2
    categories[any_long & ~any_short] = 3
    mixed = any_short & any_long & (n_joint == 0)
    categories[mixed] = 3  # disjoint short/long violations; flagged below
    categories[n_joint == 1] = 5
    categories[n_joint == 2] = 6
    categories[n_joint >= 3] = 7

    # Mode-mixity check: remove the dilatational (mean) part of the Borda
    # change and see whether the jointly unstable dimensions calm down.
    mode_mixity = np.zeros(points, dtype=bool)
    candidates = n_joint > 0
    if candidates.any():
        dil = dh_points.mean(axis=-1, keepdims=True)
        deviatoric = np.abs(dh_points - dil)
        abs_dh = np.abs(dh_points)
        scale = np.where(abs_dh > 0.0, deviatoric / np.where(abs_dh > 0.0, abs_dh, 1.0), 0.0)
        kappa_dev = kappa_median * scale
        calm = (kappa_dev < kappa_short) & (kappa_dev < kappa_long)
        mode_mixity = candidates & np.all(np.where(joint, calm, True), axis=-1)
        categories[mode_mixity] = 4

    return FrameClassification(
        categories=categories,
        short_unstable=short_flag,
        long_unstable=long_flag,
        jointly_unstable=joint,
        mode_mixity=mode_mixity,
        mixed_disjoint=mixed,
    )


@dataclass(frozen=True)
class Chain:
    """A maximal run of consecutive points with category >= 5."""

    start_index: int
    length: int
    dimensions: tuple[int, ...] = ()


def detect_chains(categories, unstable_dims=None) -> list[Chain]:
    """Maximal runs of consecutive unstable points (category >= 5)."""
    categories = np.asarray(categories, dtype=int)
    unstable = categories >= UNSTABLE_MIN_CATEGORY
    chains: list[Chain] = []
    start = None
    for i, flag in enumerate(unstable.tolist() + [False]):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            length = i - start
            dims: tuple[int, ...] = ()
            if unstable_dims is not None:
                dims = tuple(
                    np.nonzero(np.asarray(unstable_dims)[start:i].any(axis=0))[0].tolist()
                )
            chains.append(Chain(start_index=start, length=length, dimensions=dims))
            start = None
    return chains


def escalate_chain_categories(
    categories, chains, critical_short: float, critical_long: float
) -> np.ndarray:
    """Frame-level escalation of chain members to categories 8 and 9."""
    out = np.asarray(categories, dtype=int).copy()
    for chain in chains:
        stop = chain.start_index + chain.length
        if chain.length > critical_long:
            out[chain.start_index:stop] = CHAIN_LONG_CATEGORY
        elif chain.length > critical_short:
            out[chain.start_index:stop] = CHAIN_SHORT_CATEGORY
    return out
