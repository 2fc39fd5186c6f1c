"""Independent brute-force oracles.

Each oracle recomputes a quantity along a deliberately different route
from the package code (explicit loops, np.roots, parametric segment
intersection, the damped iteration in place of the closed-form root, all
2**D signed root vectors in place of one vector per point, one unblocked
dimension at a time in place of row blocks, one burst at a time in place
of the stacked levels, one frame pair at a time in place of the batched
zoom-out tail, one root solve per zoom level in place of one per subject,
values cleaned into Python types and passed to json.dumps
in place of the array-reading JSON writer, one numpy scalar per CSV field
in place of row lists, one xyzm data line at a time in place of a burst at
a time) so that agreement is meaningful
evidence, not tautology.  The scalar twins of the array kernels (one
point, one root, one curvature value) live here too.
"""

from __future__ import annotations

import enum
import io
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from ddp.config import PipelineConfig
from ddp.curvature import ThresholdUpdate, median, update_thresholds
from ddp.errors import (
    ContractViolation,
    GroupUnavailable,
    ParseError,
    TruncationError,
    ValidationError,
)
from ddp.ingest import DEFAULT_SUBJECT, GROUP_LABELS, DataBurst, Dataset, SubjectMeta
from ddp.lengthscale import (
    SENTINEL_THRESHOLD,
    Convergence,
    LengthScaleRoots,
    _coupled_root,
    solve_roots,
)
from ddp.normalization import DEFAULT_EPSILON, NormalizedField, build_field
from ddp.ranking import borda_state, delta_borda
from ddp.report import (
    SCHEMA_VERSION,
    BoxplotStats,
    GroupSlice,
    GroupStats,
    dim_stats,
    percent_change,
)
from ddp.zoomout import (
    FrameLevelState,
    ResidualCurvatureRecord,
    SubjectZoom,
    ZoomProfile,
    _coarsen,
    aggregate,
    frame_level_state,
    line_polyline_intersections,
)

_MAG_HIGH = 1e150
_MAG_LOW = 1e-150


def margin_oracle(u_a: float, u_b: float, m_bar: float) -> float:
    den = u_a + u_b + 2.0 * m_bar
    if den == 0.0:
        return 0.0
    return (u_a - u_b) / den


def borda_oracle(values, m_bar: float) -> list[float]:
    """Borda counts by explicit double loop over opponents."""
    n = len(values)
    counts = []
    for a in range(n):
        total = 0.0
        for b in range(n):
            if a != b:
                total += margin_oracle(values[a], values[b], m_bar)
        counts.append(total)
    return counts


def rank_oracle(h) -> list[float]:
    """Ascending fractional ranks via sorted positions and tie averaging."""
    order = sorted(range(len(h)), key=lambda i: h[i])
    ranks = [0.0] * len(h)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and h[order[j + 1]] == h[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def diagonal_root_oracle(r: float, dh: float) -> float:
    """Magnitude of the decoupled balance x**2 * dh = r; inf when dh ~ 0."""
    if abs(dh) < 1e-12:
        return math.inf
    return math.sqrt(abs(r / dh))


def pair_constant_oracle(u_a: float, u_b: float, epsilon: float = 1e-9):
    """Admissible pair constant via np.roots on s**2 - s + (uA - uB)."""
    roots = np.roots([1.0, -1.0, u_a - u_b])
    if np.iscomplexobj(roots) and np.any(np.abs(roots.imag) > 0):
        return None
    candidates = []
    for s in np.real(roots):
        if abs(s) > epsilon:
            candidates.append(0.5 * (s - u_a - u_b))
    if not candidates:
        return None
    candidates.sort(key=lambda m: (abs(m), -m))
    return candidates[0]


class PairStatus(enum.Enum):
    OK = "ok"
    NO_REAL_ROOT = "no_real_root"
    DEGENERATE = "degenerate"


def pair_constant(
    u_a: float, u_b: float, epsilon: float = DEFAULT_EPSILON
) -> tuple[float | None, PairStatus]:
    """Solve the gradient-match quadratic for one ordered pair.

    Returns (m, OK) for an admissible root, (None, NO_REAL_ROOT) when the
    discriminant is negative, and (None, DEGENERATE) when both roots sit
    inside the denominator guard band.
    """
    diff = u_a - u_b
    disc = 1.0 - 4.0 * diff
    if disc < 0.0:
        return None, PairStatus.NO_REAL_ROOT
    sq = math.sqrt(disc)
    total = u_a + u_b
    best: float | None = None
    for s in (0.5 * (1.0 + sq), 0.5 * (1.0 - sq)):
        if abs(s) <= epsilon:
            continue
        m = 0.5 * (s - total)
        if best is None:
            best = m
        elif abs(m) < abs(best) or (abs(m) == abs(best) and m > best):
            best = m
    if best is None:
        return None, PairStatus.DEGENERATE
    return best, PairStatus.OK


def _pair_constants_oracle(u_a, u_b, epsilon: float = DEFAULT_EPSILON):
    """Pair constants of broadcast pairs by full-length temporaries, no in-place steps.

    A non-finite constant is not admissible.
    """
    u_a = np.asarray(u_a, dtype=float)
    u_b = np.asarray(u_b, dtype=float)
    su = u_a + u_b
    disc = 1.0 - 4.0 * (u_a - u_b)
    real = disc >= 0.0
    sq = np.sqrt(np.where(real, disc, 0.0))
    s1 = 0.5 * (1.0 + sq)
    s2 = 0.5 * (1.0 - sq)
    m1 = 0.5 * (s1 - su)
    m2 = 0.5 * (s2 - su)
    adm1 = real & (np.abs(s1) > epsilon)
    adm2 = real & (np.abs(s2) > epsilon)
    take2 = adm2 & (
        ~adm1
        | (np.abs(m2) < np.abs(m1))
        | ((np.abs(m2) == np.abs(m1)) & (m2 > m1))
    )
    m = np.where(take2, m2, m1)
    admissible = (adm1 | adm2) & np.isfinite(m)
    return np.where(admissible, m, np.nan), admissible


def _pair_margins_oracle(u: np.ndarray, m_bar: float, epsilon: float = DEFAULT_EPSILON):
    """(N, N) margin matrix of one dimension and its zeroed mask, diagonal excluded."""
    u = np.asarray(u, dtype=float)
    du = u[:, None] - u[None, :]
    den = u[:, None] + u[None, :] + 2.0 * m_bar
    zeroed = np.abs(den) <= epsilon
    margins = np.where(zeroed, 0.0, du / np.where(zeroed, 1.0, den))
    np.fill_diagonal(zeroed, False)
    return margins, zeroed


def build_field_oracle(values: np.ndarray, epsilon: float = DEFAULT_EPSILON) -> NormalizedField:
    """``build_field`` one dimension at a time over ``triu_indices`` and full (N, N) matrices.

    The unblocked reference the row-blocked kernel must match bit for bit.
    """
    values = np.asarray(values, dtype=float)
    n, d = values.shape
    a, b = np.triu_indices(n, k=1)
    n_pairs = max(a.size, 1)
    borda = np.zeros((d, n))
    datum = np.full(d, np.nan)
    residual = np.zeros(d)
    fit_excluded = np.zeros(d)
    zeroed = np.zeros((d, n, n), dtype=bool)
    for dim in range(d):
        u = values[:, dim]
        m, ok = _pair_constants_oracle(u[a], u[b], epsilon)
        fit_excluded[dim] = np.count_nonzero(~ok) / n_pairs
        good = m[ok]
        if good.size:
            datum[dim] = np.mean(good)
            residual[dim] = np.sqrt(np.mean((good - datum[dim]) ** 2))
        if not np.isfinite(datum[dim]):
            continue
        margins, zeroed[dim] = _pair_margins_oracle(u, float(datum[dim]), epsilon)
        borda[dim] = margins.sum(axis=1)
    return NormalizedField(
        borda=borda,
        datum=datum,
        datum_residual=residual,
        fit_excluded_fraction=fit_excluded,
        margin_zeroed=zeroed,
        margin_zeroed_fraction=(np.count_nonzero(zeroed, axis=(1, 2)) // 2) / n_pairs,
        unfittable=~np.isfinite(datum),
    )


def chains_oracle(categories) -> list[tuple[int, int]]:
    """(start, length) runs of categories >= 5 via explicit scan."""
    runs = []
    start = None
    for i, c in enumerate(categories):
        if c >= 5 and start is None:
            start = i
        elif c < 5 and start is not None:
            runs.append((start, i - start))
            start = None
    if start is not None:
        runs.append((start, len(categories) - start))
    return runs


def segment_line_intersections_oracle(ts, ys, intercept, slope):
    """Line-polyline intersections via the parametric segment form.

    Every segment is written as P(s) = P0 + s*(P1 - P0), s in [0, 1]; the
    crossing parameter comes from the signed distances of the endpoints to
    the line.  Returns (t, y) pairs sorted by t descending.
    """
    hits = []
    for i in range(len(ts) - 1):
        t0, y0 = ts[i], ys[i]
        t1, y1 = ts[i + 1], ys[i + 1]
        g0 = y0 - (intercept + slope * t0)
        g1 = y1 - (intercept + slope * t1)
        if g0 == g1:
            continue
        s = g0 / (g0 - g1)
        if -1e-12 <= s <= 1.0 + 1e-12:
            t_star = t0 + s * (t1 - t0)
            hits.append((t_star, intercept + slope * t_star))
    hits.sort(key=lambda p: -p[0])
    deduped = []
    for h in hits:
        if not deduped or abs(h[0] - deduped[-1][0]) > 1e-12:
            deduped.append(h)
    return deduped


def quantile_oracle(values, q: float) -> float:
    """Linear-interpolation quantile from first principles."""
    v = sorted(values)
    if len(v) == 1:
        return float(v[0])
    pos = q * (len(v) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    return float(v[lo] * (1.0 - frac) + v[hi] * frac)


def _refine_branches_oracle(c_signed, z0, finite, max_iter, tol):
    """Damped signed fixed point over a flat batch of branch rows.

    c_signed, z0, finite: (K, D).  Rows are independent.  Returns the final
    state (K, D) and a (K,) convergence mask.  Rows whose iterate leaves
    [1e-150, 1e150] in magnitude or stops being finite are abandoned.
    """
    k, _ = z0.shape
    z = z0.copy()
    converged = np.zeros(k, dtype=bool)
    f_count = finite.sum(axis=1)
    active = np.nonzero(f_count > 0)[0]
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(max_iter):
            if active.size == 0:
                break
            za = z[active]
            fa = finite[active]
            fc = f_count[active][:, None]
            absz = np.abs(za)
            logz = np.where(fa, np.log(np.where(fa, absz, 1.0)), 0.0)
            total = logz.sum(axis=1, keepdims=True)
            partner_log = np.where(fc == 1, logz, (total - logz) / np.maximum(fc - 1, 1))
            update = c_signed[active] / np.exp(partner_log)
            z_new = np.where(fa, 0.5 * za + 0.5 * update, za)
            rel = np.where(fa, np.abs(z_new - za) / (np.abs(za) + 1e-300), 0.0)
            small_step = rel.max(axis=1) < tol
            bad = (
                (~np.isfinite(z_new) | (np.abs(z_new) > _MAG_HIGH) | (np.abs(z_new) < _MAG_LOW))
                & fa
            ).any(axis=1)
            z[active] = z_new
            converged[active[small_step & ~bad]] = True
            active = active[~(small_step | bad)]
    return z, converged


def _sign_table_oracle(d: int):
    """Sign patterns per root index: sigma_d = +1 when bit d of the index is 0."""
    idx = np.arange(2 ** d)
    bits = (idx[:, None] >> np.arange(d)[None, :]) & 1
    return idx, 1.0 - 2.0 * bits


@dataclass
class FullRoots:
    """All 2**D signed root vectors and labels of every point, one entry per branch."""

    roots: np.ndarray          # (N, 2**D, D), +inf on sentinel dimensions
    sentinel: np.ndarray       # (N, D) bool
    convergence: np.ndarray    # (N, 2**D) uint8

    def expand(self) -> np.ndarray:
        return self.roots

    def collapse(self) -> LengthScaleRoots:
        """Branch 0 (every sign +) and its label as ``solve_roots`` stores them.

        Branch 0 holds x* at a refined point and |x| at the others.  Raises
        when the branches of a point carry different labels, which one
        label per point cannot hold.
        """
        if not np.all(self.convergence == self.convergence[:, :1]):
            raise ValueError("a point's branches carry different labels")
        return LengthScaleRoots(
            x=self.roots[:, 0].copy(),
            sentinel=self.sentinel,
            label=self.convergence[:, 0].copy(),
        )


def refine_roots_oracle(r_matrix, dh_matrix, max_iter=100, tol=1e-10) -> FullRoots:
    """2**D root vectors of every point by the damped fixed point, for every f.

    The coupled balance is iterated per sign branch at every refinable
    point, whatever its count f of finite dimensions, instead of being
    solved in closed form.  It is the reference for f >= 3, where the
    fixed point is unique, and for the value of the f = 1 root where the
    iteration converges; with f = 2 the system is singular and each branch
    lands wherever rounding takes it.  Every branch is iterated and kept;
    ``collapse()`` makes the result a drop-in for ``solve_roots``.

    r_matrix, dh_matrix: (D, N) rank and Borda-change matrices.
    """
    r_pts = np.asarray(r_matrix, dtype=float).T   # (N, D)
    dh_pts = np.asarray(dh_matrix, dtype=float).T
    if r_pts.shape != dh_pts.shape:
        raise ValueError("rank and Borda-change matrices must share a shape")
    n, d = r_pts.shape
    nroots = 2 ** d

    sentinel = np.abs(dh_pts) < SENTINEL_THRESHOLD
    safe_dh = np.where(sentinel, 1.0, dh_pts)
    ratio = r_pts / safe_dh
    magnitude = np.where(sentinel, np.inf, np.sqrt(np.abs(ratio)))
    finite = ~sentinel

    idx, sigma_all = _sign_table_oracle(d)
    rep_idx = idx[(idx & 1) == 0]           # branches with sigma_0 = +1
    anti_idx = rep_idx ^ (nroots - 1)
    sigma_rep = sigma_all[rep_idx]
    n_rep = rep_idx.size

    roots = sigma_all[None, :, :] * magnitude[:, None, :]
    convergence = np.full((n, nroots), int(Convergence.CLOSED_FORM), dtype=np.uint8)

    dh_sum = (4.0 / d) * dh_pts.sum(axis=1)
    refinable = (np.abs(dh_sum) >= SENTINEL_THRESHOLD) & finite.any(axis=1)
    pts = np.nonzero(refinable)[0]
    if pts.size:
        n_p = pts.size
        coeff = 4.0 * r_pts[pts] / dh_sum[pts][:, None]           # (P, D) signed
        z0 = (sigma_rep[None, :, :] * magnitude[pts][:, None, :]).reshape(n_p * n_rep, d)
        fin = np.broadcast_to(
            finite[pts][:, None, :], (n_p, n_rep, d)
        ).reshape(n_p * n_rep, d)
        c_rows = np.broadcast_to(
            coeff[:, None, :], (n_p, n_rep, d)
        ).reshape(n_p * n_rep, d)
        z, conv = _refine_branches_oracle(c_rows, z0, fin, max_iter, tol)
        z = z.reshape(n_p, n_rep, d)
        conv = conv.reshape(n_p, n_rep)
        for b in range(n_rep):
            ri, ai = int(rep_idx[b]), int(anti_idx[b])
            good = pts[conv[:, b]]
            roots[good, ri] = z[conv[:, b], b]
            roots[good, ai] = -z[conv[:, b], b]
            convergence[good, ri] = Convergence.REFINED
            convergence[good, ai] = Convergence.REFINED
            failed = pts[~conv[:, b]]
            convergence[failed, ri] = Convergence.FALLBACK
            convergence[failed, ai] = Convergence.FALLBACK

    # sentinel dimensions carry a sign-free +inf in every vector
    return FullRoots(
        roots=np.where(sentinel[:, None, :], np.inf, roots),
        sentinel=sentinel,
        convergence=convergence,
    )


def solve_roots_full_oracle(r_matrix, dh_matrix) -> FullRoots:
    """Enumerate and couple the 2**D root vectors of every point in a frame.

    The full-layout solver that one vector per point replaced, with its
    closed form taken at every refinable point: every rep/anti branch is
    written by hand, and `roots` holds all (N, 2**D, D) signed vectors.

    r_matrix, dh_matrix: (D, N) rank and Borda-change matrices.
    """
    r_pts = np.asarray(r_matrix, dtype=float).T   # (N, D)
    dh_pts = np.asarray(dh_matrix, dtype=float).T
    if r_pts.shape != dh_pts.shape:
        raise ContractViolation("rank and Borda-change matrices must share a shape")
    n, d = r_pts.shape
    nroots = 2 ** d

    sentinel = np.abs(dh_pts) < SENTINEL_THRESHOLD
    safe_dh = np.where(sentinel, 1.0, dh_pts)
    ratio = r_pts / safe_dh
    magnitude = np.where(sentinel, np.inf, np.sqrt(np.abs(ratio)))
    finite = ~sentinel

    _, sigma_all = _sign_table_oracle(d)
    roots = sigma_all[None, :, :] * magnitude[:, None, :]
    convergence = np.full((n, nroots), int(Convergence.CLOSED_FORM), dtype=np.uint8)

    dh_sum = (4.0 / d) * dh_pts.sum(axis=1)
    refinable = (np.abs(dh_sum) >= SENTINEL_THRESHOLD) & finite.any(axis=1)
    pts = np.nonzero(refinable)[0]
    coeff = 4.0 * r_pts[pts] / dh_sum[pts][:, None]               # (P, D) signed
    if pts.size:
        x, ok = _coupled_root(coeff, finite[pts])
        good = pts[ok]
        # representative branches (sigma_0 = +1) hold x*, their negations -x*
        roots[good] = sigma_all[None, :, :1] * x[ok][:, None, :]
        convergence[good] = Convergence.REFINED
        convergence[pts[~ok]] = Convergence.FALLBACK

    # sentinel dimensions carry a sign-free +inf in every vector
    return FullRoots(
        roots=np.where(sentinel[:, None, :], np.inf, roots),
        sentinel=sentinel,
        convergence=convergence,
    )


# ---------------------------------------------------------------------------
# scalar twins: one point, one root, one curvature value


def local_curvature(dh_value: float, x_value: float) -> float:
    """kappa = |dH| / x**2 for a finite root, 0 for the +inf sentinel."""
    if math.isinf(x_value):
        return 0.0
    return abs(dh_value) / (x_value * x_value)


def curvature_full_oracle(dh_matrix, roots) -> np.ndarray:
    """kappa of every one of the 2**D expanded root vectors, (N, 2**D, D).

    dh_matrix: (D, N).  Zero on sentinel dimensions, as ``local_curvature``.
    """
    vectors = roots.expand()
    dh = np.abs(np.asarray(dh_matrix, dtype=float).T)[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa = dh / (vectors * vectors)
    return np.where(np.isinf(vectors) | roots.sentinel[:, None, :], 0.0, kappa)


@dataclass(frozen=True)
class DiagonalRoot:
    magnitude: float  # +inf for the sentinel

    @property
    def sentinel(self) -> bool:
        return math.isinf(self.magnitude)


def diagonal_roots(r_value: float, dh_value: float) -> DiagonalRoot:
    """Closed-form per-dimension root magnitude, +inf for the sentinel."""
    if abs(dh_value) < SENTINEL_THRESHOLD:
        return DiagonalRoot(magnitude=math.inf)
    return DiagonalRoot(magnitude=math.sqrt(abs(r_value / dh_value)))


@dataclass
class PointRoots:
    """All 2**D root vectors of one observation point."""

    vectors: np.ndarray        # (2**D, D); +inf on sentinel dimensions
    sentinel: np.ndarray       # (D,) bool
    convergence: np.ndarray    # (2**D,) Convergence values


def enumerate_roots(r_vector, dh_vector) -> PointRoots:
    """All 2**D root vectors of a single observation point, through solve_roots."""
    r_vector = np.atleast_1d(np.asarray(r_vector, dtype=float))
    dh_vector = np.atleast_1d(np.asarray(dh_vector, dtype=float))
    batch = solve_roots(r_vector[:, None], dh_vector[:, None])
    return PointRoots(
        vectors=batch.expand()[0],
        sentinel=batch.sentinel[0],
        convergence=batch.convergence[0],
    )


# ---------------------------------------------------------------------------
# the zoom-out tail one frame pair at a time: per-pair thresholds, a level
# summary looping over dimensions, per-pair residual curvature and the
# np.polyfit line fits of the critical chain lengths


@dataclass
class ThresholdHistory:
    """Running per-point, per-dimension mean of root magnitudes.

    Entries with no defined observation yet have count 0.
    """

    count: np.ndarray  # (N, D) int64
    mean: np.ndarray   # (N, D)

    @classmethod
    def empty(cls, n_points: int, n_dims: int) -> "ThresholdHistory":
        return cls(
            count=np.zeros((n_points, n_dims), dtype=np.int64),
            mean=np.zeros((n_points, n_dims)),
        )


def slice_roots(roots: LengthScaleRoots, start: int, stop: int) -> LengthScaleRoots:
    """Points [start, stop) of a roots result, every field sliced alike."""
    return LengthScaleRoots(*(getattr(roots, f.name)[start:stop] for f in fields(roots)))


def update_thresholds_oracle(roots: LengthScaleRoots, history: ThresholdHistory | None):
    """Thresholds of one frame pair and the history after it.

    The thresholds' fields are (N, D) instead of (1, N, D); the history
    passed in is not changed.
    """
    n, d = roots.sentinel.shape
    if history is None:
        history = ThresholdHistory.empty(n, d)
    if history.count.shape != (n, d):
        raise ValueError("history shape does not match the frame")

    magnitude = np.median(np.abs(roots.expand()), axis=1)  # (N, D); inf on sentinels
    defined = np.isfinite(magnitude)

    count = history.count.copy()
    mean = history.mean.copy()
    count[defined] += 1
    step = np.where(defined & (count > 0), (magnitude - mean), 0.0)
    denom = np.where(count > 0, count, 1)
    mean = np.where(defined, mean + step / denom, mean)

    with np.errstate(divide="ignore"):
        kappa_short = np.where(defined, 1.0 / magnitude, np.nan)
        long_defined = count > 0
        kappa_long = np.where(long_defined, 1.0 / np.where(long_defined, mean, 1.0), np.nan)
    thresholds = ThresholdUpdate(
        kappa_short=kappa_short, kappa_long=kappa_long, defined=defined & long_defined
    )
    return thresholds, ThresholdHistory(count=count, mean=mean)


def _nanmedian_oracle(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    return float(np.median(finite)) if finite.size else float("nan")


def summarize_level_oracle(kappa, thresholds):
    """One pair's (kappa, inverse ltilde, inverse l) medians per dimension at one level.

    kappa: (N, 2**D, D); one dimension at a time.
    """
    d = kappa.shape[-1]
    kappa_pd = np.full(d, np.nan)
    ltilde_pd = np.full(d, np.nan)
    long_pd = np.full(d, np.nan)
    for dim in range(d):
        kappa_pd[dim] = np.median(kappa[:, :, dim])
        mask = thresholds.defined[:, dim]
        if mask.any():
            ltilde_pd[dim] = np.median(thresholds.kappa_short[mask, dim])
            long_pd[dim] = np.median(thresholds.kappa_long[mask, dim])
    return kappa_pd, ltilde_pd, long_pd


def profile_oracle(point_counts, x_coordinates, levels) -> ZoomProfile:
    """One pair's ZoomProfile from its per-level ``summarize_level_oracle`` results."""
    kappa, ltilde, long_ = (np.array(v) for v in zip(*levels))   # (L, D) each
    return ZoomProfile(
        point_count=np.array(point_counts),
        x_coordinate=np.array(x_coordinates, dtype=float),
        kappa_per_dim=kappa,
        kappa_combined=np.array([_nanmedian_oracle(v) for v in kappa]),
        inv_ltilde_per_dim=ltilde,
        inv_ltilde_combined=np.array([_nanmedian_oracle(v) for v in ltilde]),
        inv_l_per_dim=long_,
        inv_l_combined=np.array([_nanmedian_oracle(v) for v in long_]),
    )


def residual_curvature_oracle(kappa: np.ndarray) -> ResidualCurvatureRecord:
    """One pair's residual curvature.  kappa: (9, 2**D, D).

    Each root's median over the 9 points, per dimension.  The record keeps
    one value per dimension, so the roots of a dimension must agree bit for
    bit; AssertionError when they do not.
    """
    rc = np.median(kappa, axis=0).T    # (D, 2**D)
    rc_per_dim = rc[:, 0].copy()
    if rc.tobytes() != np.repeat(rc_per_dim[:, None], rc.shape[1], axis=1).tobytes():
        raise AssertionError("the roots of a dimension differ in residual curvature")
    return ResidualCurvatureRecord(
        rc_per_dim=rc_per_dim,
        rc_combined=_nanmedian_oracle(rc_per_dim),
    )


def boxplot_stats_oracle(values):
    """Box, whiskers and outliers of one value collection, on its own."""
    v = np.asarray(values, dtype=float).ravel()
    v = v[np.isfinite(v)]
    if v.size == 0:
        raise ValueError("boxplot_stats needs at least one finite value")
    q25, q75 = np.percentile(v, [25.0, 75.0])
    mu = float(np.mean(v))
    sigma = float(np.std(v))
    lo, hi = mu - 2.7 * sigma, mu + 2.7 * sigma
    outliers = tuple(float(x) for x in np.sort(v[(v < lo) | (v > hi)]))
    return BoxplotStats(
        q25=float(q25), q75=float(q75), whisker_low=lo, whisker_high=hi, outliers=outliers,
    )


def frame_level_state_oracle(burst, config: PipelineConfig) -> FrameLevelState:
    """One burst's level state from its own ``build_field`` and ``borda_state`` calls."""
    field = build_field(burst.values, config.epsilon_denominator)
    return FrameLevelState(
        borda=borda_state(field),
        datum=field.datum,
        datum_residual=field.datum_residual,
        fit_excluded_fraction=field.fit_excluded_fraction,
        margin_zeroed_fraction=field.margin_zeroed_fraction,
        unfittable=field.unfittable,
    )


@dataclass
class PairZoom:
    """One frame pair's share of a ``SubjectZoom``, so pair k compares against pair k."""

    positions: tuple[int, int]
    profile: ZoomProfile
    rc: ResidualCurvatureRecord
    fallback_fraction: float
    current_state: FrameLevelState
    dh: np.ndarray            # (D, N)
    roots: LengthScaleRoots
    kappa_median: np.ndarray  # (N, D)
    kappa_short: np.ndarray   # (N, D)
    kappa_long: np.ndarray    # (N, D)
    defined: np.ndarray       # (N, D)


def pair_zoom(zoom: SubjectZoom, k: int) -> PairZoom:
    """Pair k of a subject's zoom result, its stacks indexed at k."""
    n = zoom.dh.shape[2]
    th = zoom.thresholds
    return PairZoom(
        positions=(int(zoom.previous[k]), int(zoom.current[k])),
        profile=zoom.profile[k],
        rc=zoom.rc[k],
        fallback_fraction=zoom.fallback_fraction[k],
        current_state=zoom.current_state[k],
        dh=zoom.dh[k],
        roots=slice_roots(zoom.roots, k * n, (k + 1) * n),
        kappa_median=zoom.kappa_median[k],
        kappa_short=th.kappa_short[k],
        kappa_long=th.kappa_long[k],
        defined=th.defined[k],
    )


def zoom_profile_oracle(bursts, config: PipelineConfig) -> list[PairZoom]:
    """zoom_profile with the tail run one frame pair at a time, history threaded in order.

    Each burst is aggregated, normalized and ranked on its own at every
    level, not as one stack per level.  Curvature, thresholds and RC are
    taken over all 2**D signed root branches (``expand()``), not over one
    vector per point.  A burst with an unfittable dimension at any level
    raises ContractViolation.
    """
    counts = config.zoom_point_counts()
    for b in bursts:
        if b.n_points != counts[0] or b.n_dims != config.D:
            raise ContractViolation(f"burst {b.burst_index} has the wrong shape")
    stride = config.stride_n
    pairs = [(t - stride, t) for t in range(stride, len(bursts))]
    levels = [[] for _ in pairs]
    finest, current_states = [], []
    fallback_vectors = [0] * len(pairs)
    total_vectors = [0] * len(pairs)
    level_bursts = list(bursts)
    for li, n_l in enumerate(counts):
        if li > 0:
            level_bursts = [aggregate(b, config.aggregation_factor) for b in level_bursts]
        states = [frame_level_state_oracle(b, config) for b in level_bursts]
        for b, st in zip(level_bursts, states):
            if st.unfittable.any():
                raise ContractViolation(f"burst {b.burst_index} has an unfittable dimension")
        if not pairs:
            continue   # every burst is checked, with or without a pair
        dh = np.stack([delta_borda(states[c].borda, states[p].borda) for p, c in pairs])
        dh_points = dh.transpose(1, 0, 2).reshape(config.D, -1)
        r_points = np.concatenate([states[c].borda.R for _, c in pairs], axis=1)
        roots_all = solve_roots(r_points, dh_points)
        kappa_all = curvature_full_oracle(dh_points, roots_all)   # all 2**D signed branches

        history = None
        for pi, (_, c) in enumerate(pairs):
            lo, hi = pi * n_l, (pi + 1) * n_l
            roots = slice_roots(roots_all, lo, hi)
            kappa = kappa_all[lo:hi]
            thresholds, history = update_thresholds_oracle(roots, history)
            levels[pi].append(summarize_level_oracle(kappa, thresholds))
            fallback_vectors[pi] += int(np.sum(roots.convergence == 2))
            total_vectors[pi] += roots.convergence.size
            if li == 0:
                current_states.append(states[c])
                finest.append((dh[pi], roots, np.median(kappa, axis=1), thresholds))

    return [
        PairZoom(
            positions=pair,
            profile=profile_oracle(
                counts, [config.aggregation_factor ** li for li in range(len(counts))], levels[pi]
            ),
            rc=residual_curvature_oracle(kappa_all[pi * 9:(pi + 1) * 9]),
            fallback_fraction=fallback_vectors[pi] / total_vectors[pi],
            current_state=current_states[pi],
            dh=dh_pi,
            roots=roots,
            kappa_median=kappa_median,
            kappa_short=thresholds.kappa_short,
            kappa_long=thresholds.kappa_long,
            defined=thresholds.defined,
        )
        for pi, (pair, (dh_pi, roots, kappa_median, thresholds)) in enumerate(zip(pairs, finest))
    ]


def zoom_profile_levels_oracle(bursts, config: PipelineConfig) -> SubjectZoom:
    """zoom_profile with one root solve, curvature and threshold call per level.

    The level loop of the stacked zoom-out before its levels shared one
    root solve: each level's Borda changes go through their own
    ``solve_roots`` and ``update_thresholds`` calls, and the finest level's
    results are kept as they come.  Curvature, its level medians and RC
    are taken over all 2**D expanded root vectors of each point, as they
    were before one vector per point.  The package's single solve over
    every level must give the same bits.
    """
    counts = config.zoom_point_counts()
    d, stride = config.D, config.stride_n
    prev = np.arange(max(len(bursts) - stride, 0))
    cur = prev + stride
    n_pairs, branches = len(prev), 2 ** d
    level_stats = ([], [], [])
    fallback_vectors = np.zeros(n_pairs, dtype=np.int64)
    stack = np.array([b.values for b in bursts], dtype=float).reshape(len(bursts), counts[0], d)
    for li, n_l in enumerate(counts):
        if li > 0:
            stack = _coarsen(stack, config.aggregation_factor)
        state = frame_level_state(stack, config)
        if state.unfittable.any():
            raise ContractViolation(f"an unfittable dimension at the {n_l}-point level")
        dh = delta_borda(state.borda[cur], state.borda[prev])
        dh_points = dh.transpose(1, 0, 2).reshape(d, -1)
        r_points = state.borda.R[cur].transpose(1, 0, 2).reshape(d, -1)
        roots_all = solve_roots(r_points, dh_points)
        kappa = curvature_full_oracle(dh_points, roots_all).reshape(n_pairs, n_l, branches, d)
        th = update_thresholds(roots_all, frames=n_pairs)
        thresholds = ThresholdUpdate(*(   # (P, N_l, D), also when P = 0
            a.reshape(n_pairs, n_l, d) for a in (th.kappa_short, th.kappa_long, th.defined)
        ))
        level_stats[0].append(median(kappa.reshape(n_pairs, n_l * branches, d), axis=1))
        level_stats[1].append(median(thresholds.kappa_short, axis=1, mask=thresholds.defined))
        level_stats[2].append(median(thresholds.kappa_long, axis=1, mask=thresholds.defined))
        fallback_vectors += np.count_nonzero(
            roots_all.convergence.reshape(n_pairs, n_l * branches) == Convergence.FALLBACK, axis=1
        )
        if li == 0:
            finest = dict(
                current_state=state[cur],
                dh=dh,
                roots=roots_all,
                kappa_median=median(kappa, axis=2),
                thresholds=thresholds,
            )
    records = [residual_curvature_oracle(k) for k in kappa]   # the 9-point level, per pair
    per_dim = [np.stack(stats, axis=1) for stats in level_stats]
    kappa_c, ltilde_c, long_c = (median(v, axis=2, mask=np.isfinite(v)) for v in per_dim)
    profile = ZoomProfile(
        point_count=np.array(counts),
        x_coordinate=np.array([float(config.aggregation_factor ** li) for li in range(len(counts))]),
        kappa_per_dim=per_dim[0],
        kappa_combined=kappa_c,
        inv_ltilde_per_dim=per_dim[1],
        inv_ltilde_combined=ltilde_c,
        inv_l_per_dim=per_dim[2],
        inv_l_combined=long_c,
    )
    return SubjectZoom(
        previous=prev,
        current=cur,
        profile=profile,
        rc=ResidualCurvatureRecord(
            rc_per_dim=np.array([r.rc_per_dim for r in records]).reshape(n_pairs, d),
            rc_combined=np.array([r.rc_combined for r in records], dtype=float),
        ),
        fallback_fraction=fallback_vectors / (sum(counts) * branches),
        **finest,
    )


def critical_chain_lengths_oracle(profile: ZoomProfile):
    """(short, long) critical chain lengths with np.polyfit line fits."""
    n = int(profile.point_count[0])
    sentinel = float(n + 1)
    usable = [
        li for li in range(len(profile.point_count))
        if math.isfinite(profile.kappa_combined[li])
        and math.isfinite(profile.inv_ltilde_combined[li])
        and math.isfinite(profile.inv_l_combined[li])
    ]
    if len(usable) < 2:
        return sentinel, sentinel
    t = np.log([float(profile.x_coordinate[li]) for li in usable])
    kappa = np.array([profile.kappa_combined[li] for li in usable])
    ts_mirror = -t[::-1]
    ys_mirror = kappa[::-1]

    def _critical_for(values):
        slope, intercept = np.polyfit(t, values, 1)
        candidates = line_polyline_intersections(ts_mirror, ys_mirror, intercept, slope)
        if not candidates:
            return sentinel
        current = candidates[0]
        for cand in candidates[1:]:
            if cand[1] < current[1]:
                current = cand
        return float(math.exp(current[0]) * n)

    long_critical = _critical_for(np.array([profile.inv_ltilde_combined[li] for li in usable]))
    short_critical = _critical_for(np.array([profile.inv_l_combined[li] for li in usable]))
    return short_critical, long_critical


def group_stats_oracle(reports, config: PipelineConfig, threshold: float | None = None) -> GroupStats:
    """group_stats by concatenating every group's pools, without streaming."""
    pools: dict[str, list[list[np.ndarray]]] = {}
    subject_counts: dict[str, int] = {}
    for rep in reports:
        per_dim = [np.asarray(v, dtype=float) for v in rep.rc_values_per_dim]
        slot = pools.setdefault(rep.group_label, [[] for _ in range(config.D)])
        for d in range(config.D):
            vals = per_dim[d] if d < len(per_dim) else np.empty(0)
            slot[d].append(vals[np.isfinite(vals)])
        subject_counts[rep.group_label] = subject_counts.get(rep.group_label, 0) + 1
    merged = {label: [np.concatenate(cols) for cols in slot] for label, slot in pools.items()}
    everything = np.concatenate([col for slot in merged.values() for col in slot])
    if everything.size == 0:
        raise GroupUnavailable("no residual-curvature values in any group")
    if threshold is None:
        threshold = config.rc_threshold_multiplier * float(np.median(everything))
    groups, unavailable = {}, []
    for label in GROUP_LABELS:
        if label not in merged:
            continue
        pooled = np.concatenate(merged[label])
        if pooled.size == 0:
            unavailable.append(label)
            continue
        groups[label] = GroupSlice(
            n_subjects=subject_counts[label],
            per_dim=[dim_stats(c, threshold, config.bin_edges) if c.size else None
                     for c in merged[label]],
            combined=dim_stats(pooled, threshold, config.bin_edges),
        )
    pc_per_dim, pc_combined = None, None
    if "control" in groups and "post_aclr" in groups:
        ctrl, post = groups["control"], groups["post_aclr"]
        pc_per_dim = [
            None if c is None or p is None or c.median == 0.0 else percent_change(c.median, p.median)
            for c, p in zip(ctrl.per_dim, post.per_dim)
        ]
        if ctrl.combined.median != 0.0:
            pc_combined = percent_change(ctrl.combined.median, post.combined.median)
    return GroupStats(
        threshold=float(threshold),
        bin_edges=tuple(config.bin_edges),
        unavailable=unavailable,
        groups=groups,
        percent_change_per_dim=pc_per_dim,
        percent_change_combined=pc_combined,
    )


# ---------------------------------------------------------------------------
# emitters: every value cleaned into Python types, then json.dumps; CSV rows
# one numpy scalar at a time


def _clean(x):
    """Floats become JSON-safe: non-finite maps to None.  Bools stay bools."""
    if isinstance(x, bool):   # before int, which bool subclasses
        return x
    if isinstance(x, (np.floating, float)):
        v = float(x)
        return v if math.isfinite(v) else None
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, np.ndarray):
        return [_clean(v) for v in x.tolist()]
    if isinstance(x, (list, tuple)):
        return [_clean(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _clean(v) for k, v in x.items()}
    return x


def json_text_oracle(value) -> str:
    """The JSON text of a cleaned value through the stdlib encoder."""
    return json.dumps(_clean(value), indent=2, allow_nan=False)


def _boxplot_json_oracle(b):
    if b is None:
        return None
    return {
        "q25": _clean(b.q25),
        "q75": _clean(b.q75),
        "whisker_low": _clean(b.whisker_low),
        "whisker_high": _clean(b.whisker_high),
        "outliers": _clean(b.outliers),
    }


def _frame_json_oracle(fr) -> dict:
    lv = fr.profile
    rc = fr.rc.rc_per_dim
    return {
        "previous_burst_index": _clean(fr.previous_burst_index),
        "current_burst_index": _clean(fr.current_burst_index),
        "dt_span": _clean(fr.dt_span),
        "datum": _clean(fr.datum),
        "datum_residual": _clean(fr.datum_residual),
        "rc_per_dim": _clean(fr.rc.rc_per_dim),
        "rc_combined": _clean(fr.rc.rc_combined),
        "rc_roots": _clean(np.repeat(rc[:, None], 2 ** rc.size, axis=1)),   # each root's value
        "critical_short": _clean(fr.critical_short),
        "critical_long": _clean(fr.critical_long),
        "gti": {
            "chain_max_length": fr.gti.chain_max_length,
            "critical_short": _clean(fr.gti.critical_short),
            "critical_long": _clean(fr.gti.critical_long),
            "energy_drop_fraction": _clean(fr.gti.energy_drop_fraction),
            "triggered": fr.gti.triggered,
            "imminent": fr.gti.imminent,
        },
        "pdi_counts": {str(k): v for k, v in sorted(fr.pdi_counts.items())},
        "chains": [
            {"start_index": c.start_index, "length": c.length,
             "dimensions": list(c.dimensions)}
            for c in fr.chains
        ],
        "mixed_disjoint_points": np.nonzero(fr.mixed_disjoint)[0].tolist(),
        "fallback_fraction": _clean(fr.fallback_fraction),
        "fit_excluded_fraction": _clean(fr.fit_excluded_fraction),
        "margin_zeroed_fraction": _clean(fr.margin_zeroed_fraction),
        "partial_dims": [],
        "levels": [
            {
                "point_count": _clean(lv.point_count[li]),
                "x_coordinate": _clean(lv.x_coordinate[li]),
                "kappa_per_dim": _clean(lv.kappa_per_dim[li]),
                "kappa_combined": _clean(lv.kappa_combined[li]),
                "inv_ltilde_per_dim": _clean(lv.inv_ltilde_per_dim[li]),
                "inv_ltilde_combined": _clean(lv.inv_ltilde_combined[li]),
                "inv_l_per_dim": _clean(lv.inv_l_per_dim[li]),
                "inv_l_combined": _clean(lv.inv_l_combined[li]),
            }
            for li in range(len(lv.point_count))
        ],
    }


def _subject_json_oracle(rep) -> dict:
    doc = {
        "subject_id": rep.subject_id,
        "group_label": rep.group_label,
        "mass": _clean(rep.mass),
        "mass_defaulted": rep.mass_defaulted,
        "n_bursts": rep.n_bursts,
        "prescale_factors": _clean(rep.prescale_factors),
        "rc_median_per_dim": _clean(rep.rc_median_per_dim),
        "rc_combined_median": _clean(rep.rc_combined_median),
        "rc_values_per_dim": _clean(rep.rc_values_per_dim),
        "pdi_histogram": {str(k): v for k, v in sorted(rep.pdi_histogram.items())},
        "boxplot_per_dim": [_boxplot_json_oracle(b) for b in rep.boxplot_per_dim],
        "modulation_iqr_per_dim": _clean(rep.modulation_iqr_per_dim),
        "energy_exchange_amplitudes": {
            str(k): _clean(v) for k, v in sorted(rep.energy_exchange_amplitudes.items())
        },
        "frames": [_frame_json_oracle(fr) for fr in rep.frames],
    }
    if rep.injection is not None:
        doc["injection"] = {
            "burst_index": rep.injection.burst_index,
            "time_index": rep.injection.time_index,
            "dimension": rep.injection.dimension,
            "drop_fraction": _clean(rep.injection.drop_fraction),
        }
    return doc


def _group_stats_json_oracle(gs):
    if gs is None:
        return None
    return {
        "threshold": _clean(gs.threshold),
        "bin_edges": _clean(gs.bin_edges),
        "unavailable": gs.unavailable,
        "groups": {
            label: {
                "n_subjects": sl.n_subjects,
                "per_dim": [
                    None if d is None else {
                        "n": d.n,
                        "median": _clean(d.median),
                        "percent_above": _clean(d.percent_above),
                        "bin_counts": list(d.bin_counts),
                    }
                    for d in sl.per_dim
                ],
                "combined": {
                    "n": sl.combined.n,
                    "median": _clean(sl.combined.median),
                    "percent_above": _clean(sl.combined.percent_above),
                    "bin_counts": list(sl.combined.bin_counts),
                },
            }
            for label, sl in gs.groups.items()
        },
        "percent_change_per_dim": _clean(gs.percent_change_per_dim),
        "percent_change_combined": _clean(gs.percent_change_combined),
    }


def group_stats_json_oracle(gs) -> str:
    """The text of ``ddp stats --format json``."""
    return json.dumps(_group_stats_json_oracle(gs), indent=2, allow_nan=False) + "\n"


def report_json_oracle(reports, stats, config: PipelineConfig) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": _clean(asdict(config)),
        "dimension_names": list(config.dimension_names()),
        "subjects": [_subject_json_oracle(r) for r in reports],
        "group_stats": _group_stats_json_oracle(stats),
    }
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _csv_num_oracle(x) -> str:
    v = float(x)
    return repr(v) if math.isfinite(v) else "nan"


def roots_table_csv_oracle(reports) -> str:
    """One row per (subject, burst, dimension, root), each rc value read as a numpy scalar.

    Every root of a dimension has the dimension's `rc_per_dim` value.
    """
    lines = ["subject_id,group_label,burst_index,dimension,root_index,rc"]
    for rep in reports:
        for fr in rep.frames:
            d = fr.rc.rc_per_dim.size
            rc = np.repeat(fr.rc.rc_per_dim[:, None], 2 ** d, axis=1)   # (D, 2**D)
            for dim in range(d):
                for ri in range(2 ** d):
                    lines.append(
                        f"{rep.subject_id},{rep.group_label},{fr.current_burst_index},"
                        f"{dim},{ri},{_csv_num_oracle(rc[dim, ri])}"
                    )
    return "\n".join(lines) + "\n"


_CONV_NAMES_ORACLE = {int(c): c.name.lower() for c in Convergence}


def roots_dump_rows_oracle(head: str, roots: LengthScaleRoots) -> list[str]:
    """The roots dump rows of one frame pair from all 2**D expanded vectors."""
    rows = []
    for a, point in enumerate(roots.expand()):
        for ri, vector in enumerate(point):
            vec = ",".join(_csv_num_oracle(v) for v in vector)
            conv = _CONV_NAMES_ORACLE[int(roots.convergence[a, ri])]
            rows.append(f"{head}{a},{ri},{vec},{conv}")
    return rows


def collect_dumps_oracle(rows, subject_id, burst_index, zoom, p, cls, categories):
    """The dump rows of frame pair p, one numpy scalar at a time.

    zoom and cls are the subject's ``SubjectZoom`` and classification,
    categories pair p's final categories; subject_id is written as given.
    """
    pz = pair_zoom(zoom, p)
    if "borda" in rows:
        st = pz.current_state
        for d in range(st.borda.H.shape[0]):
            for a in range(st.borda.H.shape[1]):
                rows["borda"].append(
                    f"{subject_id},{burst_index},{d},{a},"
                    f"{_csv_num_oracle(st.borda.H[d, a])},{_csv_num_oracle(st.borda.R[d, a])},"
                    f"{_csv_num_oracle(pz.dh[d, a])}"
                )
    if "roots" in rows:
        rows["roots"].extend(roots_dump_rows_oracle(f"{subject_id},{burst_index},", pz.roots))
    if "pdi" in rows:
        for a in range(categories.shape[0]):
            short = ";".join(map(str, np.nonzero(cls.short_unstable[p, a])[0].tolist()))
            long_ = ";".join(map(str, np.nonzero(cls.long_unstable[p, a])[0].tolist()))
            rows["pdi"].append(
                f"{subject_id},{burst_index},{a},{categories[a]},{short},{long_},"
                f"{int(cls.mode_mixity[p, a])},{int(cls.mixed_disjoint[p, a])}"
            )
    if "zoom" in rows:
        lv = pz.profile
        for li in range(len(lv.point_count)):
            per_dim = ",".join(_csv_num_oracle(v) for v in lv.kappa_per_dim[li])
            rows["zoom"].append(
                f"{subject_id},{burst_index},{li},{lv.point_count[li]},"
                f"{_csv_num_oracle(lv.x_coordinate[li])},{_csv_num_oracle(lv.kappa_combined[li])},"
                f"{_csv_num_oracle(lv.inv_ltilde_combined[li])},"
                f"{_csv_num_oracle(lv.inv_l_combined[li])},{per_dim}"
            )


def parse_xyzm_oracle(stream, config: PipelineConfig) -> Dataset:
    """``parse_xyzm`` one data line at a time: split, convert and check each line as it comes.

    A string is read through ``io.StringIO`` with universal newlines, the
    way a text file is read.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline=None)
    d, n = config.D, config.N
    bursts: list[DataBurst] = []
    metadata: dict[str, SubjectMeta] = {}
    counters: dict[str, int] = {}
    subject, dt, group, com = DEFAULT_SUBJECT, 1.0, "unlabeled", None
    rows: list[list[float]] = []
    burst_state = None
    lineno = 0
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].strip().split()
            if not parts:
                continue
            key, args = parts[0].lower(), parts[1:]
            if key == "subject":
                if rows:
                    raise TruncationError(
                        f"subject change inside a burst ({len(rows)} of {n} lines read)", lineno
                    )
                if not args:
                    raise ParseError("missing subject id", lineno)
                subject = " ".join(args)
                metadata.setdefault(subject, SubjectMeta())
            elif key in ("mass", "dt"):
                try:
                    value = float(args[0])
                except (IndexError, ValueError):
                    raise ParseError(f"malformed #{key} directive", lineno) from None
                if not math.isfinite(value) or value <= 0:
                    raise ValidationError(f"{key} must be a positive finite number", lineno)
                if key == "dt":
                    dt = value
                else:
                    meta = metadata.setdefault(subject, SubjectMeta())
                    meta.mass, meta.mass_defaulted = value, False
            elif key == "group":
                if len(args) != 1 or args[0] not in GROUP_LABELS:
                    raise ParseError(f"#group expects one of {', '.join(GROUP_LABELS)}", lineno)
                group = args[0]
            elif key == "com":
                if args == ["none"]:
                    com = None
                    continue
                try:
                    vec = [float(a) for a in args]
                except ValueError:
                    raise ParseError("malformed #com directive", lineno) from None
                if len(vec) != d:
                    raise ParseError(f"#com expects {d} values, got {len(vec)}", lineno)
                if not all(math.isfinite(v) for v in vec):
                    raise ValidationError("#com values must be finite", lineno)
                com = np.array(vec, dtype=float)
            continue
        tokens = line.split()
        if len(tokens) != d:
            raise ParseError(f"expected {d} values per line, got {len(tokens)}", lineno)
        try:
            row = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(f"malformed numeric token in {line!r}", lineno) from None
        if not all(math.isfinite(v) for v in row):
            raise ValidationError("non-finite value in data line", lineno)
        if not rows:
            burst_state = (subject, dt, group, None if com is None else com.copy())
        rows.append(row)
        if len(rows) == n:
            sid, bdt, bgroup, bcom = burst_state
            idx = counters.get(sid, 0)
            counters[sid] = idx + 1
            meta = metadata.setdefault(sid, SubjectMeta())
            if bcom is not None:
                meta.com_displacement[idx] = np.array(bcom, dtype=float)
            bursts.append(DataBurst(values=np.array(rows, dtype=float), dt=bdt, burst_index=idx,
                                    subject_id=sid, group_label=bgroup))
            rows = []
    if rows:
        raise TruncationError(f"file ended mid-burst: got {len(rows)} of {n} lines", lineno)
    return Dataset(bursts=bursts, metadata=metadata)
