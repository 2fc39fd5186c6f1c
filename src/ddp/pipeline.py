"""End-to-end analysis: subjects in, subject reports and dump tables out.

Per subject the flow is: prescale each burst per dimension, run the
zoom-out kernel once over all of the subject's bursts (one `SubjectZoom`
holding every frame pair, see `zoomout.zoom_profile`) and classify the
points of all pairs in one `classify_frame` call on its `(P, N, D)`
stacks.  Each pair's chains, critical lengths, GTI (which reads the
residual curvature of the pairs before it) and escalated categories come
from one call each.  The report keeps the subject's results as columns
with the pairs in front (`report.FrameResult`), and the dump rows of all
pairs are written from the same columns in one pass per table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .config import PipelineConfig
from .curvature import classify_frame, detect_chains, escalate_chain_categories
from .errors import ValidationError
from .ingest import DataBurst, Dataset, SubjectMeta, prescale_burst
from .lengthscale import Convergence, branch_layout
from .report import (
    FrameResult,
    SubjectReport,
    boxplot_rows,
    csv_field,
    csv_nums,
    energy_exchange_amplitude,
)
from .zoomout import critical_chain_lengths, gti, zoom_profile

DUMP_KINDS = ("borda", "roots", "pdi", "zoom")
_CONV_NAMES = {int(c): c.name.lower() for c in Convergence}


@dataclass
class AnalysisResult:
    subjects: list[SubjectReport]
    dumps: dict[str, str] = field(default_factory=dict)


def analyze_subject(
    subject_id: str,
    bursts: list[DataBurst],
    meta: SubjectMeta,
    config: PipelineConfig,
    dumps: tuple[str, ...] = (),
) -> tuple[SubjectReport, dict[str, list[str]]]:
    for b in bursts:
        if b.n_points != config.N or b.n_dims != config.D:
            raise ValidationError(
                f"burst {b.burst_index} of subject {subject_id} is "
                f"{b.n_points}x{b.n_dims}, config expects {config.N}x{config.D}"
            )
    dump_rows: dict[str, list[str]] = {k: [] for k in dumps}

    scaled: list[DataBurst] = []
    factors: list[np.ndarray] = []
    for b in bursts:
        sb, div = prescale_burst(b)
        scaled.append(sb)
        factors.append(div)

    zoom = zoom_profile(scaled, config)
    th = zoom.thresholds
    cls = classify_frame(
        zoom.kappa_median, th.kappa_short, th.kappa_long, th.defined, zoom.dh.swapaxes(1, 2)
    )
    # one call of each per pair: chains, critical lengths, GTI, escalation
    rc_combined = zoom.rc.rc_combined.tolist()
    n_pairs = len(zoom.previous)
    criticals = np.empty((n_pairs, 2))
    categories = np.empty((n_pairs, config.N), dtype=int)
    chains, gtis = [], []
    for p in range(n_pairs):
        found = detect_chains(cls.categories[p], cls.jointly_unstable[p])
        criticals[p] = crit = critical_chain_lengths(zoom.profile[p])
        chains.append(found)
        gtis.append(gti(rc_combined[:p + 1], found, crit, config.drop_threshold))
        categories[p] = escalate_chain_categories(cls.categories[p], found, *crit)
    burst_index = np.array([b.burst_index for b in scaled], dtype=int)   # (B,)
    dt = np.array([b.dt for b in scaled])
    table = FrameResult(
        previous_burst_index=burst_index[zoom.previous],
        current_burst_index=burst_index[zoom.current],
        dt_span=config.stride_n * dt[zoom.current],
        datum=zoom.current_state.datum,
        datum_residual=zoom.current_state.datum_residual,
        rc=zoom.rc,
        critical_short=criticals[:, 0],
        critical_long=criticals[:, 1],
        gti=gtis,
        categories=categories,
        chains=chains,
        mixed_disjoint=cls.mixed_disjoint,
        fallback_fraction=zoom.fallback_fraction,
        fit_excluded_fraction=zoom.current_state.fit_excluded_fraction,
        margin_zeroed_fraction=zoom.current_state.margin_zeroed_fraction,
        profile=zoom.profile,
    )
    if dumps:
        _write_dumps(dump_rows, csv_field(subject_id), zoom, cls, table)
    return _assemble_report(subject_id, bursts, meta, factors, table), dump_rows


def _write_dumps(rows, subject_field, zoom, cls, table):
    """Append the dump rows of every frame pair of one subject, in pair order.

    subject_field is the CSV-quoted subject id and table the subject's
    FrameResult.  Each table is formatted from its (P, ...) columns.
    """
    heads = [f"{subject_field},{b}," for b in table.current_burst_index.tolist()]
    _, d, n = zoom.dh.shape
    if "borda" in rows:
        borda = zoom.current_state.borda
        lanes = [f"{head}{dim}," for head in heads for dim in range(d)]
        rows["borda"].extend([
            f"{lane}{a},{h},{r},{dh}" for (lane, a), h, r, dh in zip(
                product(lanes, range(n)),
                *(csv_nums(v.ravel().tolist()) for v in (borda.H, borda.R, zoom.dh)),
            )
        ])
    if "roots" in rows:
        points = [f"{head}{a}," for head, a in product(heads, range(n))]
        rows["roots"].extend(_roots_rows(points, zoom.roots))
    if "pdi" in rows:
        flags = zip(
            product(heads, range(n)), table.categories.ravel().tolist(),
            cls.short_unstable.reshape(-1, d).tolist(), cls.long_unstable.reshape(-1, d).tolist(),
            cls.mode_mixity.ravel().tolist(), cls.mixed_disjoint.ravel().tolist(),
        )
        for (head, a), cat, short, long_, mixity, disjoint in flags:
            short = ";".join([str(k) for k, f in enumerate(short) if f])
            long_ = ";".join([str(k) for k, f in enumerate(long_) if f])
            rows["pdi"].append(f"{head}{a},{cat},{short},{long_},{int(mixity)},{int(disjoint)}")
    if "zoom" in rows:
        pr = zoom.profile
        ladder = list(enumerate(zip(pr.point_count.tolist(), pr.x_coordinate.tolist())))
        columns = (pr.kappa_combined, pr.inv_ltilde_combined, pr.inv_l_combined, pr.kappa_per_dim)
        for head, *stats in zip(heads, *(v.tolist() for v in columns)):
            rows["zoom"].extend([
                f"{head}{li},{count},{','.join(csv_nums([x, kappa, ltilde, inv_l, *per_dim]))}"
                for (li, (count, x)), kappa, ltilde, inv_l, per_dim in zip(ladder, *stats)
            ])


def _roots_rows(heads: list[str], roots) -> list[str]:
    """The roots dump rows of every point, all 2**D branches; heads[i] starts point i's rows.

    Each point's vector is formatted once.  A branch takes each dimension's
    text or its negation, the repr of the negated float (nan stays nan, 0.0
    and -0.0 swap): a refined point's whole vector flips with sigma_0, and
    another point's dimensions flip with sigma, through one template per
    branch.
    """
    flips = (branch_layout(roots.x.shape[1]) < 0).tolist()
    # field k of a branch's template is dimension k's text, field D + k its negation
    templates = [",".join([f"{{{k + len(row) * f}}}" for k, f in enumerate(row)]) for row in flips]
    lines = []
    for head, point, label in zip(heads, roots.x.tolist(), roots.label.tolist()):
        plus = csv_nums(point)
        minus = [_negated(t) for t in plus]
        name = _CONV_NAMES[label]
        if label == Convergence.REFINED:
            texts = (",".join(plus), ",".join(minus))
            lines.extend([f"{head}{ri},{texts[row[0]]},{name}" for ri, row in enumerate(flips)])
        else:
            lines.extend([
                f"{head}{ri},{template.format(*plus, *minus)},{name}"
                for ri, template in enumerate(templates)
            ])
    return lines


def _negated(text: str) -> str:
    """The CSV text of -v given the CSV text of v."""
    if text[0] == "-":
        return text[1:]
    return text if text == "nan" else "-" + text


def _assemble_report(subject_id, bursts, meta, factors, table):
    # each dimension's finite rc values, pair-major, once per root (boxplot percentiles count them)
    per_dim = table.rc.rc_per_dim
    values = np.repeat(per_dim.T, 2 ** per_dim.shape[1], axis=1)   # (D, P * 2**D)
    finite = np.isfinite(values)
    rc_values_per_dim = [v[f] for v, f in zip(values, finite)]   # copies, so a pool holds only them
    # every dimension in one call of each statistic, unless one holds a non-finite value
    blocks = [values] if finite.all() else [v[None] for v in rc_values_per_dim]
    summaries = [boxplot_rows(rows) for rows in blocks]   # each block's medians and boxplots
    boxplots = [box for _, boxes in summaries for box in boxes]
    pooled = np.concatenate(rc_values_per_dim)   # D >= 1 columns, empty when P = 0
    rc_combined_median = float(np.median(pooled)) if pooled.size else float("nan")
    modulation_iqr = [b.iqr if b is not None else None for b in boxplots]

    amplitudes: dict[int, float] = {}
    for burst, rc in zip(table.current_burst_index.tolist(), per_dim):
        com = meta.com_displacement.get(burst)
        if com is None or not np.all(np.isfinite(rc)):
            continue
        amplitudes[burst] = energy_exchange_amplitude(rc, com, meta.mass)

    return SubjectReport(
        subject_id=subject_id,
        group_label=bursts[0].group_label if bursts else "unlabeled",
        mass=meta.mass,
        mass_defaulted=meta.mass_defaulted,
        n_bursts=len(bursts),
        prescale_factors=factors,
        frame_table=table,
        rc_values_per_dim=rc_values_per_dim,
        rc_median_per_dim=np.concatenate([medians for medians, _ in summaries]),
        rc_combined_median=rc_combined_median,
        pdi_histogram=table.pdi_counts,
        boxplot_per_dim=boxplots,
        modulation_iqr_per_dim=modulation_iqr,
        energy_exchange_amplitudes=amplitudes,
        injection=meta.injection,
    )


_DUMP_HEADERS = {
    "borda": "subject_id,burst_index,dimension,point,H,R,dH",
    "pdi": "subject_id,burst_index,point,category,short_dims,long_dims,mode_mixity,mixed_disjoint",
    "zoom": "subject_id,burst_index,level,point_count,x_coordinate,kappa_combined,"
            "inv_ltilde_combined,inv_l_combined",
}


def _dump_header(kind: str, config: PipelineConfig) -> str:
    if kind == "roots":
        dims = ",".join(f"x_{name}" for name in config.dimension_names())
        return f"subject_id,burst_index,point,root_index,{dims},convergence"
    header = _DUMP_HEADERS[kind]
    if kind == "zoom":
        header += "," + ",".join(f"kappa_{name}" for name in config.dimension_names())
    return header


def analyze_dataset(
    dataset: Dataset,
    config: PipelineConfig,
    dumps: tuple[str, ...] = (),
) -> AnalysisResult:
    """Analyze every subject of a dataset, optionally collecting dump tables."""
    for kind in dumps:
        if kind not in DUMP_KINDS:
            raise ValidationError(f"unknown dump kind {kind!r}; choose from {DUMP_KINDS}")
    results = [
        analyze_subject(sid, bursts, dataset.metadata.get(sid, SubjectMeta()), config, dumps=dumps)
        for sid, bursts in dataset.by_subject().items()
    ]
    reports = [rep for rep, _ in results]
    dump_tables: dict[str, str] = {}
    for kind in dumps:
        lines = [_dump_header(kind, config)]
        for _, rows in results:
            lines.extend(rows[kind])
        dump_tables[kind] = "\n".join(lines) + "\n"
    return AnalysisResult(subjects=reports, dumps=dump_tables)
