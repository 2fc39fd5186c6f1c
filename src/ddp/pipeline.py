"""End-to-end analysis: subjects in, subject reports and dump tables out.

Per subject the flow is: prescale each burst per dimension, run the
zoom-out kernel once over all of the subject's bursts (one `SubjectZoom`
holding every frame pair, see `zoomout.zoom_profile`) and classify the
points of all pairs in one `classify_frame` call on its `(P, N, D)`
stacks.  What is left is assembly: one pass over the pairs in order
finds the chains, critical lengths and GTI of each (the GTI reads the
residual curvature of the pairs before it) and builds its `FrameResult`
and dump rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .curvature import classify_frame, detect_chains, escalate_chain_categories
from .errors import ValidationError
from .ingest import DataBurst, Dataset, SubjectMeta, prescale_burst
from .lengthscale import Convergence, branch_layout
from .report import (
    FrameResult,
    SubjectReport,
    boxplot_stats,
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
    subject_field = csv_field(subject_id)

    scaled: list[DataBurst] = []
    factors: list[np.ndarray] = []
    for b in bursts:
        sb, div = prescale_burst(b)
        scaled.append(sb)
        factors.append(div)

    zoom = zoom_profile(scaled, config)
    frames: list[FrameResult] = []
    if not zoom.pairs:
        return _assemble_report(subject_id, bursts, meta, factors, frames, config), dump_rows
    th = zoom.thresholds
    cls = classify_frame(
        zoom.kappa_median, th.kappa_short, th.kappa_long, th.defined, zoom.dh.swapaxes(1, 2)
    )
    for p, pair in enumerate(zoom.pairs):
        previous, current = (scaled[i] for i in pair)
        chains = detect_chains(cls.categories[p], cls.jointly_unstable[p])
        criticals = critical_chain_lengths(zoom.profiles[p], config)
        gti_record = gti(zoom.rc[:p + 1], chains, criticals, config.drop_threshold)
        final_categories = escalate_chain_categories(cls.categories[p], chains, *criticals)
        frames.append(
            FrameResult(
                previous_burst_index=previous.burst_index,
                current_burst_index=current.burst_index,
                dt_span=config.stride_n * current.dt,
                datum=zoom.current_state.datum[p],
                datum_residual=zoom.current_state.datum_residual[p],
                rc=zoom.rc[p],
                critical_short=criticals[0],
                critical_long=criticals[1],
                gti=gti_record,
                categories=final_categories,
                chains=chains,
                mixed_disjoint_points=np.nonzero(cls.mixed_disjoint[p])[0].tolist(),
                fallback_fraction=zoom.fallback_fraction[p],
                fit_excluded_fraction=zoom.current_state.fit_excluded_fraction[p],
                margin_zeroed_fraction=zoom.current_state.margin_zeroed_fraction[p],
                levels=zoom.profiles[p].levels,
            )
        )
        _collect_dumps(
            dump_rows, subject_field, current.burst_index, zoom, p, cls, final_categories
        )

    return _assemble_report(subject_id, bursts, meta, factors, frames, config), dump_rows


def _collect_dumps(rows, subject_field, burst_index, zoom, p, cls, categories):
    """Append the dump rows of frame pair p; subject_field is the CSV-quoted subject id."""
    head = f"{subject_field},{burst_index},"
    if "borda" in rows:
        borda = zoom.current_state.borda
        columns = zip(borda.H[p].tolist(), borda.R[p].tolist(), zoom.dh[p].tolist())
        for d, (h, r, dh) in enumerate(columns):
            prefix = f"{head}{d},"
            rows["borda"].extend([
                f"{prefix}{a},{x},{y},{z}"
                for a, (x, y, z) in enumerate(zip(csv_nums(h), csv_nums(r), csv_nums(dh)))
            ])
    if "roots" in rows:
        n = zoom.dh.shape[2]
        rows["roots"].extend(_roots_rows(head, zoom.roots.slice_points(p * n, (p + 1) * n)))
    if "pdi" in rows:
        flags = zip(
            categories.tolist(), cls.short_unstable[p].tolist(), cls.long_unstable[p].tolist(),
            cls.mode_mixity[p].tolist(), cls.mixed_disjoint[p].tolist(),
        )
        for a, (cat, short, long_, mixity, disjoint) in enumerate(flags):
            short = ";".join([str(d) for d, f in enumerate(short) if f])
            long_ = ";".join([str(d) for d, f in enumerate(long_) if f])
            rows["pdi"].append(
                f"{head}{a},{cat},{short},{long_},{int(mixity)},{int(disjoint)}"
            )
    if "zoom" in rows:
        for li, lv in enumerate(zoom.profiles[p].levels):
            x, kappa, inv_ltilde, inv_l = csv_nums(
                [lv.x_coordinate, lv.kappa_combined, lv.inv_ltilde_combined, lv.inv_l_combined]
            )
            per_dim = ",".join(csv_nums(lv.kappa_per_dim.tolist()))
            rows["zoom"].append(
                f"{head}{li},{lv.point_count},{x},{kappa},{inv_ltilde},{inv_l},{per_dim}"
            )


def _roots_rows(head: str, roots) -> list[str]:
    """The roots dump rows of one frame pair, all 2**D branches of every point.

    Each stored magnitude is formatted once, and only once per point when
    all its stored branches hold the same bits (the closed-form case).  The
    anti-branch text is the same text with the sign character flipped,
    which is the repr of the negated float (nan stays nan, 0.0 and -0.0
    swap).
    """
    _, branch, sign = branch_layout(roots.sentinel.shape[1])
    layout = list(zip(branch.tolist(), (sign < 0).tolist()))
    stored = np.where(roots.sentinel[:, None, :], np.inf, roots.roots)
    bits = stored.view(np.uint64)
    uniform = (bits == bits[:, :1]).all(axis=(1, 2)).tolist()
    half = stored.shape[1]
    lines = []
    for a, (point, labels, same) in enumerate(
        zip(stored.tolist(), roots.convergence.tolist(), uniform)
    ):
        texts = [csv_nums(vector) for vector in (point[:1] if same else point)]
        plus = [",".join(t) for t in texts]
        minus = [",".join([_negated(v) for v in t]) for t in texts]
        if same:
            plus, minus = plus * half, minus * half
        lines.extend([
            f"{head}{a},{ri},{minus[b] if flipped else plus[b]},{_CONV_NAMES[label]}"
            for ri, ((b, flipped), label) in enumerate(zip(layout, labels))
        ])
    return lines


def _negated(text: str) -> str:
    """The CSV text of -v given the CSV text of v."""
    if text[0] == "-":
        return text[1:]
    return text if text == "nan" else "-" + text


def _assemble_report(subject_id, bursts, meta, factors, frames, config):
    d = config.D
    per_dim_values: list[list[float]] = [[] for _ in range(d)]
    for fr in frames:
        for dim in range(d):
            vals = fr.rc.rc[dim]
            per_dim_values[dim].extend(vals[np.isfinite(vals)].tolist())
    rc_values_per_dim = [np.array(v) for v in per_dim_values]
    rc_median_per_dim = np.array(
        [float(np.median(v)) if v.size else float("nan") for v in rc_values_per_dim]
    )
    pooled = np.concatenate(rc_values_per_dim) if rc_values_per_dim else np.empty(0)
    rc_combined_median = float(np.median(pooled)) if pooled.size else float("nan")

    histogram: dict[int, int] = {}
    for fr in frames:
        for cat, count in fr.pdi_counts.items():
            histogram[cat] = histogram.get(cat, 0) + count

    boxplots = [
        boxplot_stats(v) if v.size else None for v in rc_values_per_dim
    ]
    modulation_iqr = [b.iqr if b is not None else None for b in boxplots]

    amplitudes: dict[int, float] = {}
    if meta.com_displacement:
        for fr in frames:
            com = meta.com_displacement.get(fr.current_burst_index)
            if com is None or not np.all(np.isfinite(fr.rc.rc_per_dim)):
                continue
            amplitudes[fr.current_burst_index] = energy_exchange_amplitude(
                fr.rc.rc_per_dim, com, meta.mass
            )

    return SubjectReport(
        subject_id=subject_id,
        group_label=bursts[0].group_label if bursts else "unlabeled",
        mass=meta.mass,
        mass_defaulted=meta.mass_defaulted,
        n_bursts=len(bursts),
        prescale_factors=factors,
        frames=frames,
        rc_values_per_dim=rc_values_per_dim,
        rc_median_per_dim=rc_median_per_dim,
        rc_combined_median=rc_combined_median,
        pdi_histogram=histogram,
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
        analyze_subject(
            sid, dataset.bursts_for(sid), dataset.metadata.get(sid, SubjectMeta()), config,
            dumps=dumps,
        )
        for sid in dataset.subjects()
    ]
    reports = [rep for rep, _ in results]
    dump_tables: dict[str, str] = {}
    for kind in dumps:
        lines = [_dump_header(kind, config)]
        for _, rows in results:
            lines.extend(rows[kind])
        dump_tables[kind] = "\n".join(lines) + "\n"
    return AnalysisResult(subjects=reports, dumps=dump_tables)
