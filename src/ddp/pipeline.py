"""End-to-end analysis: subjects in, subject reports and dump tables out.

Per subject the flow is: prescale each burst per dimension, run the
zoom-out kernel once over all of the subject's bursts (one outcome per
frame pair with its residual curvature, see `zoomout.zoom_profile`), then
walk the outcomes in order for classification, chains, critical lengths
and the GTI, which needs the residual-curvature history of earlier pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import PipelineConfig
from .curvature import classify_frame, detect_chains, escalate_chain_categories
from .errors import ValidationError
from .ingest import DataBurst, Dataset, SubjectMeta, prescale_burst
from .lengthscale import Convergence
from .report import (
    FrameResult,
    SubjectReport,
    boxplot_stats,
    csv_num,
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

    frames: list[FrameResult] = []
    rc_records = []
    for outcome in zoom_profile(scaled, config):
        previous, current = (scaled[i] for i in outcome.positions)
        fin = outcome.finest
        cls = classify_frame(
            fin.kappa_median, fin.kappa_short, fin.kappa_long, fin.defined, fin.dh.T
        )
        chains = detect_chains(cls.categories, cls.jointly_unstable)
        criticals = critical_chain_lengths(outcome.profile, config)
        rc_records.append(outcome.rc)
        gti_record = gti(rc_records, chains, criticals, config.drop_threshold)
        final_categories = escalate_chain_categories(cls.categories, chains, *criticals)

        partial = sorted(
            {
                d
                for lv in outcome.profile.levels
                for d in np.nonzero(~lv.valid_dims)[0].tolist()
            }
        )
        frames.append(
            FrameResult(
                previous_burst_index=previous.burst_index,
                current_burst_index=current.burst_index,
                dt_span=config.stride_n * current.dt,
                datum=outcome.current_state.datum,
                datum_residual=outcome.current_state.datum_residual,
                rc=outcome.rc,
                critical_short=criticals[0],
                critical_long=criticals[1],
                gti=gti_record,
                categories=final_categories,
                chains=chains,
                mixed_disjoint_points=np.nonzero(cls.mixed_disjoint)[0].tolist(),
                fallback_fraction=outcome.fallback_fraction,
                fit_excluded_fraction=outcome.current_state.fit_excluded_fraction,
                margin_zeroed_fraction=outcome.current_state.margin_zeroed_fraction,
                partial_dims=partial,
                levels=outcome.profile.levels,
                short_unstable=cls.short_unstable,
                long_unstable=cls.long_unstable,
            )
        )
        _collect_dumps(
            dump_rows, subject_id, current.burst_index, outcome, cls, final_categories, config
        )

    return _assemble_report(subject_id, bursts, meta, factors, frames, config), dump_rows


def _collect_dumps(rows, subject_id, burst_index, outcome, cls, categories, config):
    fin = outcome.finest
    if "borda" in rows:
        st = outcome.current_state
        for d in range(config.D):
            for a in range(st.borda.H.shape[1]):
                rows["borda"].append(
                    f"{subject_id},{burst_index},{d},{a},"
                    f"{csv_num(st.borda.H[d, a])},{csv_num(st.borda.R[d, a])},"
                    f"{csv_num(fin.dh[d, a])}"
                )
    if "roots" in rows:
        for a, point in enumerate(fin.roots.expand()):
            for ri, vector in enumerate(point):
                vec = ",".join(csv_num(v) for v in vector)
                conv = _CONV_NAMES[int(fin.roots.convergence[a, ri])]
                rows["roots"].append(f"{subject_id},{burst_index},{a},{ri},{vec},{conv}")
    if "pdi" in rows:
        for a in range(categories.shape[0]):
            short = ";".join(map(str, np.nonzero(cls.short_unstable[a])[0].tolist()))
            long_ = ";".join(map(str, np.nonzero(cls.long_unstable[a])[0].tolist()))
            rows["pdi"].append(
                f"{subject_id},{burst_index},{a},{categories[a]},{short},{long_},"
                f"{int(cls.mode_mixity[a])},{int(cls.mixed_disjoint[a])}"
            )
    if "zoom" in rows:
        for li, lv in enumerate(outcome.profile.levels):
            per_dim = ",".join(csv_num(v) for v in lv.kappa_per_dim)
            rows["zoom"].append(
                f"{subject_id},{burst_index},{li},{lv.point_count},"
                f"{csv_num(lv.x_coordinate)},{csv_num(lv.kappa_combined)},"
                f"{csv_num(lv.inv_ltilde_combined)},{csv_num(lv.inv_l_combined)},{per_dim}"
            )


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
