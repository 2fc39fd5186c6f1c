"""Subject- and group-level statistics plus JSON/CSV emission.

Conventions, stated once so outputs are reproducible:

* quantiles interpolate linearly between order statistics
* boxplot whiskers sit at mean +/- 2.7 population standard deviations and
  outliers are exactly the values outside them
* histogram bins are right-closed: (-inf, e1], (e1, e2], ..., (ek, inf),
  so the top bin agrees with a strict "greater than threshold" count
* group medians pool every residual-curvature root value of the group;
  the combined entry pools across dimensions as well
* undefined statistics are emitted as null, never as zero

Output format:

* JSON is indented by 2 spaces, one item per line, with ": " after keys;
  strings and keys are ASCII-escaped, and non-finite floats are written
  as null; the text is the same bytes as ``json.dumps(value, indent=2)``
  of the same values read as Python numbers (see ``json_text``)
* CSV numbers are float reprs, nan when not finite; a text field holding a
  comma, a double quote, CR or LF is quoted as the csv module quotes it
  (``csv_field``), so every row has its header's width
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .config import PipelineConfig
from .errors import GroupUnavailable
from .ingest import GROUP_LABELS, Injection

if TYPE_CHECKING:
    from .curvature import Chain
    from .zoomout import GtiRecord, ResidualCurvatureRecord, ZoomProfile

SCHEMA_VERSION = "1.0"

_float_repr = float.__repr__
_int_repr = int.__repr__


@dataclass(frozen=True)
class BoxplotStats:
    q25: float
    q75: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]

    @property
    def iqr(self) -> float:
        return self.q75 - self.q25


def boxplot_stats(values) -> BoxplotStats:
    """Box, whiskers and outliers of a value collection."""
    v = np.asarray(values, dtype=float).ravel()
    v = v[np.isfinite(v)]
    if v.size == 0:
        raise ValueError("boxplot_stats needs at least one finite value")
    q25, q75 = np.percentile(v, [25.0, 75.0]).tolist()
    mu, sigma = float(np.mean(v)), float(np.std(v))
    lo, hi = mu - 2.7 * sigma, mu + 2.7 * sigma
    outliers = tuple(np.sort(v[(v < lo) | (v > hi)]).tolist())
    return BoxplotStats(q25=q25, q75=q75, whisker_low=lo, whisker_high=hi, outliers=outliers)


def percent_change(reference: float, value: float) -> float:
    """(value - reference) / reference in percent."""
    return (value - reference) / reference * 100.0


def energy_exchange_amplitude(rc_vector, com_displacement, mass: float) -> float:
    """|rc . com| / mass: mass-normalized energy exchange amplitude."""
    rc = np.asarray(rc_vector, dtype=float)
    com = np.asarray(com_displacement, dtype=float)
    if rc.shape != com.shape:
        raise ValueError("rc vector and com displacement lengths differ")
    if mass <= 0.0:
        raise ValueError("mass must be positive")
    return float(abs(np.dot(rc, com)) / mass)


@dataclass(frozen=True)
class DimStats:
    n: int
    median: float
    percent_above: float
    bin_counts: tuple[int, ...]


def dim_stats(values, threshold: float, bin_edges) -> DimStats:
    """Median, strict percent-above-threshold and right-closed bin counts."""
    v = np.asarray(values, dtype=float).ravel()
    v = v[np.isfinite(v)]
    if v.size == 0:
        raise GroupUnavailable("no finite values to summarize")
    edges = list(bin_edges)
    counts = [int(np.sum(v <= edges[0]))]
    for lo, hi in zip(edges, edges[1:]):
        counts.append(int(np.sum((v > lo) & (v <= hi))))
    counts.append(int(np.sum(v > edges[-1])))
    return DimStats(
        n=int(v.size),
        median=float(np.median(v, overwrite_input=True)),   # v is a filtered copy
        percent_above=float(np.sum(v > threshold) / v.size * 100.0),
        bin_counts=tuple(counts),
    )


# Values the pooled group statistics hold at a time; a study's pools are
# read in chunks of about this many values, however many subjects it has.
_POOL_CHUNK = 1 << 14
_SIGN = np.uint64(1 << 63)


def _chunks(columns: list[np.ndarray]):
    """The finite values of the columns, in order, about ``_POOL_CHUNK`` at a time."""
    batch, size = [], 0
    for i, col in enumerate(columns):
        batch.append(col)
        size += col.size
        if size >= _POOL_CHUNK or i == len(columns) - 1:
            values = np.concatenate(batch)
            yield values[np.isfinite(values)]
            batch, size = [], 0


def _order_keys(values: np.ndarray) -> np.ndarray:
    """uint64 keys in the order of the finite float64 values."""
    bits = values.view(np.uint64)
    keys = np.invert(bits)                                    # negative values
    np.bitwise_or(bits, _SIGN, out=keys, where=bits < _SIGN)  # the others
    return keys


def _kth(columns: list[np.ndarray], k: int) -> float:
    """The k-th smallest (from 0) finite value of the columns taken together.

    A radix selection on the order keys, 16 bits a pass: each pass counts
    the candidates by their next 16 bits and keeps the bucket holding rank
    k, until the bucket fits one chunk, which is then partitioned.
    """
    prefix, bits = 0, 0
    while True:
        counts = np.zeros(1 << 16, dtype=np.int64)
        for values in _chunks(columns):
            keys = _order_keys(values)
            if bits:
                keys = keys[keys >> np.uint64(64 - bits) == prefix]
            keys >>= np.uint64(48 - bits)
            keys &= np.uint64(0xFFFF)
            counts += np.bincount(keys.view(np.int64), minlength=1 << 16)
        ends = np.cumsum(counts)
        digit = int(np.searchsorted(ends, k, side="right"))
        k -= int(ends[digit] - counts[digit])
        prefix, bits = prefix << 16 | digit, bits + 16
        if bits == 64:   # one key: every candidate is the same value
            key = np.array([prefix], dtype=np.uint64)
            return float(np.where(key >= _SIGN, key ^ _SIGN, ~key).view(float)[0])
        if counts[digit] <= _POOL_CHUNK:
            break
    candidates = np.concatenate(
        [values[_order_keys(values) >> np.uint64(64 - bits) == prefix] for values in _chunks(columns)]
    )
    return float(np.partition(candidates, k)[k])


def _pooled_stats(columns: list[np.ndarray], threshold: float, bin_edges) -> DimStats | None:
    """dim_stats of the finite values of the columns taken together, None when there are none.

    The values are read a chunk at a time, never copied into one array;
    the median takes the middle values by selection and averages them as
    np.median does.
    """
    edges = list(bin_edges)
    n = above = 0
    counts = [0] * (len(edges) + 1)
    for v in _chunks(columns):
        n += v.size
        above += int(np.count_nonzero(v > threshold))
        counts[0] += int(np.count_nonzero(v <= edges[0]))
        for i, (lo, hi) in enumerate(zip(edges, edges[1:]), start=1):
            counts[i] += int(np.count_nonzero((v > lo) & (v <= hi)))
        counts[-1] += int(np.count_nonzero(v > edges[-1]))
    if n == 0:
        return None
    return DimStats(
        n=n,
        median=_pooled_median(columns, n),
        percent_above=float(above / n * 100.0),
        bin_counts=tuple(counts),
    )


def _pooled_median(columns: list[np.ndarray], n: int) -> float:
    """np.median of the n finite values of the columns taken together."""
    middle = [n // 2 - 1, n // 2] if n % 2 == 0 else [n // 2]
    return float(np.mean(np.array([_kth(columns, k) for k in middle])))


class SubjectPool(NamedTuple):
    """The minimum a group aggregation needs to know about one subject."""

    subject_id: str
    group_label: str
    rc_values_per_dim: list[np.ndarray]


@dataclass
class GroupSlice:
    per_dim: list[DimStats | None]
    combined: DimStats
    n_subjects: int


@dataclass
class GroupStats:
    threshold: float
    bin_edges: tuple[float, ...]
    groups: dict[str, GroupSlice]
    unavailable: list[str]
    percent_change_per_dim: list[float | None] | None
    percent_change_combined: float | None


def group_stats(
    reports: Iterable,
    config: PipelineConfig,
    threshold: float | None = None,
) -> GroupStats:
    """Group-level residual-curvature statistics.

    Pools every rc root value per dimension per group.  The default
    threshold is rc_threshold_multiplier times the overall median of all
    pooled values (across groups and dimensions); pass ``threshold`` to pin
    it.  Percent change compares post_aclr medians against control when
    both groups are present.  Raises GroupUnavailable when nothing at all
    can be pooled; groups that are merely empty are listed as unavailable.
    """
    # A study pools many subjects, so every statistic reads the callers'
    # arrays a chunk at a time instead of pooling them into one array.
    columns: dict[str, list[list[np.ndarray]]] = {}
    subject_counts: dict[str, int] = {}
    for rep in reports:
        label = rep.group_label
        per_dim = rep.rc_values_per_dim
        slot = columns.setdefault(label, [[] for _ in range(config.D)])
        for d in range(config.D):
            slot[d].append(np.asarray(per_dim[d], dtype=float) if d < len(per_dim) else np.empty(0))
        subject_counts[label] = subject_counts.get(label, 0) + 1

    everything = [c for slot in columns.values() for cols in slot for c in cols]
    n = sum(int(np.count_nonzero(np.isfinite(c))) for c in everything)
    if n == 0:
        raise GroupUnavailable("no residual-curvature values in any group")
    if threshold is None:
        threshold = config.rc_threshold_multiplier * _pooled_median(everything, n)

    groups: dict[str, GroupSlice] = {}
    unavailable: list[str] = []
    for label in GROUP_LABELS:
        if label not in columns:
            continue
        combined = _pooled_stats([c for cols in columns[label] for c in cols], threshold, config.bin_edges)
        if combined is None:
            unavailable.append(label)
            continue
        groups[label] = GroupSlice(
            per_dim=[_pooled_stats(cols, threshold, config.bin_edges) for cols in columns[label]],
            combined=combined,
            n_subjects=subject_counts[label],
        )

    pc_per_dim: list[float | None] | None = None
    pc_combined: float | None = None
    if "control" in groups and "post_aclr" in groups:
        ctrl, post = groups["control"], groups["post_aclr"]
        pc_per_dim = []
        for c, p in zip(ctrl.per_dim, post.per_dim):
            if c is None or p is None or c.median == 0.0:
                pc_per_dim.append(None)
            else:
                pc_per_dim.append(percent_change(c.median, p.median))
        if ctrl.combined.median != 0.0:
            pc_combined = percent_change(ctrl.combined.median, post.combined.median)

    return GroupStats(
        threshold=float(threshold),
        bin_edges=tuple(config.bin_edges),
        groups=groups,
        unavailable=unavailable,
        percent_change_per_dim=pc_per_dim,
        percent_change_combined=pc_combined,
    )


@dataclass
class FrameResult:
    """Everything the pipeline derives from the frame pairs of one subject.

    Every field holds the P pairs in front: (P,) columns, (P, D) and (P, N)
    arrays, the `rc` record and the level `profile` with P in front, and one
    list of chains and one GTI record per pair.  Indexing with a pair
    number gives that pair's FrameResult, whose arrays are views into
    these.
    """

    previous_burst_index: np.ndarray     # (P,) int
    current_burst_index: np.ndarray      # (P,) int
    dt_span: np.ndarray                  # (P,)
    datum: np.ndarray                    # (P, D)
    datum_residual: np.ndarray           # (P, D)
    rc: "ResidualCurvatureRecord"
    critical_short: np.ndarray           # (P,)
    critical_long: np.ndarray            # (P,)
    gti: list["GtiRecord"]
    categories: np.ndarray               # (P, N) final categories incl. 8/9
    chains: list[list["Chain"]]
    mixed_disjoint: np.ndarray           # (P, N) bool
    fallback_fraction: np.ndarray        # (P,)
    fit_excluded_fraction: np.ndarray    # (P, D)
    margin_zeroed_fraction: np.ndarray   # (P, D)
    profile: "ZoomProfile"

    def __getitem__(self, index) -> FrameResult:
        return FrameResult(**{f.name: getattr(self, f.name)[index] for f in fields(self)})

    @property
    def pdi_counts(self) -> dict[int, int]:
        """Point count of each category, over every point held."""
        counts = np.bincount(self.categories.ravel()).tolist()
        return {c: k for c, k in enumerate(counts) if k}


@dataclass
class SubjectReport:
    subject_id: str
    group_label: str
    mass: float
    mass_defaulted: bool
    n_bursts: int
    prescale_factors: list[np.ndarray]
    frame_table: FrameResult | None      # None when the subject has no frame pair
    rc_values_per_dim: list[np.ndarray]
    rc_median_per_dim: np.ndarray
    rc_combined_median: float
    pdi_histogram: dict[int, int]
    boxplot_per_dim: list[BoxplotStats | None]
    modulation_iqr_per_dim: list[float | None]
    energy_exchange_amplitudes: dict[int, float]
    injection: Injection | None = None

    @property
    def frames(self) -> list[FrameResult]:
        """One FrameResult per frame pair, each a view into `frame_table`."""
        table = self.frame_table
        return [] if table is None else [table[p] for p in range(len(table.categories))]


# ---------------------------------------------------------------------------
# serialization


def json_text(value) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, with no trailing newline.

    numpy arrays are read through ``.tolist()`` and numpy scalars as the
    Python number they hold; non-finite floats are written as null.  Keys
    must be str.  Every other type json.dumps rejects raises TypeError.
    """
    chunks: list[str] = []
    _write(value, "\n", chunks)
    return "".join(chunks)


def _write(v, nl: str, out: list[str]) -> None:
    """Append the JSON text of v to out; nl is a newline plus the current indent."""
    if isinstance(v, str):
        out.append(_encode_str(v))
    elif v is None:
        out.append("null")
    elif v is True:
        out.append("true")
    elif v is False:
        out.append("false")
    elif isinstance(v, int):
        out.append(_int_repr(v))
    elif isinstance(v, float):  # np.float64 included
        out.append(_float_repr(v) if isfinite(v) else "null")
    elif isinstance(v, (list, tuple)):
        _write_list(v, nl, out)
    elif isinstance(v, np.ndarray):
        _write(v.tolist(), nl, out)
    elif isinstance(v, dict):
        if not v:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, item in v.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(v, np.floating):
        _write(float(v), nl, out)
    elif isinstance(v, np.integer):
        out.append(_int_repr(int(v)))
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _write_list(items, nl: str, out: list[str]) -> None:
    if not items:
        out.append("[]")
        return
    inner = nl + "  "
    if isinstance(items[0], float):
        try:
            text = ("," + inner).join(map(_float_repr, items))
        except TypeError:  # an item that is not a float
            pass
        else:
            if "n" not in text:  # finite reprs hold no nan or inf
                out.append("[" + inner + text + nl + "]")
                return
    sep = "[" + inner
    for item in items:
        out.append(sep)
        _write(item, inner, out)
        sep = "," + inner
    out.append(nl + "]")


def _boxplot_json(b: BoxplotStats | None):
    if b is None:
        return None
    return {
        "q25": b.q25,
        "q75": b.q75,
        "whisker_low": b.whisker_low,
        "whisker_high": b.whisker_high,
        "outliers": b.outliers,
    }


_FRAME_KEYS = (
    "previous_burst_index", "current_burst_index", "dt_span", "datum", "datum_residual",
    "rc_per_dim", "rc_combined", "rc_roots", "critical_short", "critical_long", "gti",
    "pdi_counts", "chains", "mixed_disjoint_points", "fallback_fraction",
    "fit_excluded_fraction", "margin_zeroed_fraction", "partial_dims", "levels",
)


def _frames_json(t: FrameResult | None) -> list[dict]:
    """The report's frame objects, built column by column from a subject's frame table.

    The fields of GtiRecord, Chain and ZoomProfile are in the order of
    their objects' keys in the report.
    """
    if t is None:
        return []
    level_keys = [f.name for f in fields(t.profile)]
    ladder = t.profile.point_count.tolist(), t.profile.x_coordinate.tolist()
    stats = [getattr(t.profile, name).tolist() for name in level_keys[2:]]
    columns = [
        *(a.tolist() for a in (
            t.previous_burst_index, t.current_burst_index, t.dt_span, t.datum, t.datum_residual,
            t.rc.rc_per_dim, t.rc.rc_combined, t.rc.rc, t.critical_short, t.critical_long,
        )),
        [vars(g) for g in t.gti],
        [{str(c): k for c, k in enumerate(np.bincount(row).tolist()) if k} for row in t.categories],
        [[vars(c) for c in chains] for chains in t.chains],
        [np.flatnonzero(row).tolist() for row in t.mixed_disjoint],
        *(a.tolist() for a in (
            t.fallback_fraction, t.fit_excluded_fraction, t.margin_zeroed_fraction
        )),
        [[]] * len(t.categories),   # partial_dims: prescaled frames have no unfittable dimension
        [[dict(zip(level_keys, level)) for level in zip(*ladder, *pair)] for pair in zip(*stats)],
    ]
    return [dict(zip(_FRAME_KEYS, values)) for values in zip(*columns)]


def subject_json(rep: SubjectReport) -> dict:
    doc = {
        "subject_id": rep.subject_id,
        "group_label": rep.group_label,
        "mass": rep.mass,
        "mass_defaulted": rep.mass_defaulted,
        "n_bursts": rep.n_bursts,
        "prescale_factors": rep.prescale_factors,
        "rc_median_per_dim": rep.rc_median_per_dim,
        "rc_combined_median": rep.rc_combined_median,
        "rc_values_per_dim": rep.rc_values_per_dim,
        "pdi_histogram": {str(k): v for k, v in sorted(rep.pdi_histogram.items())},
        "boxplot_per_dim": [_boxplot_json(b) for b in rep.boxplot_per_dim],
        "modulation_iqr_per_dim": rep.modulation_iqr_per_dim,
        "energy_exchange_amplitudes": {
            str(k): v for k, v in sorted(rep.energy_exchange_amplitudes.items())
        },
        "frames": _frames_json(rep.frame_table),
    }
    if rep.injection is not None:
        doc["injection"] = asdict(rep.injection)
    return doc


def _group_stats_json(gs: GroupStats | None):
    if gs is None:
        return None
    return {
        "threshold": gs.threshold,
        "bin_edges": gs.bin_edges,
        "unavailable": gs.unavailable,
        "groups": {
            label: {
                "n_subjects": sl.n_subjects,
                "per_dim": [None if d is None else _dim_stats_json(d) for d in sl.per_dim],
                "combined": _dim_stats_json(sl.combined),
            }
            for label, sl in gs.groups.items()
        },
        "percent_change_per_dim": gs.percent_change_per_dim,
        "percent_change_combined": gs.percent_change_combined,
    }


def _dim_stats_json(d: DimStats) -> dict:
    return {
        "n": d.n,
        "median": d.median,
        "percent_above": d.percent_above,
        "bin_counts": d.bin_counts,
    }


def report_json(
    reports: list[SubjectReport],
    stats: GroupStats | None,
    config: PipelineConfig,
) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(config),
        "dimension_names": config.dimension_names(),
        "subjects": [subject_json(r) for r in reports],
        "group_stats": _group_stats_json(stats),
    }
    return json_text(doc) + "\n"


def csv_num(x) -> str:
    """A number as CSV text: its float repr, or nan when not finite."""
    v = float(x)
    return _float_repr(v) if isfinite(v) else "nan"


def csv_nums(values: list[float]) -> list[str]:
    """csv_num of every item of a list of Python floats (an array's ``.tolist()``)."""
    return [_float_repr(v) if isfinite(v) else "nan" for v in values]


def csv_field(text: str) -> str:
    """text as one CSV field, quoted as the csv module's default dialect quotes it.

    A field holding a comma, a double quote, CR or LF is wrapped in double
    quotes with each inner quote doubled; any other text is written as is.
    """
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def roots_table_csv(reports: list[SubjectReport]) -> str:
    """One row per (subject, burst, dimension, root) with its rc value."""
    lines = ["subject_id,group_label,burst_index,dimension,root_index,rc"]
    for rep in reports:
        t = rep.frame_table
        if t is None:
            continue
        subject = f"{csv_field(rep.subject_id)},{csv_field(rep.group_label)},"
        heads = [
            f"{subject}{burst},{dim},"
            for burst in t.current_burst_index.tolist() for dim in range(t.rc.rc.shape[1])
        ]
        for head, row in zip(heads, t.rc.rc.reshape(len(heads), -1).tolist()):
            lines.extend([f"{head}{ri},{text}" for ri, text in enumerate(csv_nums(row))])
    return "\n".join(lines) + "\n"


def group_stats_csv(gs: GroupStats, config: PipelineConfig) -> str:
    names = list(config.dimension_names())
    bins = list(gs.bin_edges)
    bin_headers = [f"bin_le_{bins[0]}"] + [
        f"bin_{lo}_to_{hi}" for lo, hi in zip(bins, bins[1:])
    ] + [f"bin_gt_{bins[-1]}"]
    lines = ["group,dimension,n,median,percent_above_threshold," + ",".join(bin_headers)]
    for label, sl in gs.groups.items():
        rows = list(zip(names, sl.per_dim)) + [("combined", sl.combined)]
        for name, st in rows:
            if st is None:
                lines.append(f"{label},{name},0,nan,nan," + ",".join("0" for _ in bin_headers))
            else:
                lines.append(
                    f"{label},{name},{st.n},{csv_num(st.median)},"
                    f"{csv_num(st.percent_above)},"
                    + ",".join(str(c) for c in st.bin_counts)
                )
    if gs.percent_change_per_dim is not None:
        for name, pc in zip(names, gs.percent_change_per_dim):
            val = "nan" if pc is None else csv_num(pc)
            lines.append(f"percent_change,{name},,{val},,{','.join('' for _ in bin_headers)}")
        pc = gs.percent_change_combined
        val = "nan" if pc is None else csv_num(pc)
        lines.append(f"percent_change,combined,,{val},,{','.join('' for _ in bin_headers)}")
    return "\n".join(lines) + "\n"


def emit(
    reports: list[SubjectReport],
    stats: GroupStats | None,
    fmt: str,
    destination,
    config: PipelineConfig,
) -> list[Path]:
    """Write the analysis to disk; returns the written paths.

    json: one document (destination itself when it ends in .json, else
    report.json inside the destination directory).  csv: rc_roots.csv plus
    group_stats.csv (when stats exist) inside the destination directory.
    Output is deterministic byte for byte for identical inputs.
    """
    dest = Path(destination)
    written: list[Path] = []
    if fmt == "json":
        path = dest if dest.suffix == ".json" else dest / "report.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report_json(reports, stats, config), encoding="utf-8")
        written.append(path)
    elif fmt == "csv":
        directory = dest.parent if dest.suffix else dest
        directory.mkdir(parents=True, exist_ok=True)
        roots_path = directory / "rc_roots.csv"
        roots_path.write_text(roots_table_csv(reports), encoding="utf-8")
        written.append(roots_path)
        if stats is not None:
            gs_path = directory / "group_stats.csv"
            gs_path.write_text(group_stats_csv(stats, config), encoding="utf-8")
            written.append(gs_path)
    else:
        raise ValueError(f"unknown format {fmt!r}; use json or csv")
    return written


def subject_pools_from_json(doc: dict) -> list[SubjectPool]:
    """Rebuild the minimal per-subject pools a stats run needs."""
    subjects = doc.get("subjects", [])
    if not isinstance(subjects, list):
        raise ValueError("subjects is not a list")
    pools = []
    for sub in subjects:
        if not isinstance(sub, dict):
            raise ValueError("a subjects entry is not an object")
        values = [
            np.array([v for v in col if v is not None], dtype=float)
            for col in sub.get("rc_values_per_dim", [])
        ]
        pools.append(
            SubjectPool(
                subject_id=sub["subject_id"],
                group_label=sub["group_label"],
                rc_values_per_dim=values,
            )
        )
    return pools
