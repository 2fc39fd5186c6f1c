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
  strings and keys are ASCII-escaped, non-finite floats are null, and a
  dataclass instance is an object of its fields in declaration order, so
  its type fixes its keys; the text is the bytes of ``json.dumps(value,
  indent=2)`` of the values read as Python numbers: ``json_text`` writes
  any value, ``subject_text`` a report's subject from its columns
* CSV numbers are float reprs, nan when not finite; a text field holding a
  comma, a double quote, CR or LF is quoted as the csv module quotes it
  (``csv_field``), so every row has its header's width
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from math import isfinite
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, NamedTuple

import numpy as np

from .config import PipelineConfig
from .errors import GroupUnavailable
from .ingest import GROUP_LABELS, Injection
from .zoomout import GtiRecord, ZoomProfile

if TYPE_CHECKING:
    from .curvature import Chain
    from .zoomout import ResidualCurvatureRecord

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
    return boxplot_rows(v[None])[1][0]


def boxplot_rows(rows: np.ndarray) -> tuple[np.ndarray, list[BoxplotStats | None]]:
    """Median and boxplot of each row of a (k, n) array of finite values, one call per statistic."""
    if rows.shape[1] == 0:
        return np.full(len(rows), np.nan), [None] * len(rows)
    q25, q75 = np.percentile(rows, [25.0, 75.0], axis=1).tolist()
    mu, sigma = np.mean(rows, axis=1), np.std(rows, axis=1)
    lo, hi = mu - 2.7 * sigma, mu + 2.7 * sigma
    outside = (rows < lo[:, None]) | (rows > hi[:, None])
    outliers = [tuple(np.sort(r[o]).tolist()) for r, o in zip(rows, outside)]
    return np.median(rows, axis=1), [
        BoxplotStats(q25=a, q75=b, whisker_low=low, whisker_high=high, outliers=out)
        for a, b, low, high, out in zip(q25, q75, lo.tolist(), hi.tolist(), outliers)
    ]


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
    n_subjects: int
    per_dim: list[DimStats | None]
    combined: DimStats


@dataclass
class GroupStats:
    threshold: float
    bin_edges: tuple[float, ...]
    unavailable: list[str]
    groups: dict[str, GroupSlice]
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
            n_subjects=subject_counts[label],
            per_dim=[_pooled_stats(cols, threshold, config.bin_edges) for cols in columns[label]],
            combined=combined,
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
        unavailable=unavailable,
        groups=groups,
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
    frame_table: FrameResult             # P = 0 when the subject has no frame pair
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
        return [self.frame_table[p] for p in range(len(self.frame_table.categories))]


# ---------------------------------------------------------------------------
# serialization


def json_text(value) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, with no trailing newline.

    numpy arrays are read through ``.tolist()`` and numpy scalars as the
    Python number they hold; non-finite floats are written as null.  A
    dataclass instance is written as an object of its fields
    (``dataclasses.fields``), in declaration order; other attributes and
    properties are left out.  Keys must be str.  Every other type
    json.dumps rejects raises TypeError.
    """
    return _text(value, "\n")


def _text(v, nl: str) -> str:
    """The JSON text of v written at nl, a newline plus the current indent."""
    if isinstance(v, str):
        return _encode_str(v)
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return _int_repr(v)
    if isinstance(v, float):  # np.float64 included
        return _float_repr(v) if isfinite(v) else "null"
    if isinstance(v, (list, tuple)):
        if v and isinstance(v[0], float):
            try:
                return _items(_float_texts(v, "null"), nl)
            except TypeError:  # an item that is not a float
                pass
        return _items([_text(item, nl + "  ") for item in v], nl)
    if isinstance(v, np.ndarray):
        return _text(v.tolist(), nl)
    if isinstance(v, dict):
        for key in v:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        return _items([_text(item, nl + "  ") for item in v.values()], nl, v)
    if isinstance(v, np.floating):
        return _text(float(v), nl)
    if isinstance(v, np.integer):
        return _int_repr(int(v))
    if is_dataclass(type(v)):   # an instance; a dataclass type itself is rejected
        return _text({name: getattr(v, name) for name in _field_names(type(v))}, nl)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


@functools.cache
def _field_names(cls, floats: bool = False) -> tuple[str, ...]:
    """The field names of a dataclass type in declaration order; with floats, those declared float."""
    return tuple(f.name for f in fields(cls) if not floats or f.type.startswith("float"))


def _items(texts: list[str], nl: str, keys: Iterable | None = None) -> str:
    """A JSON array of item texts written at nl, or an object when keys are given."""
    ends = "[]" if keys is None else "{}"
    if not texts:
        return ends
    if keys is not None:
        texts = [f"{_encode_str(str(k))}: {v}" for k, v in zip(keys, texts)]
    return ends[0] + nl + "  " + ("," + nl + "  ").join(texts) + nl + ends[1]


_FRAME_KEYS = (
    "previous_burst_index", "current_burst_index", "dt_span", "datum", "datum_residual",
    "rc_per_dim", "rc_combined", "rc_roots", "critical_short", "critical_long", "gti",
    "pdi_counts", "chains", "mixed_disjoint_points", "fallback_fraction",
    "fit_excluded_fraction", "margin_zeroed_fraction", "partial_dims", "levels",
)
# marks in a template skeleton: the next float text, the next other text; "@f<i>" is float text i
_F, _T, _SLOT = "@f", "@t", re.compile(r'"@([ft])(\d*)"')


@functools.lru_cache(maxsize=64)   # keyed by shape: a template holds no subject's values
def _frame_template(d: int, levels: int, nl: str):
    """Literal parts and a slot picker for a frame object of D dimensions and L levels at nl.

    The picker takes a row of `_frame_floats`, then the burst indices, the GTI record's other
    fields, the category counts, chains, mixed points and each level's point count.
    """
    zoom, dims = _field_names(ZoomProfile), [_F] * d
    gti = {k: _F if k in _field_names(GtiRecord, floats=True) else _T for k in _field_names(GtiRecord)}
    level = {zoom[0]: _T, **{k: dims if k.endswith("_per_dim") else _F for k in zoom[1:]}}
    roots = [[f"{_F}{2 * d + 1 + k}"] * 2 ** d for k in range(d)]   # each repeats its rc_per_dim text
    skeleton = dict(zip(_FRAME_KEYS, [
        _T, _T, _F, dims, dims, dims, _F, roots, _F, _F, gti, _T, _T, _T, _F, dims, dims,
        [], [level] * levels,   # partial_dims: a prescaled frame has no unfittable dimension
    ]))
    pieces = _SLOT.split(_text(skeleton, nl))   # literal, kind, number, literal, ...
    kinds, numbers = pieces[1::3], pieces[2::3]
    floats, others = itertools.count(), itertools.count(numbers.count("") - kinds.count("t"))
    parts = [None] * (2 * len(kinds) + 1)
    parts[0::2] = pieces[0::3]
    return parts, itemgetter(*[
        int(n) if n else next(floats if k == "f" else others) for k, n in zip(kinds, numbers)
    ])


def _frame_floats(t: FrameResult) -> np.ndarray:
    """A (P, K) array of each frame's floats, in the text order of its template's float slots."""
    pr, p = t.profile, len(t.datum)
    levels = [np.broadcast_to(pr.x_coordinate[:, None], (p, len(pr.x_coordinate), 1))]
    levels += [getattr(pr, k) for k in _field_names(ZoomProfile)[2:]]
    gti_floats = _field_names(GtiRecord, floats=True)
    gti = np.array([[getattr(g, k) for k in gti_floats] for g in t.gti], dtype=float)
    return np.column_stack([
        t.dt_span, t.datum, t.datum_residual, t.rc.rc_per_dim, t.rc.rc_combined, t.critical_short,
        t.critical_long, gti, t.fallback_fraction, t.fit_excluded_fraction, t.margin_zeroed_fraction,
        np.concatenate([a.reshape(p, len(pr.x_coordinate), -1) for a in levels], axis=2).reshape(p, -1),
    ])


def _number_texts(values: np.ndarray) -> list[str]:
    """The JSON text of each float of a 1-d array, null when not finite; one repr per bit pattern."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    distinct = bits.view(float)
    texts = np.array(list(map(_float_repr, distinct.tolist())), dtype=object)
    texts[~np.isfinite(distinct)] = "null"
    return texts[inverse].tolist()


def subject_text(rep: SubjectReport, indent: str) -> str:
    """The JSON text of one subject object whose first line is at ``indent``.

    Every float goes through one text table (`_number_texts`), in text
    order, and each frame is filled into the template of its shape.
    """
    t, nl = rep.frame_table, "\n" + indent
    inner, item, keys = nl + "  ", nl + "    ", nl + "      "   # a key's, a list item's, its keys' nl
    boxes = [b for b in rep.boxplot_per_dim if b is not None]
    amplitudes = sorted(rep.energy_exchange_amplitudes.items())
    injection = [rep.injection] if rep.injection is not None else []
    rows = _frame_floats(t) if len(t.datum) else np.empty((0, 0))
    texts = iter(_number_texts(np.concatenate([np.ravel(np.array(c, dtype=float)) for c in [
        rows, rep.mass, rep.prescale_factors, rep.rc_median_per_dim, rep.rc_combined_median,
        *rep.rc_values_per_dim,
        [getattr(b, k) for b in boxes for k in _field_names(BoxplotStats, floats=True)],
        rep.modulation_iqr_per_dim, [v for _, v in amplitudes],
        [getattr(r, k) for r in injection for k in _field_names(Injection, floats=True)],
    ]])))

    def take(n) -> list[str]:
        return list(itertools.islice(texts, n))

    def record(r, nl: str) -> str:   # a dataclass object, its floats from the table
        names, floats = _field_names(type(r)), _field_names(type(r), floats=True)
        values = [next(texts) if k in floats else _text(getattr(r, k), nl + "  ") for k in names]
        return _items(values, nl, names)

    levels = len(t.profile.point_count)
    parts, pick = _frame_template(t.datum.shape[1], levels, item) if len(rows) else (None, None)
    ladder = [_int_repr(c) for c in t.profile.point_count.tolist()]
    gti_others = [k for k in _field_names(GtiRecord) if k not in _field_names(GtiRecord, floats=True)]
    frames = []
    for prev, cur, gti, counts, chains, mixed in zip(
        t.previous_burst_index.tolist(), t.current_burst_index.tolist(), t.gti,
        (np.bincount(row).tolist() for row in t.categories), t.chains, t.mixed_disjoint,
    ):
        parts[1::2] = pick(take(rows.shape[1]) + [
            _int_repr(prev), _int_repr(cur), *(_text(getattr(gti, k), "") for k in gti_others),
            _items([_int_repr(k) for k in counts if k], keys, [c for c, k in enumerate(counts) if k]),
            _text(chains, keys), _text(np.flatnonzero(mixed).tolist(), keys), *ladder,
        ])
        frames.append("".join(parts))
    histogram = sorted(rep.pdi_histogram.items())
    doc = {   # written in text order, the order of the floats in the table
        "subject_id": _encode_str(rep.subject_id),
        "group_label": _encode_str(rep.group_label),
        "mass": next(texts),
        "mass_defaulted": _text(rep.mass_defaulted, ""),
        "n_bursts": _int_repr(rep.n_bursts),
        "prescale_factors": _items([_items(take(np.size(a)), item) for a in rep.prescale_factors], inner),
        "rc_median_per_dim": _items(take(len(rep.rc_median_per_dim)), inner),
        "rc_combined_median": next(texts),
        "rc_values_per_dim": _items([_items(take(np.size(a)), item) for a in rep.rc_values_per_dim], inner),
        "pdi_histogram": _items([_int_repr(k) for _, k in histogram], inner, [c for c, _ in histogram]),
        "boxplot_per_dim": _items(
            ["null" if b is None else record(b, item) for b in rep.boxplot_per_dim], inner
        ),
        "modulation_iqr_per_dim": _items(take(len(rep.modulation_iqr_per_dim)), inner),
        "energy_exchange_amplitudes": _items(take(len(amplitudes)), inner, [k for k, _ in amplitudes]),
        "frames": _items(frames, inner),
        **{"injection": record(r, inner) for r in injection},
    }
    return _items(list(doc.values()), nl, doc)


def report_json(
    reports: list[SubjectReport],
    stats: GroupStats | None,
    config: PipelineConfig,
) -> str:
    """The report: schema version, config, dimension names, one object per subject, group statistics."""
    head = json_text({
        "schema_version": SCHEMA_VERSION, "config": config, "dimension_names": config.dimension_names(),
    })
    subjects = _items([subject_text(r, "    ") for r in reports], "\n  ")
    stats_text = _text(stats, "\n  ")
    return f'{head[:-2]},\n  "subjects": {subjects},\n  "group_stats": {stats_text}\n}}\n'


def csv_num(x) -> str:
    """A number as CSV text: its float repr, or nan when not finite."""
    v = float(x)
    return _float_repr(v) if isfinite(v) else "nan"


def csv_nums(values: list[float]) -> list[str]:
    """csv_num of every item of a list of Python floats (an array's ``.tolist()``)."""
    return _float_texts(values, "nan")


def _float_texts(values: list, non_finite: str) -> list[str]:
    """The repr of each float of ``values``, or ``non_finite`` for NaN and inf.

    A repr costs about half a microsecond and a dump's rank columns repeat
    values, so a list of floats holding each value twice or more on average
    formats each distinct value once, through a dict (a subject's report
    uses `_number_texts`).  Equal values share a key, so a list holding a
    zero (0.0 == -0.0) or a non-float (1 == 1.0) goes item by item, as does
    a list of mostly distinct values.  A non-float item raises TypeError.
    """
    texts = dict.fromkeys(values)
    if 2 * len(texts) > len(values) or 0.0 in texts or set(map(type, values)) != {float}:
        return [_float_repr(v) if isfinite(v) else non_finite for v in values]
    for v in texts:
        texts[v] = _float_repr(v) if isfinite(v) else non_finite
    return list(map(texts.__getitem__, values))


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
        subject = f"{csv_field(rep.subject_id)},{csv_field(rep.group_label)},"
        d = t.rc.rc_per_dim.shape[1]
        roots = [str(ri) for ri in range(2 ** d)]   # a (pair, dimension)'s rows are one join over these
        heads = [f"{subject}{b},{dim}," for b in t.current_burst_index.tolist() for dim in range(d)]
        texts = csv_nums(t.rc.rc_per_dim.ravel().tolist())
        lines += [head + f",{x}\n{head}".join(roots) + f",{x}" for head, x in zip(heads, texts)]
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


def report_path(destination) -> Path:
    """The JSON report path an output destination names; every output goes in its directory.

    A destination ending in .json is the report itself; any other
    destination, a dotted name such as results.v2 included, is the output
    directory, holding report.json.
    """
    dest = Path(destination)
    return dest if dest.suffix == ".json" else dest / "report.json"


def emit(
    reports: list[SubjectReport],
    stats: GroupStats | None,
    fmt: str,
    destination,
    config: PipelineConfig,
) -> list[Path]:
    """Write the analysis to disk; returns the written paths.

    json: one document at ``report_path(destination)``.  csv: rc_roots.csv
    plus group_stats.csv (when stats exist) in that path's directory.
    Output is deterministic byte for byte for identical inputs.
    """
    path = report_path(destination)
    if fmt == "json":
        texts = {path: report_json(reports, stats, config)}
    elif fmt == "csv":
        texts = {path.parent / "rc_roots.csv": roots_table_csv(reports)}
        if stats is not None:
            texts[path.parent / "group_stats.csv"] = group_stats_csv(stats, config)
    else:
        raise ValueError(f"unknown format {fmt!r}; use json or csv")
    path.parent.mkdir(parents=True, exist_ok=True)
    for target, text in texts.items():
        target.write_text(text, encoding="utf-8")
    return list(texts)


_NUMBER_OR_NULL = {int, float, type(None)}   # the types json.loads gives such values


def subject_pools_from_json(doc: dict) -> list[SubjectPool]:
    """Rebuild the minimal per-subject pools a stats run needs."""
    subjects = doc.get("subjects", [])
    if not isinstance(subjects, list):
        raise ValueError("subjects is not a list")
    pools = []
    for sub in subjects:
        if not isinstance(sub, dict):
            raise ValueError("a subjects entry is not an object")
        columns = sub.get("rc_values_per_dim", [])
        # np.array would take a bool, a numeric str or a nested list as well
        if type(columns) is not list or any(
            type(col) is not list or not set(map(type, col)) <= _NUMBER_OR_NULL for col in columns
        ):
            raise ValueError("rc_values_per_dim is not a list of columns of numbers and nulls")
        values = [np.array([v for v in col if v is not None], dtype=float) for col in columns]
        pools.append(
            SubjectPool(
                subject_id=sub["subject_id"],
                group_label=sub["group_label"],
                rc_values_per_dim=values,
            )
        )
    return pools
