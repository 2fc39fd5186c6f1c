"""Data-burst ingestion: xyzm parsing, prescaling and synthetic corpora.

The xyzm format is plain text, one observation point per line, D
whitespace-separated decimal reals (default order: knee extension moment,
knee varus moment, knee internal rotation moment, mechanical energy).
Consecutive groups of N data lines form one data-burst.  Lines starting
with ``#`` are comments; the recognized directives are

    #subject <id>      switch the current subject
    #mass <kg>         mass of the current subject (last one wins)
    #dt <seconds>      time step of subsequent bursts
    #group <label>     one of control / post_aclr / unlabeled
    #com <D reals>     per-burst center-of-mass displacement; persists for
                       subsequent bursts until changed; ``#com none`` clears

Directive values take effect for bursts that begin after the directive.
Unknown directives are treated as comments.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, TextIO

import numpy as np

from .config import PipelineConfig
from .errors import ParseError, TruncationError, ValidationError

log = logging.getLogger(__name__)

GROUP_LABELS = ("control", "post_aclr", "unlabeled")
DEFAULT_SUBJECT = "default"
SYNTH_PROFILES = ("stable", "burst", "drift")


@dataclass
class DataBurst:
    """One frame of N observation points by D dimensions plus a time step."""

    values: np.ndarray  # (N, D)
    dt: float = 1.0
    burst_index: int = 0
    subject_id: str = DEFAULT_SUBJECT
    group_label: str = "unlabeled"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValidationError("burst values must be a 2-d array (points, dims)")
        n, _ = self.values.shape
        if n < 3:
            raise ValidationError("a data-burst needs at least 3 points")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("burst values must be finite")
        if self.dt <= 0.0:
            raise ValidationError("dt must be positive")
        if self.burst_index < 0:
            raise ValidationError("burst_index must be non-negative")
        if self.group_label not in GROUP_LABELS:
            raise ValidationError(f"unknown group label {self.group_label!r}")

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_dims(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Injection:
    """Ground truth of a synthetic anomaly, kept for test oracles."""

    burst_index: int
    time_index: int
    dimension: int
    drop_fraction: float


@dataclass
class SubjectMeta:
    mass: float = 1.0
    mass_defaulted: bool = True
    com_displacement: dict[int, np.ndarray] = field(default_factory=dict)
    injection: Injection | None = None


@dataclass
class Dataset:
    """Bursts grouped by subject plus per-subject metadata."""

    bursts: list[DataBurst]
    metadata: dict[str, SubjectMeta] = field(default_factory=dict)

    def __post_init__(self):
        last: dict[str, int] = {}
        for b in self.bursts:
            prev = last.get(b.subject_id)
            if prev is not None and b.burst_index <= prev:
                raise ValidationError(
                    f"burst indices for subject {b.subject_id!r} must be strictly increasing"
                )
            last[b.subject_id] = b.burst_index
            self.metadata.setdefault(b.subject_id, SubjectMeta())
        for sid, meta in self.metadata.items():
            for bidx, com in meta.com_displacement.items():
                com = np.asarray(com, dtype=float)
                meta.com_displacement[bidx] = com

    def subjects(self) -> list[str]:
        seen: list[str] = []
        for b in self.bursts:
            if b.subject_id not in seen:
                seen.append(b.subject_id)
        return seen

    def bursts_for(self, subject_id: str) -> list[DataBurst]:
        return [b for b in self.bursts if b.subject_id == subject_id]


def _lines(stream: TextIO | Iterable[str] | str) -> Iterable[str]:
    """The lines of ``stream``; a string splits only at \\n, \\r\\n and \\r, as a text file does."""
    if not isinstance(stream, str):
        return stream
    if "\r" in stream:   # a fast scan, where the two-character replace is a slow one
        stream = stream.replace("\r\n", "\n").replace("\r", "\n")
    lines = stream.split("\n")
    if not lines[-1]:   # the text ends with a newline, or is empty
        lines.pop()
    return lines


def _rows_one_by_one(lines: list[str], linenos: list[int], d: int) -> np.ndarray:
    """Parse data lines one at a time; raise the error of the first bad one, at its line."""
    rows = []
    for lineno, line in zip(linenos, lines):
        tokens = line.split()
        if len(tokens) != d:
            raise ParseError(f"expected {d} values per line, got {len(tokens)}", lineno)
        try:
            row = [float(t) for t in tokens]
        except ValueError:
            raise ParseError(f"malformed numeric token in {line!r}", lineno) from None
        if not all(math.isfinite(v) for v in row):
            raise ValidationError("non-finite value in data line", lineno)
        rows.append(row)
    return np.array(rows, dtype=float).reshape(-1, d)


def _rows(lines: list[str], linenos: list[int], d: int) -> np.ndarray:
    """Parse a burst's data lines as one block: split, ``float``, one finiteness check.

    A block that fails a check is parsed again one line at a time, which
    raises the error of its first bad line.
    """
    tokens = [line.split() for line in lines]
    if set(map(len, tokens)) == {d}:
        try:
            values = np.fromiter(map(float, itertools.chain.from_iterable(tokens)), float, len(lines) * d)
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return values.reshape(-1, d)
    return _rows_one_by_one(lines, linenos, d)


def parse_xyzm(stream: TextIO | Iterable[str] | str, config: PipelineConfig) -> Dataset:
    """Parse an xyzm text stream into a Dataset.

    ``stream`` may be an open text file, any iterable of lines, or a string
    holding the whole file content.  Raises ParseError / ValidationError with
    the offending line number, and TruncationError when a burst is cut short.

    Data lines are collected per burst and converted a burst at a time.  An
    error met while a burst is pending is raised only after that burst's
    lines are checked one by one, so the first bad line raises, as it would
    line by line.
    """
    d, n = config.D, config.N
    bursts: list[DataBurst] = []
    metadata: dict[str, SubjectMeta] = {}
    counters: dict[str, int] = {}

    subject = DEFAULT_SUBJECT
    dt = 1.0
    group = "unlabeled"
    com: np.ndarray | None = None

    pending: list[str] = []      # the data lines of the burst being read
    linenos: list[int] = []      # and their line numbers
    burst_state: tuple[str, float, str, np.ndarray | None] | None = None

    def finish_burst():
        nonlocal pending, linenos, burst_state
        sid, bdt, bgroup, bcom = burst_state
        lines, numbers = pending, linenos
        pending, linenos = [], []
        values = _rows(lines, numbers, d)
        idx = counters.get(sid, 0)
        counters[sid] = idx + 1
        meta = metadata.setdefault(sid, SubjectMeta())
        if bcom is not None:
            meta.com_displacement[idx] = np.array(bcom, dtype=float)
        bursts.append(
            DataBurst(
                values=values,
                dt=bdt,
                burst_index=idx,
                subject_id=sid,
                group_label=bgroup,
            )
        )
        burst_state = None

    try:
        for lineno, raw in enumerate(_lines(stream), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].strip().split()
                if not parts:
                    continue
                key, args = parts[0].lower(), parts[1:]
                if key == "subject":
                    if pending:
                        raise TruncationError(
                            f"subject change inside a burst ({len(pending)} of {n} lines read)",
                            lineno,
                        )
                    if not args:
                        raise ParseError("missing subject id", lineno)
                    subject = " ".join(args)
                    metadata.setdefault(subject, SubjectMeta())
                elif key == "mass":
                    try:
                        value = float(args[0])
                    except (IndexError, ValueError):
                        raise ParseError("malformed #mass directive", lineno) from None
                    if not math.isfinite(value) or value <= 0:
                        raise ValidationError("mass must be a positive finite number", lineno)
                    meta = metadata.setdefault(subject, SubjectMeta())
                    meta.mass = value
                    meta.mass_defaulted = False
                elif key == "dt":
                    try:
                        value = float(args[0])
                    except (IndexError, ValueError):
                        raise ParseError("malformed #dt directive", lineno) from None
                    if not math.isfinite(value) or value <= 0:
                        raise ValidationError("dt must be a positive finite number", lineno)
                    dt = value
                elif key == "group":
                    if len(args) != 1 or args[0] not in GROUP_LABELS:
                        raise ParseError(
                            f"#group expects one of {', '.join(GROUP_LABELS)}", lineno
                        )
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
                # anything else is a plain comment
                continue

            if not pending:
                burst_state = (subject, dt, group, None if com is None else com.copy())
            pending.append(line)
            linenos.append(lineno)
            if len(pending) == n:
                finish_burst()

        if pending:
            raise TruncationError(
                f"file ended mid-burst: got {len(pending)} of {n} lines", lineno
            )
    except ParseError:
        try:
            _rows_one_by_one(pending, linenos, d)
        except ParseError as earlier:   # a bad data line of the pending burst comes first
            raise earlier from None
        raise

    for sid, meta in metadata.items():
        if meta.mass_defaulted and counters.get(sid):
            log.warning("subject %s has no #mass directive; defaulting to 1.0 kg", sid)
    return Dataset(bursts=bursts, metadata=metadata)


def parse_xyzm_file(path, config: PipelineConfig) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_xyzm(fh, config)
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def _fmt(x: float) -> str:
    return repr(float(x))


def emit_xyzm(dataset: Dataset) -> str:
    """Serialize a Dataset back to xyzm text.

    Numbers are written with shortest round-trip precision, so
    ``parse_xyzm(emit_xyzm(ds))`` reproduces every value exactly.
    """
    out: list[str] = []
    for sid in dataset.subjects():
        meta = dataset.metadata.get(sid, SubjectMeta())
        out.append(f"#subject {sid}")
        if not meta.mass_defaulted:
            out.append(f"#mass {_fmt(meta.mass)}")
        prev_dt: float | None = None
        prev_group: str | None = None
        com_active = False
        for burst in dataset.bursts_for(sid):
            if burst.dt != prev_dt:
                out.append(f"#dt {_fmt(burst.dt)}")
                prev_dt = burst.dt
            if burst.group_label != prev_group:
                out.append(f"#group {burst.group_label}")
                prev_group = burst.group_label
            com = meta.com_displacement.get(burst.burst_index)
            if com is not None:
                out.append("#com " + " ".join(_fmt(v) for v in com))
                com_active = True
            elif com_active:
                out.append("#com none")
                com_active = False
            for row in burst.values:
                out.append(" ".join(_fmt(v) for v in row))
    return "\n".join(out) + "\n"


def prescale_burst(burst: DataBurst) -> tuple[DataBurst, np.ndarray]:
    """Divide each dimension by its in-burst max absolute value.

    Dimensions whose max is 0 are left untouched (divisor recorded as 1.0).
    Returns the scaled burst and the per-dimension divisors.
    """
    divisors = np.max(np.abs(burst.values), axis=0)
    divisors = np.where(divisors == 0.0, 1.0, divisors)
    scaled = replace(burst, values=burst.values / divisors)
    return scaled, divisors


def synthesize(
    profile: str,
    config: PipelineConfig,
    n_bursts: int = 10,
    n_subjects: int = 1,
    group_label: str = "unlabeled",
    include_com: bool = False,
    subject_prefix: str = "SYN",
) -> Dataset:
    """Deterministic synthetic corpus for a given profile.

    stable  every burst repeats one smooth multi-sinusoid waveform per
            dimension plus 1% noise, the way repeated movement cycles do
    burst   the stable signal with a 95% step collapse injected at a
            recorded (burst, time index, dimension); the collapse persists
            through later bursts, and the ground truth is stored in the
            subject metadata
    drift   the stable signal with a slow monotone trend in one dimension

    The base signal for a given seed is identical across profiles, which
    makes stable/burst pairs directly comparable in detection tests.
    """
    if profile not in SYNTH_PROFILES:
        raise ValidationError(f"unknown profile {profile!r}; choose from {SYNTH_PROFILES}")
    if n_bursts < 1 or n_subjects < 1:
        raise ValidationError("n_bursts and n_subjects must be positive")
    if group_label not in GROUP_LABELS:
        raise ValidationError(f"unknown group label {group_label!r}")

    d, n = config.D, config.N
    width = max(3, len(str(n_subjects - 1)))
    bursts: list[DataBurst] = []
    metadata: dict[str, SubjectMeta] = {}

    children = np.random.SeedSequence(config.seed).spawn(n_subjects)
    for s, child in enumerate(children):
        rng = np.random.default_rng(child)
        sid = f"{subject_prefix}{s:0{width}d}"

        # A low-amplitude oscillation rides on a positive baseline, like a
        # joint moment through a movement cycle.  The baseline keeps the
        # pairwise-margin denominators well away from zero after prescaling.
        amps = 0.5 + rng.random(d)                     # (D,)
        baselines = amps * rng.uniform(5.5, 7.0, size=d)
        freqs = rng.uniform(0.01, 0.05, size=(d, 3))   # cycles per sample
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(d, 3))
        weights = np.array([0.6, 0.3, 0.1])

        # one waveform per dimension, repeated by every burst
        i = np.arange(n, dtype=float)
        waveform = np.empty((n, d))
        for dim in range(d):
            phase_arg = 2.0 * np.pi * freqs[dim][None, :] * i[:, None]
            waveform[:, dim] = baselines[dim] + amps[dim] * (
                np.sin(phase_arg + phases[dim][None, :]) @ weights
            )
        values = waveform[None, :, :] + rng.normal(
            0.0, 1.0, size=(n_bursts, n, d)
        ) * (0.01 * amps)

        meta = SubjectMeta(mass=70.0, mass_defaulted=False)
        if include_com:
            com = rng.normal(0.0, 0.05, size=(n_bursts, d))
            meta.com_displacement = {b: com[b] for b in range(n_bursts)}

        if profile == "drift":
            drift_dim = int(rng.integers(0, d))
            t_global = (np.arange(n_bursts)[:, None] * n + i[None, :])
            slope = 0.5 * amps[drift_dim] / (n_bursts * n)
            values[:, :, drift_dim] += slope * t_global
        elif profile == "burst":
            inj_dim = int(rng.integers(0, d))
            inj_burst = n_bursts // 2
            inj_time = n // 2
            drop = 0.95
            values[inj_burst, inj_time:, inj_dim] *= 1.0 - drop
            values[inj_burst + 1:, :, inj_dim] *= 1.0 - drop
            meta.injection = Injection(
                burst_index=inj_burst,
                time_index=inj_time,
                dimension=inj_dim,
                drop_fraction=drop,
            )

        metadata[sid] = meta
        for b in range(n_bursts):
            bursts.append(
                DataBurst(
                    values=values[b],
                    dt=1.0,
                    burst_index=b,
                    subject_id=sid,
                    group_label=group_label,
                )
            )
    return Dataset(bursts=bursts, metadata=metadata)
