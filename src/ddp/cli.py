"""Command-line interface.

    ddp analyze --input <path|dir> [--stride n] [--burst-len N] [--dims D]
                [--out report.json] [--format json|csv]
                [--dump borda|roots|pdi|zoom]
    ddp synth   --profile stable|burst|drift --seed S --out corpus/
                [--subjects K] [--bursts B] [--group LABEL] [--com]
    ddp stats   --reports <dir> [--groups control,post_aclr]
                [--format csv|json] [--out PATH]

Warnings go to stderr as ``warning: ...`` lines, errors as ``error: ...``
lines.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .config import PipelineConfig
from .errors import ConfigError, DdpError, GroupUnavailable, ParseError
from .ingest import (
    GROUP_LABELS,
    SYNTH_PROFILES,
    Dataset,
    emit_xyzm,
    parse_xyzm_files,
    synthesize,
)
from .pipeline import DUMP_KINDS, analyze_dataset
from .report import (
    emit,
    group_stats,
    group_stats_csv,
    json_text,
    report_path,
    subject_pools_from_json,
)

log = logging.getLogger("ddp.cli")   # not __main__ under python -m ddp.cli


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddp", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze xyzm input and emit a report")
    p_an.add_argument("--input", required=True, help="xyzm file or directory of .xyzm files")
    p_an.add_argument("--burst-len", type=int, default=81, dest="burst_len")
    p_an.add_argument("--dims", type=int, default=4)
    p_an.add_argument("--stride", type=int, default=1)
    p_an.add_argument("--out", default="report.json")
    p_an.add_argument("--format", choices=("json", "csv"), default="json")
    p_an.add_argument("--dump", action="append", choices=DUMP_KINDS, default=[],
                      help="also write a per-point debug table (repeatable)")

    p_sy = sub.add_parser("synth", help="write a deterministic synthetic corpus")
    p_sy.add_argument("--profile", required=True, choices=SYNTH_PROFILES)
    p_sy.add_argument("--seed", type=int, default=0)
    p_sy.add_argument("--out", required=True, help="output directory")
    p_sy.add_argument("--subjects", type=int, default=1)
    p_sy.add_argument("--bursts", type=int, default=10)
    p_sy.add_argument("--burst-len", type=int, default=81, dest="burst_len")
    p_sy.add_argument("--dims", type=int, default=4)
    p_sy.add_argument("--group", choices=GROUP_LABELS, default="unlabeled")
    p_sy.add_argument("--prefix", default="SYN", help="subject id prefix")
    p_sy.add_argument("--com", action="store_true",
                      help="include synthetic center-of-mass displacement")

    p_st = sub.add_parser("stats", help="pool subject reports into group statistics")
    p_st.add_argument("--reports", required=True, help="directory of report .json files")
    p_st.add_argument("--groups", default="control,post_aclr",
                      help="comma-separated group labels to include")
    p_st.add_argument("--format", choices=("csv", "json"), default="csv")
    p_st.add_argument("--out", default=None, help="output path (default: stdout)")
    return parser


def _load_inputs(path_str: str, config: PipelineConfig) -> Dataset:
    path = Path(path_str)
    if path.is_dir():
        files = sorted(f for f in path.glob("*.xyzm") if f.is_file())
        if not files:
            raise DdpError(f"no .xyzm files in {path}")
    else:
        if not path.exists():
            raise DdpError(f"input {path} does not exist")
        files = [path]
    return parse_xyzm_files(files, config)


def _cmd_analyze(args) -> int:
    config = PipelineConfig(D=args.dims, N=args.burst_len, stride_n=args.stride)
    dataset = _load_inputs(args.input, config)
    result = analyze_dataset(dataset, config, dumps=tuple(dict.fromkeys(args.dump)))
    labeled = {r.group_label for r in result.subjects} - {"unlabeled"}
    stats = None
    if labeled:
        try:
            stats = group_stats(result.subjects, config)
        except GroupUnavailable as exc:
            log.warning("writing no group statistics: %s", exc)
    written = emit(result.subjects, stats, args.format, args.out, config)
    out_dir = report_path(args.out).parent   # emit has made it
    for kind, text in result.dumps.items():
        dump_path = out_dir / f"dump_{kind}.csv"
        dump_path.write_text(text, encoding="utf-8")
        written.append(dump_path)
    for path in written:
        print(path)
    return 0


def _cmd_synth(args) -> int:
    config = PipelineConfig(D=args.dims, N=args.burst_len, seed=args.seed)
    dataset = synthesize(
        args.profile,
        config,
        n_bursts=args.bursts,
        n_subjects=args.subjects,
        group_label=args.group,
        include_com=args.com,
        subject_prefix=args.prefix,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    injections = {}
    for sid, bursts in dataset.by_subject().items():
        single = Dataset(bursts=bursts, metadata={sid: dataset.metadata[sid]})
        path = out_dir / f"{sid}.xyzm"
        path.write_text(emit_xyzm(single), encoding="utf-8")
        print(path)
        inj = dataset.metadata[sid].injection
        if inj is not None:
            injections[sid] = inj
    if injections:
        inj_path = out_dir / "injections.json"
        inj_path.write_text(json_text(injections) + "\n", encoding="utf-8")
        print(inj_path)
    return 0


def _cmd_stats(args) -> int:
    wanted = [g.strip() for g in args.groups.split(",") if g.strip()]
    for g in wanted:
        if g not in GROUP_LABELS:
            raise DdpError(f"unknown group {g!r}; choose from {GROUP_LABELS}")
    reports_dir = Path(args.reports)
    if not reports_dir.exists():
        raise DdpError(f"reports path {reports_dir} does not exist")
    if reports_dir.is_dir():
        files = sorted(f for f in reports_dir.glob("*.json") if f.is_file())
    else:
        files = [reports_dir]
    if not files:
        raise DdpError(f"no report .json files in {reports_dir}")
    pools = []
    config = first = None
    for path in files:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(doc, dict):
                raise ValueError("the top level is not a JSON object")
            cfg = None
            if "config" in doc:
                # keys that are not config fields (removed ones too) are ignored
                given = {f.name: doc["config"][f.name] for f in fields(PipelineConfig)}
                cfg = PipelineConfig(**{f.name: given[f.name] for f in fields(PipelineConfig) if f.init})
            file_pools = subject_pools_from_json(doc)
            if cfg is not None and any(len(p.rc_values_per_dim) != cfg.D for p in file_pools):
                raise ValueError(f"a subject does not hold D={cfg.D} rc_values_per_dim columns")
        except (TypeError, ValueError, OverflowError, ConfigError) as exc:
            raise ParseError(f"malformed report {path}: {exc}") from None
        except KeyError as exc:
            raise ParseError(f"malformed report {path}: missing field {exc}") from None
        if cfg is not None:
            if config is None:
                config, first = cfg, path
            for f in fields(PipelineConfig):
                if f.init:
                    mine, theirs, other = getattr(cfg, f.name), getattr(config, f.name), first
                else:   # a constant of the method, as this version writes it
                    mine, theirs, other = given[f.name], json.loads(json.dumps(f.default)), "this version"
                if f.name != "seed" and mine != theirs:
                    raise DdpError(
                        f"report {path} was analyzed with {f.name}={mine!r}, "
                        f"but {other} with {f.name}={theirs!r}; it cannot be pooled"
                    )
        pools.extend(p for p in file_pools if p.group_label in wanted)
    if config is None:
        config = PipelineConfig()
    if not pools:
        raise DdpError(f"no subjects in groups {wanted} across {len(files)} report files")
    stats = group_stats(pools, config)
    if args.format == "csv":
        text = group_stats_csv(stats, config)
    else:
        text = json_text(stats) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


class _Prefixed(logging.Formatter):
    """``warning: <message>``, in the form of the ``error:`` lines."""

    def format(self, record: logging.LogRecord) -> str:
        return f"{record.levelname.lower()}: {super().format(record)}"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # one handler on the package logger for this call, so the warnings of
    # every module share the prefix
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_Prefixed())
    handler.setLevel(logging.WARNING)
    package = logging.getLogger("ddp")
    package.addHandler(handler)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "stats":
            return _cmd_stats(args)
    except (DdpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        package.removeHandler(handler)
    return 1


if __name__ == "__main__":
    sys.exit(main())
