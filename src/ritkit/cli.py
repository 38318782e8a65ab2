"""Command-line entry point: detect, mutate, adjudicate and eval workflows.

Exit codes for detect: 0 clean, 1 findings present, 2 fatal error; any
unexpected exception in any subcommand is reported on one stderr line and
exits 2. Reports go to stdout (or --out), diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .evaluate import GroundTruthEntry
    from .prompts import ExperimentConfig

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_FATAL = 2

# Calls that `adjudicate` and `eval --predictor backend` keep in flight to an
# HTTP backend, each on its own kept-alive connection.
BACKEND_JOBS = 4


class _Fatal(Exception):
    """An error that ends the command: `main` prints its message and exits 2."""


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_FATAL


def _emit(text: str, out: str | None) -> None:
    """Write `text` to the file `out`, or to stdout when there is none."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _Fatal(f"cannot write {out}: {exc.strerror or exc}") from exc


def _categories(value: str | None, flag: str, default: tuple):
    """The categories that the comma-separated `flag` names, each once; `default` when it is absent."""
    from .detector import CATEGORY_ORDER, FineCategory

    if value is None:
        return default
    names, known = value.split(","), [c.value for c in CATEGORY_ORDER]
    for k, name in enumerate(names):
        if name not in known:
            raise _Fatal(f"unknown category: {flag} names {name!r} ({', '.join(known)})")
        if name in names[:k]:
            raise _Fatal(f"{flag} names {name} twice")
    return tuple(map(FineCategory, names))


def _check_label(label: str, what: str, args: argparse.Namespace, config: ExperimentConfig) -> None:
    if label not in config.labels:
        raise _Fatal(f"{what} is not a label of cell {args.experiment or 'A'} ({', '.join(config.labels)})")


def _collect_rules_files(paths: list[str] | list[Path]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.rules")))
        elif p.exists():
            files.append(p)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return files


# ---------------------------------------------------------------------------
# detect


def cmd_detect(args: argparse.Namespace) -> int:
    from .detector import detect_file
    from .parser import parse_ruleset
    from .report import render_structured, render_structured_lines, render_text
    from .source import SourceFile

    try:
        files = _collect_rules_files(args.paths)
    except FileNotFoundError as exc:
        return _fail(str(exc))
    if not files:
        return _fail("no .rules files found")

    reports = []
    for path in files:
        try:
            source = SourceFile.from_path(path)
        except (OSError, UnicodeDecodeError) as exc:
            return _fail(f"cannot read {path}: {exc}")
        ruleset = parse_ruleset(source)
        for diag in ruleset.diagnostics:
            print(f"{path}:{diag.line}:{diag.col}: {diag.severity}: {diag.message}", file=sys.stderr)
        reports.append(detect_file(ruleset, strict=not args.lenient_matching))

    if args.format == "text":
        body = "\n".join(render_text(r) for r in reports)
    elif len(reports) == 1:
        body = render_structured(reports[0])
    else:
        body = render_structured_lines(reports)
    _emit(body, args.out)
    return EXIT_FINDINGS if any(r.total for r in reports) else EXIT_CLEAN


# ---------------------------------------------------------------------------
# mutate


def cmd_mutate(args: argparse.Namespace) -> int:
    from .detector import CATEGORY_ORDER
    from .mutate import Exhaustive, MutationError, Sample, Seed, bundled_seed_paths, generate_corpus

    if args.strategy == "sample":
        if args.sample_n is None or args.rng_seed is None:
            return _fail("--strategy sample requires --sample-n and --rng-seed")
        if args.sample_n < 0:
            return _fail(f"--sample-n must be >= 0, not {args.sample_n}")
        strategy = Sample(args.sample_n, args.rng_seed)
    else:
        for flag, value in (("--sample-n", args.sample_n), ("--rng-seed", args.rng_seed)):
            if value is not None:
                return _fail(f"{flag} needs --strategy sample")
        strategy = Exhaustive()
    operators = _categories(args.operators, "--operators", CATEGORY_ORDER)

    try:
        seeds = [Seed.load(path) for path in _collect_rules_files(args.seeds or bundled_seed_paths())]
        manifest = generate_corpus(
            seeds,
            strategy,
            args.out_dir,
            operators=operators,
            post_update_cascades=args.post_update_cascades,
        )
    except (MutationError, OSError) as exc:
        return _fail(str(exc))
    totals = manifest.totals()
    print(f"wrote {len(manifest.records)} mutants to {args.out_dir}", file=sys.stderr)
    print(json.dumps({"totals": totals, "manifest": str(Path(args.out_dir) / 'manifest.jsonl')}))
    return EXIT_CLEAN


# ---------------------------------------------------------------------------
# adjudicate


def _make_adjudicator(args: argparse.Namespace):
    """The adjudicator, and its HTTP backend (None for a stub)."""
    from .client import HttpBackend, StubAdjudicator
    from .records import loads

    if args.stub:
        if args.stub in ("accept-all", "reject-all"):
            return StubAdjudicator(args.stub), None
        if args.stub.startswith("table:"):
            table_path = args.stub.split(":", 1)[1]
            try:
                table = loads(Path(table_path).read_text(encoding="utf-8"), dict[str, bool])
            except (OSError, ValueError) as exc:
                raise ValueError(f"cannot load table stub {table_path}: {exc}") from exc
            return StubAdjudicator("table", table=table), None
        raise ValueError(f"unknown stub policy: {args.stub}")
    from .config import load_config
    from .hybrid import ModelAdjudicator

    backend_config = load_config(args.config).backend if args.config else None
    if backend_config is None:
        raise ValueError("no backend configured; pass --stub or a config with a backend")
    backend = HttpBackend(backend_config)
    return ModelAdjudicator(backend), backend


def cmd_adjudicate(args: argparse.Namespace) -> int:
    try:
        adjudicator, backend = _make_adjudicator(args)
    except (OSError, ValueError) as exc:  # a bad config (ConfigError), stub table or endpoint
        return _fail(str(exc))
    try:
        return _reconcile(args, adjudicator, BACKEND_JOBS if backend else 1)
    finally:
        if backend is not None:
            backend.close()


def _reconcile(args: argparse.Namespace, adjudicator, jobs: int) -> int:
    from .hybrid import DEFAULT_ROUTED_SET, run_pipeline
    from .records import dump_records
    from .report import finding_to_json, parse_structured, render_text, report_to_json

    try:
        report = parse_structured(Path(args.report).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return _fail(f"cannot load report {args.report}: {exc}")
    routed = frozenset(_categories(args.routed, "--routed", DEFAULT_ROUTED_SET))
    try:
        result = run_pipeline(report, adjudicator, routed, jobs)
    except KeyError as exc:  # a table stub without an entry for a routed finding
        return _fail(f"{args.stub.removeprefix('table:')}: {exc.args[0]}")

    if args.audit_log:
        _emit(dump_records(result.audit), args.audit_log)
    for ref in result.fail_open_refs:
        print(f"warning: adjudicator unavailable, fail-open kept finding {ref}", file=sys.stderr)

    if args.format == "text":
        body = render_text(result.final)
    else:
        doc = report_to_json(result.final)
        doc["discarded"] = [finding_to_json(f) for f in result.discarded]
        doc["fail_open"] = list(result.fail_open_refs)
        body = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _emit(body, args.out)
    return EXIT_CLEAN


# ---------------------------------------------------------------------------
# eval


# The optional flags that each `eval` input reads, `--manifest` being required where read; any other is refused.
# `--predictor constant:<LABEL>` is one input whatever its label.
_SCORED = ("--manifest", "--experiment", "--per-instance-log")
EVAL_READS = {
    "--replay": (),
    "--predictions": _SCORED,
    "--predictor echo": _SCORED,
    "--predictor constant:": _SCORED,
    "--predictor detector": (*_SCORED, "--lenient-matching"),
    "--predictor backend": (*_SCORED, "--shots", "--config"),
}


def _predictor_from_spec(args: argparse.Namespace, dataset: list[GroundTruthEntry], config: ExperimentConfig):
    """The `--predictor` (one that `EVAL_READS` names), and its HTTP backend (None for the others)."""
    from .evaluate import backend_predictor, constant_predictor, detector_predictor, echo_predictor

    spec = args.predictor
    if spec == "echo":
        return echo_predictor(dataset, config.taxonomy), None
    if spec.startswith("constant:"):
        label = spec.split(":", 1)[1]
        _check_label(label, spec, args, config)
        return constant_predictor(label), None
    if spec == "detector":
        return detector_predictor(config.taxonomy, strict=not args.lenient_matching), None
    from .client import HttpBackend  # `backend`, the one spec left
    from .config import load_config

    backend = load_config(args.config).backend if args.config else None  # a bad config is a ConfigError
    if backend is None:
        raise ValueError("--predictor backend needs a config file with a backend section")
    http = HttpBackend(backend)
    return backend_predictor(config, http), http


def cmd_eval(args: argparse.Namespace) -> int:
    from .evaluate import (
        EXPERIMENT_CELLS,
        load_ground_truth,
        load_predictions,
        load_replay,
        metrics_from_logs,
        render_metrics_table,
        run_experiment,
    )
    from .prompts import BACKEND_FAILURE, ExperimentConfig
    from .records import dump_records

    given = "--replay" if args.replay else "--predictions" if args.predictions else f"--predictor {args.predictor}"
    head, colon, _ = given.partition(":")
    reads = EVAL_READS.get(head + colon)
    if reads is None:
        return _fail(f"unknown predictor: {args.predictor}")
    for flag in sorted({flag for flags in EVAL_READS.values() for flag in flags}):
        if flag not in reads and getattr(args, flag[2:].replace("-", "_")) not in (None, False):
            return _fail(f"{given} does not read {flag}; drop it")
    if "--manifest" in reads and not args.manifest:
        return _fail(f"{given} needs --manifest")

    if args.replay:
        try:
            logs, labels = load_replay(args.replay)
        except (OSError, ValueError) as exc:
            return _fail(f"cannot load replay log {args.replay}: {exc}")
        if not logs:
            return _fail("replay log is empty")
        print(render_metrics_table(metrics_from_logs(logs), labels, name="replay"))
        return EXIT_CLEAN

    cell = EXPERIMENT_CELLS[args.experiment or "A"]
    config = ExperimentConfig(cell.taxonomy, cell.multi_response, args.shots or 0)
    try:
        dataset = load_ground_truth(args.manifest)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot load manifest {args.manifest}: {exc}")
    if not dataset:
        return _fail("manifest is empty")

    if args.predictions:
        try:
            predictions = load_predictions(args.predictions)
        except (OSError, ValueError) as exc:
            return _fail(f"cannot load predictions {args.predictions}: {exc}")
        dataset_ids = {e.instance_id for e in dataset}
        orphans = sorted(set(predictions) ^ dataset_ids)
        if orphans:
            print("error: manifest/prediction id mismatch:", file=sys.stderr)
            for orphan in orphans:
                print(f"  {orphan}", file=sys.stderr)
            return EXIT_FATAL
        for instance_id, labels in predictions.items():
            for label in labels:
                _check_label(label, f"{label!r} (instance {instance_id} of {args.predictions})", args, config)
        predictor = lambda entry: predictions[entry.instance_id]  # noqa: E731
        backend = None
    else:
        try:
            predictor, backend = _predictor_from_spec(args, dataset, config)
        except ValueError as exc:  # a bad backend config (ConfigError)
            return _fail(str(exc))

    try:
        row, logs = run_experiment(config, dataset, predictor, BACKEND_JOBS if backend else 1)
    except OSError as exc:  # an instance file the manifest names, missing, not UTF-8 or empty for a backend
        return _fail(f"cannot read instance file {exc.filename}: {exc.strerror}")
    finally:
        if backend is not None:
            backend.close()
    for log in logs:
        if log.failure and log.failure.startswith(BACKEND_FAILURE):
            print(f"warning: {log.failure} on instance {log.instance_id}, scored as a parse failure", file=sys.stderr)
    if args.per_instance_log:
        _emit(dump_records(logs), args.per_instance_log)
    print(render_metrics_table(row, config.labels, name=args.predictor or "predictions"))
    return EXIT_CLEAN


# ---------------------------------------------------------------------------


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ritkit", description="Rule interaction threat toolkit")
    parser.add_argument("--version", action="version", version=f"ritkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="analyze .rules files and report threats")
    p.add_argument("paths", nargs="+", help=".rules files or directories (recursed)")
    p.add_argument("--format", choices=("text", "structured"), default="text", help="report format")
    p.add_argument("--out", help="write the report to a file instead of stdout")
    p.add_argument("--lenient-matching", action="store_true", help="let postUpdate fire received-command triggers")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("mutate", help="generate a mutation corpus from benign seeds")
    p.add_argument("seeds", nargs="*", help="seed .rules files or directories (default: bundled seeds)")
    p.add_argument("--out-dir", required=True, help="directory for mutant files and manifest.jsonl")
    p.add_argument("--operators", help="comma-separated operator subset (default: all six)")
    p.add_argument("--strategy", choices=("exhaustive", "sample"), default="exhaustive", help="pair selection strategy")
    p.add_argument("--sample-n", type=int, help="number of mutants for --strategy sample")
    p.add_argument("--rng-seed", type=int, help="explicit RNG seed for --strategy sample")
    p.add_argument(
        "--post-update-cascades",
        action="store_true",
        help="emit postUpdate cascade variants (missed under strict matching)",
    )
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("adjudicate", help="reconcile a structured detector report")
    p.add_argument("report", help="structured report produced by `detect --format structured`")
    adjudicator = p.add_mutually_exclusive_group()
    adjudicator.add_argument("--stub", help="offline adjudicator: accept-all | reject-all | table:<json-path>")
    adjudicator.add_argument("--config", help="path to a JSON tool config (backend settings live here)")
    p.add_argument("--routed", help="comma-separated categories to adjudicate (default WAC,WTC)")
    p.add_argument("--audit-log", help="write per-subtask audit records (JSONL) here")
    p.add_argument("--format", choices=("text", "structured"), default="text", help="final report format")
    p.add_argument("--out", help="write the final report to a file instead of stdout")
    p.set_defaults(func=cmd_adjudicate)

    p = sub.add_parser("eval", help="score predictions against a ground-truth manifest")
    p.add_argument("--manifest", help="ground-truth JSONL (mutation manifest.jsonl converts directly)")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--predictions", help="JSONL of {instance_id, labels} predictions")
    mode.add_argument("--predictor", help="predictor: echo | detector | constant:<LABEL> | backend")
    mode.add_argument("--replay", help="recompute metrics from a per-instance log")
    p.add_argument("--experiment", choices=("A", "B", "C", "D"), help="preset cell: A/B six-class, C/D three-class")
    p.add_argument("--shots", type=int, choices=(0, 1, 2), help="examples per category in backend prompts (default 0)")
    p.add_argument("--lenient-matching", action="store_true", help="detector predictor uses lenient event matching")
    p.add_argument("--per-instance-log", help="write the replayable per-instance log here")
    p.add_argument("--config", help="path to a JSON tool config (backend predictor settings)")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Fatal as exc:
        return _fail(str(exc))
    except Exception as exc:  # the exit-code contract: never exit 1 on a crash
        return _fail(f"{type(exc).__name__}: {exc}".replace("\n", " "))


if __name__ == "__main__":
    sys.exit(main())
