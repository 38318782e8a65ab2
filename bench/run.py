"""ritkit benchmark: seeded workloads through the `ritkit` CLI, checked and timed.

    python3 bench/run.py --workload detect-sparse --seed 1 --seconds 20 --trace 0

With `--trace 0` each workload's CLI commands run in subprocesses, one after
another, for `--seconds` seconds after one warm-up round; every output is
checked and the end-to-end metrics are medians over the rounds. With
`--trace 1` the same work runs in-process through ritkit's public functions,
alternating untraced and traced passes, and the per-layer metrics come from
the spans of the traced passes (see `tracing.py`). The last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`; a
readable summary goes to stderr.

An operation is one CLI command (or one in-process pass when tracing). It
fails on a wrong exit code or a failed output check; an adjudication that
keeps a finding by fail-open fails its check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import selectors
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from gen import generate_rules
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK_ROOT = BENCH / "_work"

MIN_ROUNDS = 3
MIN_TRACE_PASSES = 2
MOCK_DELAY_MS = 5.0
MOCK_START_TIMEOUT_S = 30.0

# Subprocesses see the checkout's sources and a fixed hash seed, so set and
# dict layouts, and with them timings, do not vary between rounds.
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
               PYTHONHASHSEED="0")


# ---------------------------------------------------------------------------
# Running the CLI


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str


def run_cli(args: list[str], work: Path) -> Proc:
    """One `ritkit` command in a subprocess, with its own rusage."""
    out_path = work / "stdout.txt"
    with open(out_path, "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ritkit.cli", *map(str, args)],
                                stdout=out, stderr=err, env=CLI_ENV, cwd=work)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                out_path.read_text(encoding="utf-8"))


# Checks an in-process pass's outputs after its timing; returns the problems found.
Check = Callable[[], list[str]]


@dataclass
class Round:
    procs: list[Proc] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    units: int = 0

    def run(self, args: list[str], work: Path) -> Proc:
        proc = run_cli(args, work)
        self.procs.append(proc)
        return proc


# ---------------------------------------------------------------------------
# The mock backend process


class Mock:
    """The delayed mock backend in its own process."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "chat_mock.py"), "--delay-ms", str(MOCK_DELAY_MS)],
                                     stdout=subprocess.PIPE, text=True)
        try:
            with selectors.DefaultSelector() as sel:
                sel.register(self.proc.stdout, selectors.EVENT_READ)
                if not sel.select(MOCK_START_TIMEOUT_S):
                    raise RuntimeError("mock backend did not start")
            line = self.proc.stdout.readline()
            if not line.startswith("PORT "):
                raise RuntimeError(f"mock backend did not report its port: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.port = int(line.split()[1])

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.port}/v1/chat/completions"

    def stats(self) -> dict[str, int]:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Workloads


def _import_ritkit() -> None:
    """Import ritkit (and the test oracle) from the checkout, for set-up, checks and in-process runs."""
    sys.path[:0] = [str(SRC)]
    sys.path.append(str(ROOT / "tests"))  # last, so its modules shadow none of ours
    import ritkit.cli  # noqa: F401  (loads every module the CLI uses)


def _parsed(path: Path):
    """A generated input parsed by ritkit; set-up refuses one with diagnostics."""
    ritkit = sys.modules["ritkit"]
    ruleset = ritkit.parser.parse_ruleset(ritkit.source.SourceFile.from_path(path))
    if ruleset.diagnostics:
        raise RuntimeError(f"{path.name} does not parse cleanly: {ruleset.diagnostics[0].message}")
    return ruleset


def _seed_groups(seed: int, work: Path, size: int) -> Path:
    """The bundled seed rulesets, shuffled by `seed`, concatenated `size` to a file."""
    texts = [p.read_text(encoding="utf-8") for p in sorted((SRC / "ritkit" / "seeds").glob("*.rules"))]
    random.Random(f"seeds:{seed}").shuffle(texts)
    out = work / "seeds"
    out.mkdir()
    for k in range(0, len(texts), size):
        (out / f"group{k // size:02d}.rules").write_text("\n".join(texts[k:k + size]), encoding="utf-8")
    return out


def _quantile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class DetectWorkload:
    """`ritkit detect` on one generated file, with the text report."""

    unit = "rule pairs"

    def __init__(self, n_rules: int, n_items: int) -> None:
        self.n_rules, self.n_items = n_rules, n_items

    def setup(self, work: Path, seed: int) -> dict:
        path = work / "input.rules"
        path.write_text(generate_rules(seed, self.n_rules, self.n_items), encoding="utf-8")
        return {"path": path, "ruleset": _parsed(path)}

    def prepare(self, state: dict) -> None:
        import oracle

        if len(state["ruleset"].rules) != self.n_rules:
            raise RuntimeError("generated input lost rules")
        state["expected"] = oracle.oracle_detect_file(state["ruleset"])

    def round(self, state: dict, work: Path) -> Round:
        rnd = Round(units=self.n_rules * (self.n_rules - 1) // 2)
        proc = rnd.run(["detect", state["path"]], work)
        rnd.problems += checks.check_detect(proc.code, proc.stdout, state["expected"])
        return rnd

    def in_process(self, state: dict, tracer: Tracer | None) -> Check:
        ritkit = sys.modules["ritkit"]
        source = ritkit.source.SourceFile.from_path(state["path"])
        report = ritkit.detector.detect_file(ritkit.parser.parse_ruleset(source))
        body = ritkit.report.render_text(report)
        return lambda: checks.check_detect(1 if report.total else 0, body, state["expected"])

    def teardown(self, state: dict) -> None:
        pass


class MutateEvalWorkload:
    """Exhaustive `ritkit mutate` over the bundled seeds, two to a file, then `eval`."""

    unit = "mutants"

    def setup(self, work: Path, seed: int) -> dict:
        seeds = _seed_groups(seed, work, 2)
        for path in seeds.iterdir():
            _parsed(path)
        return {"seeds": seeds, "corpus": work / "corpus"}

    def prepare(self, state: dict) -> None:
        state["mutants"] = None  # set by the first round or pass

    def round(self, state: dict, work: Path) -> Round:
        corpus = state["corpus"]
        shutil.rmtree(corpus, ignore_errors=True)
        rnd = Round()
        proc = rnd.run(["mutate", state["seeds"], "--out-dir", corpus], work)
        manifest = corpus / "manifest.jsonl"
        lines = manifest.read_text(encoding="utf-8").splitlines() if manifest.exists() else []
        rnd.problems += checks.check_mutate(proc.code, proc.stdout, lines, len(list(corpus.glob("*.rules"))))
        rnd.units = len(lines)
        # The mutant count is a property of the input: every round must repeat it.
        if state["mutants"] is None:
            state["mutants"] = len(lines)
        elif len(lines) != state["mutants"]:
            rnd.problems.append(f"{len(lines)} mutants, the first round made {state['mutants']}")
        truths = [json.loads(line)["operator"] for line in lines]
        proc = rnd.run(["eval", "--manifest", manifest, "--predictor", "detector"], work)
        rnd.problems += checks.check_eval_table(proc.code, proc.stdout, truths, truths)
        return rnd

    def in_process(self, state: dict, tracer: Tracer | None) -> Check:
        ritkit = sys.modules["ritkit"]
        mutate, evaluate = ritkit.mutate, ritkit.evaluate
        shutil.rmtree(state["corpus"], ignore_errors=True)
        seeds = [mutate.Seed.load(p) for p in sorted(state["seeds"].glob("*.rules"))]
        manifest = mutate.generate_corpus(seeds, mutate.Exhaustive(), state["corpus"])
        dataset = evaluate.ground_truth_from_manifest(manifest)
        row, _ = evaluate.run_experiment(evaluate.ExperimentConfig(), dataset, evaluate.detector_predictor())
        state["mutants"] = state["mutants"] or len(manifest.records)
        ok = row.overall == 1 and not row.parse_failures and len(manifest.records) == state["mutants"]
        return lambda: [] if ok else [f"in-process corpus of {len(manifest.records)} mutants scored {row.overall}"]

    def teardown(self, state: dict) -> None:
        pass


class BackendWorkload:
    """`ritkit adjudicate` and `ritkit eval --predictor backend` against the mock.

    The report is cut after the finding that brings its routed subtasks to
    `n_subtasks`, so that every seed asks the backend the same number of
    questions.
    """

    unit = "backend calls"

    def __init__(self, n_rules: int, n_items: int, n_subtasks: int, n_sampled: int) -> None:
        self.n_rules, self.n_items, self.n_subtasks, self.n_sampled = n_rules, n_items, n_subtasks, n_sampled

    def setup(self, work: Path, seed: int) -> dict:
        mock = Mock()
        try:
            config = work / "config.json"
            config.write_text(json.dumps({"backend": {"endpoint": mock.endpoint, "model": "mock"}}), encoding="utf-8")
            rules = work / "home.rules"
            rules.write_text(generate_rules(seed, self.n_rules, self.n_items), encoding="utf-8")
            report = work / "report.json"
            made = run_cli(["detect", rules, "--format", "structured", "--out", report], work)
            if made.code == 1:
                self._cut(report)
            corpus = work / "corpus"
            sampled = run_cli(["mutate", _seed_groups(seed, work, 3), "--out-dir", corpus, "--strategy", "sample",
                               "--sample-n", self.n_sampled, "--rng-seed", seed], work)
            if made.code != 1 or sampled.code != 0:
                raise RuntimeError(f"setup commands exited {made.code} and {sampled.code}")
        except BaseException:
            mock.stop()
            raise
        return {"mock": mock, "config": config, "report": report, "manifest": corpus / "manifest.jsonl"}

    def _cut(self, report: Path) -> None:
        doc = json.loads(report.read_text(encoding="utf-8"))
        kept, need = [], self.n_subtasks
        for finding in doc["findings"]:
            if need == 0:
                break
            asks = len(checks.ROUTED_SUBTASKS.get(finding["category"], ()))
            if asks <= need:
                kept.append(finding)
                need -= asks
        if need:
            raise RuntimeError(f"the report asks fewer than {self.n_subtasks} subtasks")
        doc["findings"] = kept
        doc["counts"] = {cat: sum(f["category"] == cat for f in kept) for cat in doc["counts"]}
        report.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    def prepare(self, state: dict) -> None:
        state["report_doc"] = json.loads(state["report"].read_text(encoding="utf-8"))
        records = [json.loads(line) for line in state["manifest"].read_text(encoding="utf-8").splitlines()]
        state["truths"] = [r["operator"] for r in records]
        state["labels"] = checks.predicted_labels([Path(r["output_path"]).read_text(encoding="utf-8") for r in records])
        state["calls"] = checks.subtask_count(state["report_doc"]) + len(records)

    def round(self, state: dict, work: Path) -> Round:
        mock = state["mock"]
        rnd = Round(units=state["calls"])
        before = mock.stats()
        proc = rnd.run(["adjudicate", state["report"], "--config", state["config"], "--format", "structured"], work)
        rnd.problems += checks.check_adjudicate(proc.code, proc.stdout, state["report_doc"])
        proc = rnd.run(["eval", "--manifest", state["manifest"], "--predictor", "backend", "--config", state["config"]],
                       work)
        rnd.problems += checks.check_eval_table(proc.code, proc.stdout, state["truths"], state["labels"])
        served = mock.stats()["requests"] - before["requests"]
        if served != state["calls"]:
            rnd.problems.append(f"the mock served {served} requests, expected {state['calls']}")
        return rnd

    def in_process(self, state: dict, tracer: Tracer | None) -> Check:
        ritkit = sys.modules["ritkit"]
        hybrid, evaluate, client = ritkit.hybrid, ritkit.evaluate, ritkit.client
        report = ritkit.report.parse_structured(state["report"].read_text(encoding="utf-8"))
        backend = ritkit.config.load_config(state["config"]).backend
        stub = client.StubAdjudicator("accept-all")
        if tracer is not None:
            tracer.count(stub, "answer_subtask", "hybrid.subtasks")
        with tracer.span("bench.stub_adjudicate") if tracer else contextlib.nullcontext():
            hybrid.run_pipeline(report, stub)
        before = state["mock"].stats()
        result = hybrid.run_pipeline(report, hybrid.ModelAdjudicator(client.HttpBackend(backend)))
        ritkit.report.render_structured(result.final)
        dataset = evaluate.ground_truth_from_manifest(ritkit.mutate.MutantManifest.load(state["manifest"]))
        predictor = evaluate.backend_predictor(ritkit.prompts.PromptTemplate(), client.HttpBackend(backend))
        _, logs = evaluate.run_experiment(evaluate.ExperimentConfig(), dataset, predictor)
        after = state["mock"].stats()
        if tracer is not None:
            tracer.counts["mock.requests"] = after["requests"] - before["requests"]
            tracer.counts["mock.connections"] = after["connections"] - before["connections"]

        def check() -> list[str]:
            to_json = ritkit.report.finding_to_json
            doc = {"findings": [to_json(f) for f in result.final.findings],
                   "discarded": [to_json(f) for f in result.discarded], "fail_open": list(result.fail_open_refs)}
            problems = checks.check_adjudicate(0, json.dumps(doc), state["report_doc"])
            if [log.labels[0] if log.labels else None for log in logs] != state["labels"]:
                problems.append("in-process backend eval labels differ from the predicted ones")
            return problems

        return check

    def teardown(self, state: dict) -> None:
        state["mock"].stop()


WORKLOADS = {
    "detect-sparse": lambda: DetectWorkload(n_rules=200, n_items=2000),
    "mutate-eval": MutateEvalWorkload,
    "backend-adjudicate": lambda: BackendWorkload(n_rules=60, n_items=60, n_subtasks=100, n_sampled=12),
}


# ---------------------------------------------------------------------------
# Measuring


def _until(seconds: float, at_least: int):
    """Yield while the next step, as long as the median step so far, ends within `seconds`."""
    start = time.perf_counter()
    steps: list[float] = []
    while len(steps) < at_least or time.perf_counter() - start + statistics.median(steps) <= seconds:
        began = time.perf_counter()
        yield len(steps)
        steps.append(time.perf_counter() - began)


def _timed_setup(workload, work: Path, seed: int) -> tuple[dict, float]:
    work.mkdir()
    start = time.perf_counter()
    state = workload.setup(work, seed)
    return state, time.perf_counter() - start


def measure_end_to_end(workload, state: dict, work: Path, seed: int, seconds: float,
                       first_setup: float) -> tuple[dict, int, int]:
    """Rounds of CLI commands until `seconds` pass; medians over the rounds.

    Before each round the workload is set up again, into a directory of its
    own that is torn down unused, so that `setup_s` is a median of set-ups
    spread over the run rather than taken in one burst.
    """
    setups = [first_setup]
    rounds: list[Round] = []
    warmup = workload.round(state, work)  # fills bytecode and file caches
    for k in _until(seconds, MIN_ROUNDS):
        extra, took = _timed_setup(workload, work / f"setup{k + 1}", seed)
        workload.teardown(extra)
        setups.append(took)
        rounds.append(workload.round(state, work))
    report_problems([p for r in [warmup, *rounds] for p in r.problems])
    attempted = sum(len(r.procs) for r in [warmup, *rounds])
    walls = [sum(p.wall for p in r.procs) for r in rounds]
    samples = {
        "wall_s": walls,
        "units_per_s": [r.units / w for r, w in zip(rounds, walls)],
        "cpu_s": [sum(p.cpu for p in r.procs) for r in rounds],
        "peak_rss_mb": [max(p.rss_mb for p in r.procs) for r in rounds],
        "setup_s": setups,
    }
    return samples, attempted, sum(1 for r in [warmup, *rounds] if r.problems)


def _layer_metrics(tracer: Tracer) -> dict[str, float]:
    own = tracer.self_times()
    counts = tracer.counts
    mutate_spans = tracer.below("mutate.generate_corpus")
    inside = [s.name for s in tracer.spans if s.id in mutate_spans]
    mutants = counts["mutate.mutants"]
    calls = tracer.durations("client.complete")
    call_ms = [d * 1000 for d in calls]
    detector_s = own.get("detector", 0.0)
    return {
        "lexer.s": own.get("lexer", 0.0),
        "lexer.tokens": counts["lexer.tokens"],
        "parser.s": own.get("parser", 0.0),
        "parser.rules": counts["parser.rules"],
        "detector.s": detector_s,
        "detector.pairs": counts["detector.pairs"],
        "detector.us_per_pair": detector_s / counts["detector.pairs"] * 1e6 if counts["detector.pairs"] else 0.0,
        "detector.findings": counts["detector.findings"],
        "report.text_s": sum(tracer.durations("report.render_text")),
        "report.structured_s": sum(tracer.durations("report.render_structured")),
        "report.bytes": counts["report.bytes"],
        "mutate.apply_s.p50": _quantile(tracer.durations("mutate.apply_operator"), 50),
        "mutate.apply_s.p99": _quantile(tracer.durations("mutate.apply_operator"), 99),
        "mutate.mutants": mutants,
        "mutate.detect_calls_per_mutant": inside.count("detector.mutate_detect") / mutants if mutants else 0.0,
        "mutate.parse_calls_per_mutant": inside.count("parser.mutate_parse") / mutants if mutants else 0.0,
        "evaluate.s": own.get("evaluate", 0.0),
        "evaluate.instances": counts["evaluate.instances"],
        "hybrid.s": tracer.self_times(within="bench.stub_adjudicate").get("hybrid", 0.0),
        "hybrid.subtasks": counts["hybrid.subtasks"],
        "prompts.build_s": sum(tracer.durations("prompts.build_prompt")),
        "prompts.parse_s": sum(tracer.durations("prompts.parse_model_response")),
        "client.calls": len(calls),
        "client.call_ms.p50": _quantile(call_ms, 50),
        "client.call_ms.p99": _quantile(call_ms, 99),
        "client.overhead_ms.p50": _quantile(call_ms, 50) - MOCK_DELAY_MS if calls else 0.0,
        "client.attempts_per_call": counts["client.attempts"] / len(calls) if calls else 0.0,
        "client.requests_per_connection": (counts["mock.requests"] / counts["mock.connections"]
                                           if counts["mock.connections"] else 0.0),
        "trace.spans": len(tracer.spans),
    }


def _instrument(tracer: Tracer, ritkit) -> None:
    """Wrap the public functions at each module boundary that the workloads cross."""
    counts = tracer.counts

    def add(counter, size):
        return lambda result: counts.__setitem__(counter, counts[counter] + size(result))

    source = ritkit.source.SourceFile
    tracer.wrap(source, "from_path", "lexer.read_source")
    tracer.wrap(source, "from_text", "lexer.index_source")
    tracer.wrap(ritkit.parser, "tokenize", "lexer.tokenize", add("lexer.tokens", len))
    for owner, name in ((ritkit.parser, "parser.parse_ruleset"), (ritkit.mutate, "parser.mutate_parse")):
        tracer.wrap(owner, "parse_ruleset", name, add("parser.rules", lambda rs: len(rs.rules)))
    for owner, name in ((ritkit.detector, "detector.detect_file"), (ritkit.mutate, "detector.mutate_detect")):
        tracer.wrap(owner, "detect_file", name, add("detector.findings", lambda rep: rep.total))
    tracer.count(ritkit.detector, "detect_pair", "detector.pairs")
    for render in ("render_text", "render_structured"):
        tracer.wrap(ritkit.report, render, f"report.{render}", add("report.bytes", lambda body: len(body.encode())))
    tracer.wrap(ritkit.mutate, "generate_corpus", "mutate.generate_corpus",
                add("mutate.mutants", lambda manifest: len(manifest.records)))
    tracer.wrap(ritkit.mutate, "apply_operator", "mutate.apply_operator")
    tracer.wrap(ritkit.evaluate, "run_experiment", "evaluate.run_experiment",
                add("evaluate.instances", lambda result: len(result[1])))
    tracer.wrap(ritkit.hybrid, "run_pipeline", "hybrid.run_pipeline")
    tracer.wrap(ritkit.hybrid, "recover_negatives", "hybrid.recover_negatives")
    tracer.wrap(ritkit.hybrid, "build_prompt", "prompts.build_prompt")
    tracer.wrap(ritkit.hybrid, "parse_model_response", "prompts.parse_model_response")
    tracer.wrap(ritkit.client, "complete", "client.complete", add("client.attempts", lambda r: len(r[1].attempts)))


def measure_traced(workload, state: dict, seconds: float, run_id: str) -> tuple[dict, int, int, Tracer]:
    """Alternate untraced and traced in-process passes until `seconds` pass."""
    ritkit = sys.modules["ritkit"]
    outcomes = [workload.in_process(state, None)()]  # warm-up
    plain, traced, layers = [], [], []
    for _ in _until(seconds, MIN_TRACE_PASSES):
        t0 = time.perf_counter()
        check = workload.in_process(state, None)
        plain.append(time.perf_counter() - t0)
        outcomes.append(check())
        tracer = Tracer(f"{run_id}-pass{len(traced)}")
        _instrument(tracer, ritkit)
        try:
            t0 = time.perf_counter()
            check = workload.in_process(state, tracer)
            traced.append(time.perf_counter() - t0)
        finally:
            tracer.unwrap()
        outcomes.append(check())
        layers.append(_layer_metrics(tracer))
    report_problems([p for problems in outcomes for p in problems])
    samples = {name: [layer[name] for layer in layers] for name in layers[0]}
    samples["trace.overhead_s"] = [statistics.median(traced) - statistics.median(plain)]
    return samples, len(outcomes), sum(1 for problems in outcomes if problems), tracer


def report_problems(problems: list[str]) -> None:
    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Entry point


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from spans")
    args = parser.parse_args(argv)
    if not (SRC / "ritkit" / "cli.py").is_file() or not (ROOT / "tests" / "oracle.py").is_file():
        print(f"error: no ritkit checkout around {BENCH} (need src/ritkit and tests/oracle.py)", file=sys.stderr)
        return 2
    print(f"python {platform.python_version()} on {platform.machine()}, {os.cpu_count()} cpus", file=sys.stderr)
    _import_ritkit()

    workload = WORKLOADS[args.workload]()
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    state = None
    try:
        state, took = _timed_setup(workload, work / "setup0", args.seed)
        workload.prepare(state)
        if args.trace:
            run_id = f"{args.workload}-{args.seed}"
            samples, attempted, failed, tracer = measure_traced(workload, state, args.seconds, run_id)
            tracer.write(WORK_ROOT / f"trace-{run_id}.jsonl")
        else:
            samples, attempted, failed = measure_end_to_end(workload, state, work, args.seed, args.seconds, took)
    finally:
        if state is not None:
            workload.teardown(state)
        shutil.rmtree(work, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(samples):
        raise RuntimeError(f"measured metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(samples))}")
    metrics = {}
    for name in units:
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": units[name]}
        print(f"{name:32} {metrics[name]['value']:14.6g} {units[name]:6} (median of {len(values)}, "
              f"range {min(values):.6g}..{max(values):.6g})", file=sys.stderr)
    print(f"{args.workload}: {attempted} operations, {failed} failed ({failed / attempted:.4f} failed_ratio), "
          f"units are {workload.unit}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
