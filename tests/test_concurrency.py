"""Backend calls several at once: the outputs of one call at a time, in input order.

`adjudicate` and `eval --predictor backend` run against a mock that answers
by prompt after a delay that also depends on the prompt, so answers arrive
in another order than the calls went out. CI runs this file ten times over
to catch an ordering race that one run may miss.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time

import pytest
from conftest import load_bench_generator
from mock_backend import MockBackendServer

from ritkit.cli import main
from ritkit.client import BackendError, CallRecord, TokenBucket
from ritkit.detector import finding_key
from ritkit.evaluate import ExperimentConfig, GroundTruthEntry, run_experiment
from ritkit.hybrid import DEFAULT_ROUTED_SET, subtasks_for
from ritkit.ordered import ordered_map
from ritkit.prompts import FINE_LABELS
from ritkit.report import parse_structured

MAX_RETRIES = 1  # two attempts per call


def answer(prompt: str) -> tuple:
    """YES for about seven subtasks in ten, a label for a classification; 0-5 ms late."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    if prompt.rstrip().endswith("on the last line."):
        text = "YES" if digest[1] % 10 < 7 else "NO"
    else:
        text = FINE_LABELS[digest[1] % len(FINE_LABELS)]
    return ("slow", digest[0] % 6 / 1000, text)


def failing_after(k: int):
    """`answer` for the first `k` requests, then 503 for every one."""
    lock = threading.Lock()
    served = [0]

    def respond(prompt: str) -> tuple:
        with lock:
            served[0] += 1
            healthy = served[0] <= k
        return answer(prompt) if healthy else (503, None)

    return respond


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A structured report with 38 routed subtasks and a 12-instance mutation corpus."""
    work = tmp_path_factory.mktemp("concurrency")
    rules = work / "gen.rules"
    rules.write_text(load_bench_generator().generate_rules(1, 12, 6), encoding="utf-8")
    report = work / "report.json"
    main(["detect", str(rules), "--format", "structured", "--out", str(report)])
    corpus = work / "corpus"
    main(["mutate", "--out-dir", str(corpus), "--strategy", "sample", "--sample-n", "12", "--rng-seed", "1"])
    return {"report": report, "manifest": corpus / "manifest.jsonl"}


def run(capsys, monkeypatch, tmp_path, server, command: str, inputs: dict, jobs: int) -> dict:
    """Exit code, stdout, stderr and log bytes of one CLI run against `server`, `jobs` calls at once."""
    monkeypatch.setattr("ritkit.cli.BACKEND_JOBS", jobs)
    config = tmp_path / "config.json"
    backend = {"endpoint": server.endpoint, "model": "m", "timeout": 5.0, "max_retries": MAX_RETRIES, "backoff_base": 0}
    config.write_text(json.dumps({"backend": backend}), encoding="utf-8")
    log = tmp_path / f"log{jobs}.jsonl"
    if command == "adjudicate":
        argv = ["adjudicate", str(inputs["report"]), "--format", "structured", "--audit-log", str(log)]
    else:
        argv = ["eval", "--manifest", str(inputs["manifest"]), "--predictor", "backend", "--per-instance-log", str(log)]
    capsys.readouterr()
    code = main([*argv, "--config", str(config)])
    out, err = capsys.readouterr()
    return {"code": code, "out": out, "err": err, "log": log.read_bytes()}


def asks(report_path) -> list[tuple[int, str]]:
    """(finding index, finding key) of every subtask `adjudicate` asks, in order."""
    findings = parse_structured(report_path.read_text(encoding="utf-8")).findings
    return [
        (i, finding_key(f))
        for i, f in enumerate(findings)
        if f.category in DEFAULT_ROUTED_SET
        for _ in subtasks_for(f)
    ]


@pytest.mark.parametrize("command", ["adjudicate", "eval"])
def test_outputs_do_not_depend_on_concurrency(capsys, monkeypatch, tmp_path, inputs, command):
    runs = {}
    for jobs in (1, 4):
        with MockBackendServer(answer=answer, keep_alive=True) as server:
            runs[jobs] = run(capsys, monkeypatch, tmp_path, server, command, inputs, jobs)
        runs[jobs]["most_in_flight"] = server.most_in_flight
        runs[jobs]["connections"] = server.connections
    one, four = runs[1], runs[4]
    assert (one["most_in_flight"], one["connections"]) == (1, 1)
    assert 1 < four["most_in_flight"] <= 4 and four["connections"] <= 4
    assert one["code"] == 0 and one["log"] and not one["err"]
    assert {k: four[k] for k in ("code", "out", "err", "log")} == {k: one[k] for k in ("code", "out", "err", "log")}


@pytest.mark.parametrize("command", ["adjudicate", "eval"])
def test_a_backend_down_throughout_gets_one_failing_call(capsys, monkeypatch, tmp_path, inputs, command):
    with MockBackendServer(answer=lambda prompt: (503, None), keep_alive=True) as server:
        result = run(capsys, monkeypatch, tmp_path, server, command, inputs, 4)
    assert len(server.requests) == MAX_RETRIES + 1
    assert result["code"] == 0
    warnings = result["err"].splitlines()
    if command == "adjudicate":
        assert result["log"] == b""
        assert len(warnings) == len({key for _, key in asks(inputs["report"])})
    else:
        logs = [json.loads(line) for line in result["log"].splitlines()]
        assert [log["failure"] for log in logs] == ["backend:unavailable"] * 12
        assert len(warnings) == 12


def test_adjudication_gives_up_at_the_first_failure_in_report_order(capsys, monkeypatch, tmp_path, inputs):
    k = 12
    with MockBackendServer(answer=answer, keep_alive=True) as server:
        healthy = run(capsys, monkeypatch, tmp_path, server, "adjudicate", inputs, 1)
    with MockBackendServer(answer=failing_after(k), keep_alive=True) as server:
        result = run(capsys, monkeypatch, tmp_path, server, "adjudicate", inputs, 4)
    assert len(server.requests) <= k + 4 * (MAX_RETRIES + 1)  # at most one failing call per connection
    assert result["code"] == 0
    # The audit log is the healthy one cut at the give-up point: no answer after it is on record.
    audit = result["log"].splitlines(keepends=True)
    m = len(audit)
    assert m <= k and audit == healthy["log"].splitlines(keepends=True)[:m]
    plan = asks(inputs["report"])
    gave_up_at = plan[m][0]
    doc = json.loads(result["out"])
    assert doc["fail_open"] == sorted({key for i, key in plan if i >= gave_up_at})
    assert len(result["err"].splitlines()) == len(doc["fail_open"])
    # A finding before the give-up point with a NO on record is discarded.
    rejected = {r["finding"] for r in map(json.loads, audit) if not r["uphold"]} - set(doc["fail_open"])
    assert len(doc["discarded"]) == len(rejected)


def test_evaluation_gives_up_at_the_first_failure_in_dataset_order(capsys, monkeypatch, tmp_path, inputs):
    k = 5
    with MockBackendServer(answer=answer, keep_alive=True) as server:
        healthy = run(capsys, monkeypatch, tmp_path, server, "eval", inputs, 1)
    with MockBackendServer(answer=failing_after(k), keep_alive=True) as server:
        result = run(capsys, monkeypatch, tmp_path, server, "eval", inputs, 4)
    assert len(server.requests) <= k + 4 * (MAX_RETRIES + 1)
    assert result["code"] == 0
    logs = [json.loads(line) for line in result["log"].splitlines()]
    m = next(i for i, log in enumerate(logs) if log["failure"] is not None)
    assert m <= k and result["log"].splitlines()[:m] == healthy["log"].splitlines()[:m]
    assert [log["failure"] for log in logs[m:]] == ["backend:unavailable"] * (len(logs) - m)
    assert len(result["err"].splitlines()) == len(logs) - m


class TestOrderedMap:
    @staticmethod
    def slow_square(item: int) -> int:
        time.sleep((item * 7 % 5) / 1000)
        return item * item

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_results_come_in_input_order_with_at_most_jobs_calls_at_once(self, jobs):
        lock = threading.Lock()
        running, most, threads = [0], [0], set()

        def fn(item: int) -> int:
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
                threads.add(threading.get_ident())
            try:
                return self.slow_square(item)
            finally:
                with lock:
                    running[0] -= 1

        before = threading.active_count()
        assert list(ordered_map(fn, range(30), jobs)) == [i * i for i in range(30)]
        assert most[0] <= jobs and len(threads) <= jobs
        assert threading.active_count() == before
        if jobs == 1:
            assert threads == {threading.get_ident()}

    def test_more_workers_than_cores_run_each_item_once(self):
        calls: list[int] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so that a race shows
        try:
            results = list(ordered_map(lambda item: calls.append(item) or item, range(2000), 8))
        finally:
            sys.setswitchinterval(interval)
        assert results == list(range(2000))
        assert sorted(calls) == list(range(2000))

    def test_the_first_call_goes_out_alone(self):
        events: list[tuple[str, int]] = []

        def fn(item: int) -> int:
            events.append(("start", item))
            result = self.slow_square(item + 1)
            events.append(("end", item))
            return result

        list(ordered_map(fn, range(8), 4))
        assert events[:2] == [("start", 0), ("end", 0)]

    def test_no_call_starts_after_a_failure(self):
        started: list[int] = []
        two_failed = threading.Event()

        def fn(item: int) -> int:
            started.append(item)
            if item == 2:
                two_failed.set()
                raise RuntimeError("down")
            if item == 1:  # still running when item 2 fails
                two_failed.wait(timeout=10)
                time.sleep(0.1)  # time for the failure to be recorded
            return item

        results = []
        with pytest.raises(RuntimeError, match="down"):
            for result in ordered_map(fn, range(10), 2):
                results.append(result)
        assert results == [0, 1]
        assert sorted(started) == [0, 1, 2]

    def test_the_first_failure_in_input_order_is_raised(self):
        later_failed = threading.Event()

        def fn(item: int) -> int:
            if item == 3:
                later_failed.set()
                raise RuntimeError("later")
            if item == 2:  # fails after item 3, in time
                later_failed.wait(timeout=10)
                raise RuntimeError("first in order")
            return item

        results = []
        with pytest.raises(RuntimeError, match="first in order"):
            for result in ordered_map(fn, range(10), 4):
                results.append(result)
        assert results == [0, 1]

    def test_an_empty_input_yields_nothing(self):
        assert list(ordered_map(lambda item: item, [], 4)) == []

    def test_closing_early_starts_no_new_call(self):
        started: list[int] = []

        def fn(item: int) -> int:
            started.append(item)
            self.slow_square(item)
            return item

        results = ordered_map(fn, range(50), 4)
        assert next(results) == 0 and next(results) == 1
        results.close()
        time.sleep(0.05)  # time for the calls still running to end
        settled = list(started)
        time.sleep(0.02)
        assert started == settled and len(settled) < 50

    def test_an_interrupt_in_the_calling_thread_does_not_wait_for_the_helpers(self):
        helper_busy, release = threading.Event(), threading.Event()

        def fn(item: int) -> int:
            if item == 1:  # taken by the helper
                helper_busy.set()
                release.wait(timeout=10)
            if item == 2:  # taken by the calling thread
                raise KeyboardInterrupt
            return item

        before = threading.active_count()
        results = ordered_map(fn, range(3), 2)
        assert next(results) == 0
        assert helper_busy.wait(timeout=10)
        start = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                next(results)
            assert time.monotonic() - start < 5  # neither item 1's result nor the helper waited for
        finally:
            release.set()
        deadline = time.monotonic() + 10
        while threading.active_count() > before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before  # the helper ends once its call returns


def test_an_earlier_instance_still_running_keeps_its_own_answer(tmp_path):
    """A later instance's outage, first in time, does not stand in for an earlier call."""
    dataset = []
    for i in range(4):
        path = tmp_path / f"i{i}.rules"
        path.write_text("", encoding="utf-8")
        dataset.append(GroundTruthEntry(f"i{i}", str(path), "r1", "r2", "SAC"))
    outage = threading.Event()

    def predict(entry: GroundTruthEntry):
        if entry.instance_id == "i2":
            outage.set()
            raise BackendError("unavailable", CallRecord())
        if entry.instance_id == "i1":  # still running when i2 fails
            outage.wait(timeout=10)
            time.sleep(0.05)
        return ("SAC",)

    _, logs = run_experiment(ExperimentConfig(), dataset, predict, jobs=3)
    assert [log.failure for log in logs] == [None, None, "backend:unavailable", "backend:unavailable"]


def test_a_shared_token_bucket_never_exceeds_its_rate():
    rate = 4.0  # a power of two keeps the fake clock's sums exact
    lock = threading.Lock()
    now = [0.0]
    seen = threading.local()  # the last time each thread read, which is when its token was granted
    granted: list[float] = []

    def clock() -> float:
        with lock:
            seen.at = now[0]
            return now[0]

    def sleep(seconds: float) -> None:
        with lock:
            now[0] += seconds
        time.sleep(0)  # let the other threads in

    bucket = TokenBucket(rate_per_sec=rate, clock=clock)

    def take() -> None:
        for _ in range(10):
            bucket.acquire(sleep)
            with lock:
                granted.append(seen.at)

    threads = [threading.Thread(target=take) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    granted.sort()
    assert len(granted) == 40
    for count, at in enumerate(granted, start=1):
        assert count <= bucket.capacity + rate * at + 1e-9
