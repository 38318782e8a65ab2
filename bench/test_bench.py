"""Self-tests of the benchmark: inputs, mock and output checks.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import re
import sys
import time
import urllib.request
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]
sys.path.append(str(ROOT / "tests"))

import checks  # noqa: E402
import chat_mock  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from gen import generate_rules  # noqa: E402
from ritkit import SourceFile, detect_file, parse_ruleset  # noqa: E402
from ritkit.evaluate import ExperimentConfig, GroundTruthEntry, run_experiment, render_metrics_table  # noqa: E402
from ritkit.report import render_text, report_to_json  # noqa: E402
from tracing import Tracer  # noqa: E402

DENSE = (60, 20)


def _parse(text: str):
    return parse_ruleset(SourceFile.from_text(text, "gen.rules"))


@pytest.fixture(scope="module")
def dense():
    ruleset = _parse(generate_rules(3, *DENSE))
    return ruleset, detect_file(ruleset)


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("n_rules, n_items", [(200, 2000), (60, 60)])
def test_generator_is_byte_identical_per_seed_and_parses_cleanly(n_rules, n_items):
    text = generate_rules(7, n_rules, n_items)
    assert text == generate_rules(7, n_rules, n_items)
    assert text != generate_rules(8, n_rules, n_items)
    ruleset = _parse(text)
    assert ruleset.diagnostics == ()
    assert len(ruleset.rules) == n_rules


def test_small_vocabulary_makes_findings(dense):
    _, report = dense
    sparse = detect_file(_parse(generate_rules(3, DENSE[0], 100 * DENSE[1])))
    assert report.total > 10 * max(1, sparse.total)


# -- mock backend ------------------------------------------------------------


def test_mock_answers_depend_only_on_the_prompt():
    subtask = "ACTION-CONFLICT CHECK\n\nRULE_A [r3]: (\"a\")\nRULE_B [r9]: (\"b\")\n\n" + chat_mock.SUBTASK_TAIL
    assert chat_mock.answer_for(subtask) == chat_mock.answer_for(subtask)
    assert chat_mock.answer_for(subtask) == chat_mock.subtask_answer("ACTION-CONFLICT", "r3", "r9")
    answers = {chat_mock.subtask_answer("CASCADE", f"r{k}", "r0") for k in range(50)}
    assert answers == {"YES", "NO"}
    ruleset = 'rule "x"\nwhen\n    System started\nthen\n    sendCommand(A, ON)\nend\n'
    label = chat_mock.answer_for("preamble\n" + chat_mock.RULESET_MARKER + ruleset)
    assert label == chat_mock.classification_answer(ruleset)
    assert label in chat_mock.FINE_LABELS


def _post(endpoint: str, prompt: str) -> str:
    body = json.dumps({"messages": [{"role": "user", "content": prompt}]}).encode()
    request = urllib.request.Request(endpoint, body, {"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=10) as resp:
        return json.loads(resp.read())["choices"][0]["message"]["content"]


def test_mock_process_is_deterministic_delayed_and_counts_connections():
    mock = run.Mock()
    try:
        prompt = "preamble\n" + chat_mock.RULESET_MARKER + "rules"
        start = time.perf_counter()
        first = _post(mock.endpoint, prompt)
        assert time.perf_counter() - start >= run.MOCK_DELAY_MS / 1000
        assert _post(mock.endpoint, prompt) == first == chat_mock.answer_for(prompt)
        assert mock.stats() == {"connections": 2, "requests": 2}
    finally:
        mock.stop()
    assert mock.proc.returncode is not None


# -- output checks -------------------------------------------------------------


def test_detect_check_accepts_the_detector_and_catches_a_dropped_finding(dense):
    ruleset, report = dense
    expected = oracle.oracle_detect_file(ruleset)
    text = render_text(report)
    assert checks.check_detect(1, text, expected) == []
    assert checks.check_detect(1, re.sub(r"\n1\. .*?(?=\n2\. )", "", text, flags=re.S), expected)
    flip = {"SAC": "WAC"}
    recategorized = re.sub(r"^1\. (\w+)", lambda m: "1. " + flip.get(m.group(1), "SAC"), text, count=1, flags=re.M)
    assert recategorized != text
    assert checks.check_detect(1, recategorized, expected)
    assert checks.check_detect(0, text, expected)


def _adjudicated(report) -> tuple[dict, dict]:
    doc = report_to_json(report)
    keep, drop = checks.predicted_verdicts(doc)
    findings = {i: f for i, f in zip(checks.identities_from_json(doc["findings"]), doc["findings"])}
    out = {"findings": [findings[i] for i in keep], "discarded": [findings[i] for i in drop], "fail_open": []}
    return doc, out


def test_adjudicate_check_catches_a_flipped_verdict_and_fail_open(dense):
    doc, out = _adjudicated(dense[1])
    assert out["discarded"], "the answer rule should discard some findings"
    assert checks.check_adjudicate(0, json.dumps(out), doc) == []
    flipped = dict(out, findings=out["findings"] + out["discarded"][:1], discarded=out["discarded"][1:])
    assert checks.check_adjudicate(0, json.dumps(flipped), doc)
    assert checks.check_adjudicate(0, json.dumps(dict(out, fail_open=["WAC:r1:r2:a:b"])), doc)


def _table(truths: list[str], labels: list[str]) -> str:
    dataset = [GroundTruthEntry(f"i{k}", "-", "r1", "r2", t) for k, t in enumerate(truths)]
    answers = dict(zip((e.instance_id for e in dataset), labels))
    row, _ = run_experiment(ExperimentConfig(), dataset, lambda e: (answers[e.instance_id],))
    return render_metrics_table(row, ExperimentConfig().labels, name="backend")


def test_eval_check_catches_a_flipped_label():
    truths = ["WAC", "WAC", "STC", "SCC", "WTC"]
    labels = ["WAC", "SAC", "STC", "WCC", "WTC"]
    assert checks.check_eval_table(0, _table(truths, labels), truths, labels) == []
    flipped = ["WAC", "WAC", "STC", "WCC", "WTC"]
    assert checks.check_eval_table(0, _table(truths, flipped), truths, labels)
    assert checks.check_eval_table(0, _table(truths, truths), truths, truths) == []


def test_mutate_check_catches_a_missing_file():
    records = [json.dumps({"mutant_id": f"m{k}", "operator": "WAC", "miss_cause": None}) for k in range(3)]
    stdout = json.dumps({"totals": {"WAC": 3}, "manifest": "manifest.jsonl"})
    assert checks.check_mutate(0, stdout, records, 3) == []
    assert checks.check_mutate(0, stdout, records, 2)
    assert checks.check_mutate(0, stdout, records[:2], 2)


# -- tracing -------------------------------------------------------------------


class _Layer:
    @staticmethod
    def outer(n):
        return _Layer.inner(n) + 1

    @staticmethod
    def inner(n):
        time.sleep(n)
        return 1


def test_tracer_self_time_excludes_children_and_unwraps():
    original = _Layer.__dict__["inner"]
    tracer = Tracer("t")
    tracer.wrap(_Layer, "outer", "outer.call")
    tracer.wrap(_Layer, "inner", "inner.call")
    assert _Layer.outer(0.02) == 2
    tracer.unwrap()
    assert _Layer.__dict__["inner"] is original
    own = tracer.self_times()
    assert [s.name for s in tracer.spans] == ["outer.call", "inner.call"]
    assert tracer.spans[1].parent == tracer.spans[0].id
    assert own["inner"] >= 0.02 > own["outer"]
    assert sum(own.values()) == pytest.approx(tracer.spans[0].duration)
