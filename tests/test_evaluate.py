from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import hybrid_precision, precision, recall
from mock_backend import StubBackend

from ritkit.detector import FineCategory, finding_key
from ritkit.evaluate import (
    EXPERIMENT_CELLS,
    ExperimentConfig,
    GroundTruthEntry,
    InstanceLog,
    backend_predictor,
    constant_predictor,
    detector_predictor,
    echo_predictor,
    format_percent,
    ground_truth_from_manifest,
    metrics_from_logs,
    render_metrics_table,
    run_experiment,
    score_prediction,
)
from ritkit.mutate import MutantManifest, MutantRecord
from ritkit.prompts import FINE_LABELS, ParseFailure
from ritkit.records import dump_records, read_records

MULTI = ExperimentConfig("six", True)
SINGLE = ExperimentConfig("six", False)


def entry(i: int, fine: str) -> GroundTruthEntry:
    return GroundTruthEntry(f"i{i}", f"file{i}.rules", "r1", "r2", fine)


def scored(truth: str, correct: bool, failed: bool = False) -> InstanceLog:
    """One per-instance log line; a failed one is a blank-answer parse failure."""
    return InstanceLog("i", truth, correct, failure="blank" if failed else None)


def split(*cells: tuple[str, int, int]) -> list[InstanceLog]:
    """Logs with `correct` of `total` instances right for each (label, correct, total)."""
    return [scored(label, i < correct) for label, correct, total in cells for i in range(total)]


class TestScorePrediction:
    def test_multi_accepts_any_match(self):
        assert score_prediction(("WAC", "STC"), "WAC", MULTI)

    def test_single_requires_exact_match(self):
        assert not score_prediction(("WAC", "STC"), "WAC", SINGLE)
        assert score_prediction(("SAC",), "SAC", SINGLE)

    def test_parse_failure_scores_incorrect(self):
        failure = ParseFailure("blank", "")
        assert not score_prediction(failure, "WAC", MULTI)
        assert not score_prediction(failure, "WAC", SINGLE)

    def test_parse_failure_that_equals_a_label_tuple_is_still_a_failure(self):
        failure = ParseFailure("WAC", "SAC")  # a tuple equal to the labels ("WAC", "SAC")
        assert failure == ("WAC", "SAC") and not score_prediction(failure, "WAC", MULTI)
        row, logs = run_experiment(MULTI, [entry(0, "WAC")], lambda e: failure)
        assert logs == [InstanceLog("i0", "WAC", False, None, "WAC")] and row.parse_failures == 1


class TestMetrics:
    def test_per_class_recall_edges(self):
        recalls = metrics_from_logs(split(("AC", 0, 4), ("TC", 3, 3))).per_class
        assert recalls["AC"] == 0
        assert recalls["TC"] == 1
        assert "CC" not in recalls  # zero-total class omitted

    def test_micro_accuracy_is_not_recall_average(self):
        row = metrics_from_logs(split(("AC", 99, 99), ("TC", 0, 1)))
        assert row.overall == Fraction(99, 100)
        mean_of_recalls = (Fraction(1) + Fraction(0)) / 2
        assert row.overall != mean_of_recalls

    def test_headline_accuracy_value(self):
        assert format_percent(metrics_from_logs(split(("CC", 2188, 2495))).overall) == "87.70%"

    def test_empty_dataset_is_an_error(self):
        with pytest.raises(ValueError, match="micro accuracy is undefined on an empty dataset"):
            metrics_from_logs([])

    def test_recall_and_precision_ratios(self):
        assert format_percent(recall(61, 53)) == "53.51%"
        assert recall(0, 5) == 0
        assert precision(3, 1) == Fraction(3, 4)
        assert recall(0, 0) is None and precision(0, 0) is None
        assert format_percent(None) == "n/a"

    def test_rounding_is_half_up(self):
        assert format_percent(Fraction(1, 8)) == "12.50%"
        assert format_percent(Fraction(625, 100000)) == "0.63%"

    def test_three_class_split_reproduces_headline_row(self):
        # With the 677/472/1346 class sizes, per-class corrects of
        # 403/445/1340 give the 59.53/94.28/99.55 recalls and 2188 total.
        row = metrics_from_logs(split(("AC", 403, 677), ("TC", 445, 472), ("CC", 1340, 1346)))
        assert format_percent(row.per_class["AC"]) == "59.53%"
        assert format_percent(row.per_class["TC"]) == "94.28%"
        assert format_percent(row.per_class["CC"]) == "99.55%"
        assert row.overall * row.total == 2188 and row.total == 2495
        assert format_percent(row.overall) == "87.70%"

    def test_false_negative_recovery_split(self):
        # Blind-recovery profile over the 114 statically missed mutants.
        row = metrics_from_logs(split(("WAC", 2, 2), ("STC", 2, 16), ("WTC", 18, 35), ("SCC", 33, 33), ("WCC", 6, 28)))
        recalls = row.per_class
        assert format_percent(recalls["WAC"]) == "100.00%"
        assert format_percent(recalls["STC"]) == "12.50%"
        assert format_percent(recalls["WTC"]) == "51.43%"
        assert format_percent(recalls["SCC"]) == "100.00%"
        assert format_percent(recalls["WCC"]) == "21.43%"
        assert row.overall * row.total == 61 and row.total == 114
        assert format_percent(row.overall) == "53.51%"


class TestRunExperiment:
    def _dataset(self):
        labels = ["WAC"] * 4 + ["SAC"] * 3 + ["SCC"] * 3
        return [entry(i, fine) for i, fine in enumerate(labels)]

    def test_echo_predictor_has_perfect_recall(self):
        dataset = self._dataset()
        row, logs = run_experiment(MULTI, dataset, lambda e: (e.fine,))
        assert all(value == 1 for value in row.per_class.values())
        assert row.overall == 1
        assert len(logs) == len(dataset)

    def test_constant_predictor_accuracy_equals_prevalence(self):
        dataset = self._dataset()
        row, _ = run_experiment(MULTI, dataset, lambda e: ("WAC",))
        prevalence = Counter(e.fine for e in dataset)["WAC"]
        assert row.overall == Fraction(prevalence, len(dataset))

    def test_replay_matches_live_run(self, tmp_path):
        dataset = self._dataset()
        rng = random.Random(3)
        predictor = lambda e: (rng.choice(FINE_LABELS),)  # noqa: E731
        row, logs = run_experiment(SINGLE, dataset, predictor)
        path = tmp_path / "log.jsonl"
        path.write_text(dump_records(logs), encoding="utf-8")
        assert metrics_from_logs(read_records(path, InstanceLog)) == row

    def test_predictor_exception_propagates(self):
        def broken(entry):
            raise OSError("unreadable instance")

        with pytest.raises(OSError, match="unreadable instance"):
            run_experiment(MULTI, self._dataset(), broken)

    def test_experiment_cells(self):
        assert EXPERIMENT_CELLS["A"].taxonomy == "six" and EXPERIMENT_CELLS["A"].multi_response
        assert EXPERIMENT_CELLS["B"].taxonomy == "six" and not EXPERIMENT_CELLS["B"].multi_response
        assert EXPERIMENT_CELLS["C"].taxonomy == "three" and EXPERIMENT_CELLS["C"].multi_response
        assert EXPERIMENT_CELLS["D"].taxonomy == "three" and not EXPERIMENT_CELLS["D"].multi_response

    def test_table_rendering_includes_all_labels(self):
        row, _ = run_experiment(MULTI, self._dataset(), lambda e: (e.fine,))
        table = render_metrics_table(row, FINE_LABELS, name="echo")
        for label in FINE_LABELS:
            assert label in table
        assert "100.00%" in table

    def test_predictor_factories(self, tmp_path):
        dataset = self._dataset()
        echo = echo_predictor(dataset, "three")
        assert echo(dataset[0]) == ("AC",)
        assert constant_predictor("WTC")(dataset[0]) == ("WTC",)

        rules = tmp_path / "wired.rules"
        rules.write_text(
            'rule "a"\nwhen\n    Time cron "0 00 08 * * ?"\nthen\n    sendCommand(X, ON)\nend\n'
            'rule "b"\nwhen\n    System started\nthen\n    sendCommand(X, OFF)\nend\n',
            encoding="utf-8",
        )
        instance = GroundTruthEntry("w1", str(rules), "r1", "r2", "SAC")
        assert detector_predictor("six")(instance) == ("SAC",)
        assert detector_predictor("three")(instance) == ("AC",)

        benign = tmp_path / "benign.rules"
        benign.write_text('rule "a"\nwhen\n    System started\nthen\n    sendCommand(X, ON)\nend\n', encoding="utf-8")
        miss = GroundTruthEntry("w2", str(benign), "r1", "r2", "SAC")
        assert detector_predictor("six")(miss) == ()
        row, logs = run_experiment(MULTI, [miss], detector_predictor("six"))
        assert row.parse_failures == 0 and not logs[0].correct

        blind = backend_predictor(ExperimentConfig(), StubBackend(constant="SAC"))
        assert blind(instance) == ("SAC",)


class TestBackendPredictorGivesUp:
    @pytest.fixture()
    def dataset(self, tmp_path):
        entries = []
        for i, fine in enumerate(["SAC", "WAC", "STC", "SCC"]):
            path = tmp_path / f"i{i}.rules"
            path.write_text(f'rule "r{i}"\nwhen\n    System started\nthen\n    sendCommand(X, ON)\nend\n', encoding="utf-8")
            entries.append(GroundTruthEntry(f"i{i}", str(path), "r1", "r2", fine))
        return entries

    def test_backend_down_throughout_is_called_once(self, dataset):
        backend = StubBackend()  # every call fails as unavailable
        row, logs = run_experiment(MULTI, dataset, backend_predictor(ExperimentConfig(), backend))
        assert len(backend.calls) == 1
        assert [log.failure for log in logs] == ["backend:unavailable"] * len(dataset)
        assert row.parse_failures == len(dataset)

    def test_outage_after_the_first_instance_keeps_its_label(self, dataset):
        backend = StubBackend(responses=["SAC"])  # one answer, then unavailable
        row, logs = run_experiment(MULTI, dataset, backend_predictor(ExperimentConfig(), backend))
        assert len(backend.calls) == 2
        assert logs[0].labels == ("SAC",) and logs[0].correct and logs[0].failure is None
        assert [log.failure for log in logs[1:]] == ["backend:unavailable"] * (len(dataset) - 1)

    def test_missing_instance_file_still_raises_after_an_outage(self, dataset):
        backend = StubBackend()  # every call fails as unavailable
        Path(dataset[2].source).unlink()
        with pytest.raises(FileNotFoundError):
            run_experiment(MULTI, dataset, backend_predictor(ExperimentConfig(), backend))
        assert len(backend.calls) == 1


class TestScoringProperties:
    def test_monotonicity_and_accounting(self):
        rng = random.Random(2026)
        logs = []
        for _ in range(2000):
            truth = rng.choice(FINE_LABELS)
            if rng.random() < 0.08:
                pred: tuple | ParseFailure = ParseFailure("blank", "")
            else:
                k = rng.randint(1, 3)
                pred = tuple(dict.fromkeys(rng.choice(FINE_LABELS) for _ in range(k)))
            single = score_prediction(pred, truth, SINGLE)
            multi = score_prediction(pred, truth, MULTI)
            assert multi or not single  # single correct implies multi correct
            logs.append(scored(truth, multi, isinstance(pred, ParseFailure)))
        row = metrics_from_logs(logs)
        totals = Counter(log.truth for log in logs)
        weighted = sum(row.per_class[label] * total for label, total in totals.items())
        assert row.overall == Fraction(weighted, row.total)
        assert row.total == 2000 and row.parse_failures == sum(log.failure is not None for log in logs)

    def test_aggregation_consistency(self):
        rng = random.Random(7)
        coarse_of = {"WAC": "AC", "SAC": "AC", "WTC": "TC", "STC": "TC", "WCC": "CC", "SCC": "CC"}
        three = ExperimentConfig("three", True)
        for _ in range(500):
            truth = rng.choice(FINE_LABELS)
            pred = tuple(dict.fromkeys(rng.choice(FINE_LABELS) for _ in range(rng.randint(1, 2))))
            mapped = tuple(dict.fromkeys(coarse_of[p] for p in pred))
            assert score_prediction(mapped, coarse_of[truth], three) == (coarse_of[truth] in mapped)


class TestGroundTruth:
    def test_manifest_conversion(self):
        records = [
            MutantRecord("m1", "seed.rules", "SCC", "r1", "r2", {}, "out/m1.rules"),
            MutantRecord("m2", "seed.rules", "WAC", "r2", "r3", {}, "out/m2.rules"),
        ]
        entries = ground_truth_from_manifest(MutantManifest(records))
        assert [(e.instance_id, e.fine, e.coarse) for e in entries] == [
            ("m1", "SCC", "CC"),
            ("m2", "WAC", "AC"),
        ]

    def test_coarse_must_aggregate_from_fine(self):
        with pytest.raises(ValueError):
            GroundTruthEntry("x", "f", "r1", "r2", "WAC", coarse="TC")


class _StubFinding:
    """Minimal stand-in carrying just what hybrid_precision reads."""

    def __init__(self, key: str, category: FineCategory):
        self._key = key
        self.category = category
        self.rule_a = type("R", (), {"id": key})
        self.rule_b = type("R", (), {"id": "x"})
        self.threat_pair = (key, key)


def _precision_fixture():
    # Shaped like the static baseline: most false positives sit in WAC/WTC.
    spec = {
        FineCategory.WAC: (68, 32),
        FineCategory.SAC: (35, 5),
        FineCategory.WTC: (4, 12),
        FineCategory.STC: (11, 1),
        FineCategory.WCC: (7, 0),
        FineCategory.SCC: (7, 0),
    }
    findings, truth = [], {}
    n = 0
    for category, (tps, fps) in spec.items():
        for is_tp in [True] * tps + [False] * fps:
            finding = _StubFinding(f"f{n}", category)
            findings.append(finding)
            truth[finding_key(finding)] = is_tp
            n += 1
    return findings, truth


class TestHybridPrecision:
    def test_accept_all_keeps_baseline(self):
        findings, truth = _precision_fixture()
        kept = {finding_key(f) for f in findings}
        table = hybrid_precision(findings, kept, truth)
        assert table.after == table.before
        assert format_percent(table.before_total) == "72.53%"

    def test_discarding_labeled_fps_raises_total_precision(self):
        findings, truth = _precision_fixture()
        kept = {
            finding_key(f)
            for f in findings
            if truth[finding_key(f)] or f.category not in (FineCategory.WAC, FineCategory.WTC)
        }
        table = hybrid_precision(findings, kept, truth)
        assert table.before_total < table.after_total
        assert table.after_total >= Fraction(9, 10)
        assert table.after[FineCategory.WAC.value] == 1
