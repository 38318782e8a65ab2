"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything runs offline against stubs, mocks and bundled fixtures.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import oracle
from conftest import hybrid_precision, parse_fixture, recall
from mock_backend import MockBackendServer

from ritkit.client import BackendError, StubAdjudicator, complete
from ritkit.config import BackendConfig
from ritkit.detector import (
    AC_DESCRIPTION,
    CoarseCategory,
    EvidenceRef,
    FineCategory,
    Finding,
    FindingReport,
    RuleRef,
    detect_file,
    finding_key,
)
from ritkit.evaluate import (
    ExperimentConfig,
    InstanceLog,
    format_percent,
    metrics_from_logs,
    score_prediction,
)
from ritkit.hybrid import run_pipeline
from ritkit.mutate import (
    Exhaustive,
    MISS_STRICT_MATCHING,
    Seed,
    bundled_seed_paths,
    generate_corpus,
)
from ritkit.parser import parse_ruleset
from ritkit.prompts import FINE_LABELS, ParseFailure
from ritkit.report import render_text
from ritkit.source import SourceFile

GOLDEN = Path(__file__).parent / "golden"


def ok(n: int, message: str) -> None:
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_criterion_1_taxonomy_fixed_points():
    started = time.monotonic()
    expectations = {
        "ac_sprinkler_vs_windows.rules": (FineCategory.SAC, CoarseCategory.AC),
        "tc_morning_cascade.rules": (FineCategory.WTC, CoarseCategory.TC),
        "cc_fire_alarm_vs_bedtime.rules": (FineCategory.SCC, CoarseCategory.CC),
    }
    for name, (fine, coarse) in expectations.items():
        report = detect_file(parse_fixture(name))
        assert [f.category for f in report.findings] == [fine], name
        assert report.findings[0].coarse is coarse, name
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    ok(1, f"example pairs classify to SAC/WTC/SCC with AC/TC/CC aggregation in {elapsed:.3f}s")


def test_criterion_2_report_golden_file():
    finding = Finding(
        category=FineCategory.WAC,
        rule_a=RuleRef("r1", "1 Watering_garden_startup"),
        rule_b=RuleRef("r7", "7 Watering_starting/stoping"),
        threat_pair=("r1a1", "r7a7"),
        triggers_a=(EvidenceRef("r1t1", "System started"),),
        triggers_b=(EvidenceRef("r7t1", "Item notification_proxy_wtr received update"),),
        conditions_a=(),
        conditions_b=(
            EvidenceRef("r7c8", 'if (msg == "START")'),
            EvidenceRef("r7c9", "if (wtrfronttime > 0)"),
        ),
        description=AC_DESCRIPTION,
        action_a=EvidenceRef("r1a1", "wtrvalvefront.sendCommand(off_r)"),
        action_b=EvidenceRef("r7a7", "wtrvalvefront.sendCommand(on_r)"),
    )
    report = FindingReport(file="detect-output/oh-rules/WateringSystem.rules", findings=(finding,))
    rendered = render_text(report)
    golden = (GOLDEN / "wac_report.txt").read_text(encoding="utf-8")
    assert rendered == golden
    assert "[c0]:   no conditions guarding action" in rendered
    assert "CONTRADICTORY ACTION EXECUTION COULD OCCUR IN ANY ORDER" in rendered
    ok(2, "synthetic WAC report is byte-identical to the checked-in golden")


def test_criterion_3_metrics_oracle():
    accuracy = metrics_from_logs(InstanceLog(f"i{i}", "CC", i < 2188) for i in range(2495)).overall
    assert format_percent(accuracy) == "87.70%"
    assert abs(accuracy - Fraction(8770, 10000)) * 100 < Fraction(1, 100)

    recovery = recall(61, 53)
    assert format_percent(recovery) == "53.51%"
    assert abs(recovery - Fraction(5351, 10000)) * 100 < Fraction(1, 100)
    ok(3, "micro accuracy 2188/2495 renders 87.70% and recall 61/(61+53) renders 53.51%")


def test_criterion_4_mutation_round_trip(tmp_path):
    seeds = [Seed.load(p) for p in bundled_seed_paths()]
    manifest = generate_corpus(seeds, Exhaustive(), tmp_path / "corpus")
    assert manifest.records

    recovered = Counter()
    total = Counter()
    for record in manifest.records:
        ruleset = parse_ruleset(SourceFile.from_path(record.output_path))
        assert ruleset.errors() == (), record.mutant_id  # 100% parseable
        total[record.operator] += 1
        if record.miss_cause is None:
            recovered[record.operator] += 1
        else:
            assert record.miss_cause in (MISS_STRICT_MATCHING, "unsupported-construct")
    rates = {op: recovered[op] / total[op] for op in total}
    assert all(rate >= 0.95 for rate in rates.values()), rates

    # postUpdate cascade variants reproduce the strict-matching miss class:
    # 0% recovery under strict matching, 100% under lenient.
    pu = generate_corpus(
        seeds,
        Exhaustive(),
        tmp_path / "pu",
        operators=(FineCategory.STC, FineCategory.WTC),
        post_update_cascades=True,
    )
    assert pu.records
    assert all(r.miss_cause == MISS_STRICT_MATCHING for r in pu.records)
    ok(
        4,
        f"{len(manifest.records)} mutants 100% parseable, per-operator recovery >= 95%, "
        f"{len(pu.records)} postUpdate variants all strict-miss/lenient-hit",
    )


def test_criterion_5_brute_force_equivalence():
    rng = random.Random(20260810)
    checked = 0
    for _ in range(1000):
        ruleset = oracle.random_ruleset(rng)
        got = Counter(oracle.detector_identities(detect_file(ruleset)))
        want = Counter(oracle.oracle_detect_file(ruleset))
        assert got == want
        checked += 1
    assert checked == 1000
    ok(5, "detect_file equals the enumeration oracle on 1000 random small rulesets")


def _synthetic_finding(key: str, category: FineCategory) -> Finding:
    return Finding(
        category=category,
        rule_a=RuleRef(f"r{key}", f"rule {key} a"),
        rule_b=RuleRef("rx", "rule x"),
        threat_pair=(key, key),
        triggers_a=(EvidenceRef("t1", "System started"),),
        triggers_b=(EvidenceRef("t2", "System started"),),
        conditions_a=(),
        conditions_b=(),
        description=AC_DESCRIPTION,
        action_a=EvidenceRef("a1", "Item.sendCommand(ON)"),
        action_b=EvidenceRef("a2", "Item.sendCommand(OFF)"),
        trigger_b=EvidenceRef("t2", "System started"),
    )


def test_criterion_6_hybrid_conservation():
    report = detect_file(parse_fixture("hybrid_mixed.rules"))
    assert report.total >= 2

    accept = run_pipeline(report, StubAdjudicator("accept-all"))
    assert render_text(accept.final) == render_text(report)

    reject = run_pipeline(report, StubAdjudicator("reject-all"))
    expected = tuple(f for f in report.findings if f.category not in (FineCategory.WAC, FineCategory.WTC))
    assert reject.final.findings == expected
    assert len(reject.final.findings) + len(reject.discarded) == report.total

    # Seeded TP/FP fixture: precision 72.53% before, >= 90% once the table
    # stub discards exactly the labeled false positives.
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
            finding = _synthetic_finding(f"f{n}", category)
            findings.append(finding)
            truth[finding_key(finding)] = is_tp
            n += 1
    labeled = FindingReport(file="fixture", findings=tuple(findings))
    table = {finding_key(f): truth[finding_key(f)] for f in findings}
    result = run_pipeline(labeled, StubAdjudicator("table", table=table))
    kept = {finding_key(f) for f in result.final.findings}
    precision_table = hybrid_precision(findings, kept, truth)
    assert format_percent(precision_table.before_total) == "72.53%"
    assert precision_table.after_total >= Fraction(9, 10)
    ok(
        6,
        "accept-all is byte-identical, reject-all removes exactly WAC+WTC, "
        f"precision {format_percent(precision_table.before_total)} -> {format_percent(precision_table.after_total)}",
    )


def test_criterion_7_scoring_properties():
    rng = random.Random(424242)
    multi_config = ExperimentConfig("six", True)
    single_config = ExperimentConfig("six", False)
    logs = []
    violations = 0
    for _ in range(10_000):
        truth = rng.choice(FINE_LABELS)
        if rng.random() < 0.05:
            pred: tuple | ParseFailure = ParseFailure("blank", "")
        else:
            size = rng.randint(1, 3)
            pred = tuple(dict.fromkeys(rng.choice(FINE_LABELS) for _ in range(size)))
        single = score_prediction(pred, truth, single_config)
        multi = score_prediction(pred, truth, multi_config)
        if single and not multi:
            violations += 1
        logs.append(InstanceLog(f"i{len(logs)}", truth, multi, failure="blank" if isinstance(pred, ParseFailure) else None))
    assert violations == 0
    row = metrics_from_logs(logs)
    totals = Counter(log.truth for log in logs)
    weighted = sum(row.per_class[label] * total for label, total in totals.items())
    assert row.overall == Fraction(weighted, row.total)
    assert row.total == sum(totals.values()) == 10_000
    ok(7, "10000 randomized scoring cases: single=>multi monotone, accounting identity exact")


def test_criterion_8_client_robustness():
    no_sleep = lambda _t: None  # noqa: E731

    def cfg(endpoint: str) -> BackendConfig:
        return BackendConfig(endpoint=endpoint, model="m", timeout=5.0, max_retries=4)

    with MockBackendServer([(429, None), (429, None), (200, "WAC")]) as server:
        text, record = complete(cfg(server.endpoint), "p", sleep=no_sleep)
    assert text == "WAC" and record.attempts[-1].error_class is None
    assert [a.status for a in record.attempts] == [429, 429, 200]

    with MockBackendServer([(200, ""), (200, "STC")]) as server:
        text, record = complete(cfg(server.endpoint), "p", sleep=no_sleep)
    assert text == "STC"
    assert [a.error_class for a in record.attempts] == ["blank", None]

    with MockBackendServer([(401, None)]) as server:
        try:
            complete(cfg(server.endpoint), "p", sleep=no_sleep)
            raise AssertionError("401 must not succeed")
        except BackendError as exc:
            assert exc.error_class == "auth"
            assert len(exc.record.attempts) == 1
    ok(8, "mock scripts (429,429,200), (blank,200), (401) give the specified attempts and classes")
