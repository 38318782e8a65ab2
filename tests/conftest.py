from __future__ import annotations

import importlib.util
from fractions import Fraction
from pathlib import Path
from typing import Iterable, NamedTuple

import pytest

from ritkit.detector import finding_key
from ritkit.parser import parse_ruleset
from ritkit.source import SourceFile

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


def load_bench_generator():
    """The benchmark's seeded `.rules` generator, loaded from `bench/gen.py`."""
    spec = importlib.util.spec_from_file_location("bench_gen", Path(__file__).parent.parent / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_text(text: str, path: str = "<test>"):
    return parse_ruleset(SourceFile.from_text(text, path))


def parse_fixture(name: str):
    return parse_ruleset(SourceFile.from_path(DATA_DIR / name))


@pytest.fixture(scope="session")
def sprinkler_pair():
    return parse_fixture("ac_sprinkler_vs_windows.rules")


@pytest.fixture(scope="session")
def morning_pair():
    return parse_fixture("tc_morning_cascade.rules")


@pytest.fixture(scope="session")
def fire_alarm_pair():
    return parse_fixture("cc_fire_alarm_vs_bedtime.rules")


# ---------------------------------------------------------------------------
# Recall and precision accounting for the paper's headline figures. The CLI
# has no path to them: `eval` reports recall per class through
# `metrics_from_logs`, and offline runs have no labelled false positives.


def recall(tp: int, fn: int) -> Fraction | None:
    """TP / (TP + FN); None when the denominator is zero."""
    return Fraction(tp, tp + fn) if tp + fn else None


def precision(tp: int, fp: int) -> Fraction | None:
    """TP / (TP + FP); None when the denominator is zero."""
    return Fraction(tp, tp + fp) if tp + fp else None


class PrecisionTable(NamedTuple):
    before: dict[str, Fraction | None]
    after: dict[str, Fraction | None]
    before_total: Fraction | None
    after_total: Fraction | None


def hybrid_precision(findings: list, kept_refs: set[str], truth: dict[str, bool]) -> PrecisionTable:
    """Per-category precision before and after reconciliation.

    `findings` are detector findings, `truth` maps finding keys to TP/FP
    labels, `kept_refs` are the keys surviving reconciliation.
    """
    categories = {finding_key(f): f.category.value for f in findings}

    def tally(keys: Iterable[str]) -> tuple[dict[str, Fraction | None], Fraction | None]:
        per_cat: dict[str, list[int]] = {}  # category -> [TP, total]
        for key in keys:
            cell = per_cat.setdefault(categories[key], [0, 0])
            cell[0] += truth[key]
            cell[1] += 1
        tp_total = sum(tp for tp, _ in per_cat.values())
        fp_total = sum(total for _, total in per_cat.values()) - tp_total
        return {cat: precision(tp, total - tp) for cat, (tp, total) in per_cat.items()}, precision(tp_total, fp_total)

    before, before_total = tally(categories)
    after, after_total = tally(k for k in categories if k in kept_refs)
    return PrecisionTable(before, after, before_total, after_total)
