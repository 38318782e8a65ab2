from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

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
