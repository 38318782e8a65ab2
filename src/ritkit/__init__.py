"""ritkit: rule interaction threat analysis for trigger-action-condition rules.

A static analyzer, mutation-corpus generator, hybrid adjudication pipeline
and evaluation harness for openHAB-style .rules automation files.

Importing the package loads the analyzer pipeline (source, lexer, parser,
detector, report). The other modules load on first use, as each CLI
subcommand imports only what it runs; `ritkit.<module>` imports a module
that is not loaded yet.
"""

import importlib

from .detector import (
    CoarseCategory,
    DetectorConfig,
    FineCategory,
    Finding,
    FindingReport,
    aggregate,
    detect_file,
    detect_pair,
)
from .ir import Rule, RuleSet
from .parser import parse_ruleset
from .report import parse_structured, render_structured, render_text
from .source import SourceFile

__version__ = "0.1.0"

__all__ = [
    "CoarseCategory",
    "DetectorConfig",
    "FineCategory",
    "Finding",
    "FindingReport",
    "Rule",
    "RuleSet",
    "SourceFile",
    "aggregate",
    "detect_file",
    "detect_pair",
    "parse_ruleset",
    "parse_structured",
    "render_structured",
    "render_text",
    "__version__",
]

# The modules that importing the package does not load: `ritkit.mutate`, say,
# imports it on first access.
_ON_FIRST_USE = frozenset({"cli", "client", "config", "evaluate", "hybrid", "mutate", "prompts"})


def __getattr__(name: str):
    if name in _ON_FIRST_USE:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
