"""Experiment cells, prompt assembly and the outcomes of a model call.

Prompts are built byte-deterministically from text assets: a fixed
preamble, per-category definition blocks with zero, one or two embedded
examples, an output-format section and the ruleset under analysis. A model
answer becomes labels or a `ParseFailure`; a backend that gives up raises
`BackendError`.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .detector import CoarseCategory, FineCategory, aggregate

if TYPE_CHECKING:
    from .client import CallRecord

FINE_LABELS = tuple(fine.value for fine in FineCategory)
COARSE_LABELS = tuple(family.value for family in CoarseCategory)
_FAMILY_MEMBERS = {c.value: tuple(f.value for f in FineCategory if aggregate(f) is c) for c in CoarseCategory}

# Three-class example slots borrow the weak then strong member example.
_THREE_EXAMPLES = {
    "AC": ("WAC_1", "SAC_1"),
    "TC": ("WTC_1", "STC_1"),
    "CC": ("SCC_1", "WCC_1"),
}

PROMPT_TAIL = (
    "Think about your answer before responding. Find the best analysis of the rules. "
    "The order of the rules does not matter.\n"
    "The rules that you must analyze are:\n"
)


@lru_cache(maxsize=None)
def _asset(*parts: str) -> str:
    from importlib import resources  # here, so that a run that builds no prompt never loads it

    root = resources.files("ritkit") / "prompt_assets"
    for part in parts:
        root = root / part
    return root.read_text(encoding="utf-8").rstrip("\n")


class _ExperimentFields(NamedTuple):
    taxonomy: str = "six"  # "six" | "three"
    multi_response: bool = True
    shots: int = 0


class ExperimentConfig(_ExperimentFields):
    """One experiment cell: the label taxonomy, the scoring mode and the prompt's shots."""

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> ExperimentConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.taxonomy not in ("six", "three"):
            raise ValueError("taxonomy must be 'six' or 'three'")
        if self.shots not in (0, 1, 2):
            raise ValueError("shots must be 0, 1 or 2")
        return self

    @property
    def labels(self) -> tuple[str, ...]:
        return FINE_LABELS if self.taxonomy == "six" else COARSE_LABELS


# `bench/run.py --trace 1` builds prompts with `PromptTemplate()`; the alias goes with that in-process mode.
PromptTemplate = ExperimentConfig


def _example_block(names: tuple[str, ...], shots: int) -> str:
    parts = []
    for k in range(shots):
        title = "Example:" if k == 0 else f"Example {k + 1}:"
        parts.append(f"\n\n{title}\n{_asset('examples', f'{names[k]}.txt')}")
    return "".join(parts)


def _definitions(config: ExperimentConfig) -> str:
    blocks = []
    for family in COARSE_LABELS:
        if config.taxonomy == "six":
            text = _asset("defs", f"six_{family}.txt")
            for member in _FAMILY_MEMBERS[family]:
                slot = f"[[{member}_EXAMPLES]]"
                text = text.replace(slot, _example_block((f"{member}_1", f"{member}_2"), config.shots))
        else:
            text = _asset("defs", f"three_{family}.txt")
            text = text.replace(f"[[{family}_EXAMPLES]]", _example_block(_THREE_EXAMPLES[family], config.shots))
        blocks.append(text)
    return "\n\n".join(blocks)


def _output_format(config: ExperimentConfig) -> str:
    letters = "3" if config.taxonomy == "six" else "2"
    if config.multi_response:
        example = "WAC,STC" if config.taxonomy == "six" else "AC,TC"
        head = (
            f"Return only the {letters}-letter acronyms of detected threats, separated by commas "
            "if multiple exist. Do not give me an explanation or any reasoning."
        )
    else:
        example = "WAC" if config.taxonomy == "six" else "AC"
        head = (
            f"Return only the single {letters}-letter acronym of the most likely threat. "
            "Do not give me an explanation or any reasoning."
        )
    return (
        "OUTPUT FORMAT\n"
        f"{head}\n"
        f"Do not give me any other output besides the {letters} letter acronym.\n"
        f"Example: {example}"
    )


def build_prompt(config: ExperimentConfig, ruleset_text: str) -> str:
    """Assemble the full classification prompt for one ruleset."""
    if not ruleset_text.strip():
        raise ValueError("ruleset text must be nonempty")
    return (
        f"{_asset('preamble.txt')}\n\n"
        "THREAT TYPES AND PATTERNS\n"
        f"{_definitions(config)}\n\n"
        f"{_output_format(config)}\n\n"
        f"{PROMPT_TAIL}"
        f"{ruleset_text}"
    )


# ---------------------------------------------------------------------------
# Response parsing

PARSE_FAILURE_BLANK = "blank"
PARSE_FAILURE_NO_LABEL = "no-valid-label"
PARSE_FAILURE_AMBIGUOUS = "ambiguous"
BACKEND_FAILURE = "backend:"  # prefix of the kind of a failed backend call: "backend:<error class>"


class ParseFailure(NamedTuple):  # a tuple too: test for it before reading a prediction as labels
    kind: str
    raw: str


class BackendError(Exception):
    """A backend call gave up: the LLM stage's one outage signal, caught where each pipeline gives up."""

    def __init__(self, error_class: str, record: CallRecord):
        super().__init__(f"backend exhausted: {error_class}")
        self.error_class = error_class
        self.record = record


_WORD_RE = re.compile(r"[A-Za-z]+")


def scan_labels(text: str, vocabulary: tuple[str, ...], multi_allowed: bool) -> tuple[str, ...] | ParseFailure:
    """Read the vocabulary words a model answered with.

    Tokens are whole runs of ASCII letters matched case-insensitively, so a
    word counts only when it stands alone ("sacred" holds no SAC). Lines are
    scanned from the end so reasoning preambles are skipped; the last line
    holding any vocabulary word wins. Duplicates collapse while first-seen
    order is kept.
    """
    if not text.strip():
        return ParseFailure(PARSE_FAILURE_BLANK, text)
    for line in reversed(text.splitlines()):
        words = (token.upper() for token in _WORD_RE.findall(line))
        labels = tuple(dict.fromkeys(word for word in words if word in vocabulary))
        if labels:
            if not multi_allowed and len(labels) > 1:
                return ParseFailure(PARSE_FAILURE_AMBIGUOUS, text)
            return labels
    return ParseFailure(PARSE_FAILURE_NO_LABEL, text)


def parse_model_response(
    text: str, taxonomy: str = "six", multi_allowed: bool = True
) -> tuple[str, ...] | ParseFailure:
    """Extract RIT acronyms of the taxonomy from a model response."""
    return scan_labels(text, FINE_LABELS if taxonomy == "six" else COARSE_LABELS, multi_allowed)
