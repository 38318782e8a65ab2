"""Output checks that do not trust the code under test.

Each check returns a list of problems; an empty list means the output is
correct. Detector findings are compared with the enumeration oracle in
`tests/oracle.py`, mutation runs with their own manifest and a perfect
detector score, and adjudication and backend eval with what the mock's
answer rule predicts.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from chat_mock import classification_answer, subtask_answer

# Routed categories and the subtasks each one asks, as the README documents
# the default routed set and decomposition.
ROUTED_SUBTASKS = {"WAC": ("TRIGGER-OVERLAP", "ACTION-CONFLICT"), "WTC": ("CASCADE",)}

_FINDING_RE = re.compile(r"^\d+\. (\w+) THREAT DETECTED$")
_PAIR_RE = re.compile(r"^    THREAT PAIR: \((\S+), (\S+)\)$")
_RULE_RE = re.compile(r"^        RULE_([AB]) \[(\w+)\]")
_TOTAL_RE = re.compile(r"^THREATS DETECTED: (\d+)$", re.M)
_FOOTER_RE = re.compile(r"^samples: (\d+), parse failures: (\d+)$", re.M)


def identities_from_text(report: str) -> list[tuple]:
    """(category, rule_a, rule_b, threat_pair) per finding of a text report."""
    out: list[tuple] = []
    category = pair = None
    rules: dict[str, str] = {}
    for line in report.splitlines():
        if m := _FINDING_RE.match(line):
            category, pair, rules = m.group(1), None, {}
        elif m := _PAIR_RE.match(line):
            pair = (m.group(1), m.group(2))
        elif (m := _RULE_RE.match(line)) and category is not None:
            rules[m.group(1)] = m.group(2)
            if len(rules) == 2:
                out.append((category, rules["A"], rules["B"], pair))
                category = None
    return out


def identities_from_json(findings: list[dict]) -> list[tuple]:
    return [(f["category"], f["rule_a"]["id"], f["rule_b"]["id"], tuple(f["threat_pair"])) for f in findings]


def check_detect(exit_code: int, output: str, expected: list[tuple]) -> list[str]:
    """Text-report findings must equal the oracle's as a multiset; exit code 1 iff any."""
    problems = []
    want_code = 1 if expected else 0
    if exit_code != want_code:
        problems.append(f"detect exited {exit_code}, expected {want_code}")
    found = identities_from_text(output)
    total = _TOTAL_RE.search(output)
    if total is None or int(total.group(1)) != len(found):
        problems.append("text report header does not match its finding blocks")
    diff = Counter(found)
    diff.subtract(Counter(expected))
    wrong = {k: v for k, v in diff.items() if v}
    if wrong:
        problems.append(f"{len(wrong)} finding identities differ from the oracle, e.g. {next(iter(wrong))}")
    return problems


def parse_metrics_table(output: str) -> tuple[dict[str, str], int, int] | None:
    """({column: cell}, samples, parse failures) from `ritkit eval` output."""
    lines = [line for line in output.splitlines() if line.strip()]
    footer = _FOOTER_RE.search(output)
    if len(lines) < 4 or footer is None:
        return None
    headers = [cell.strip() for cell in lines[0].split("|")[1:]]
    cells = [cell.strip() for cell in lines[2].split("|")[1:]]
    if len(headers) != len(cells):
        return None
    return dict(zip(headers, cells)), int(footer.group(1)), int(footer.group(2))


def percent(value: Fraction | None) -> str:
    if value is None:
        return "n/a"
    dec = Decimal(value.numerator) / Decimal(value.denominator) * 100
    return f"{dec.quantize(Decimal('0.01'), rounding=ROUND_HALF_UP)}%"


def check_eval_table(exit_code: int, output: str, truths: list[str], predicted: list[str]) -> list[str]:
    """The eval table must show the recall that `predicted` earns against `truths`."""
    if exit_code != 0:
        return [f"eval exited {exit_code}"]
    table = parse_metrics_table(output)
    if table is None:
        return ["unreadable eval table"]
    cells, samples, failures = table
    problems = []
    if samples != len(truths) or failures != 0:
        problems.append(f"eval scored {samples} samples with {failures} parse failures, expected {len(truths)} and 0")
    per_class: dict[str, list[int]] = {}
    for truth, label in zip(truths, predicted):
        cell = per_class.setdefault(truth, [0, 0])
        cell[0] += truth == label
        cell[1] += 1
    want = {label: percent(Fraction(*per_class[label]) if label in per_class else None) for label in cells}
    want["Total"] = percent(Fraction(sum(c for c, _ in per_class.values()), max(1, len(truths))))
    if cells != want:
        problems.append(f"eval table {cells} differs from the predicted {want}")
    return problems


def check_mutate(exit_code: int, stdout: str, manifest_lines: list[str], written: int) -> list[str]:
    """Every manifest record has its own file, and the printed totals agree."""
    if exit_code != 0:
        return [f"mutate exited {exit_code}"]
    problems = []
    try:
        totals = json.loads(stdout.strip().splitlines()[-1])["totals"]
        records = [json.loads(line) for line in manifest_lines]
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unreadable mutate output: {exc}"]
    ids = {r["mutant_id"] for r in records}
    if not records or len(ids) != len(records):
        problems.append("manifest is empty or repeats a mutant id")
    if sum(totals.values()) != len(records) or written != len(records):
        problems.append(f"{len(records)} records, {sum(totals.values())} in totals, {written} files written")
    if any(r["miss_cause"] is not None for r in records):
        problems.append("a mutant carries a miss cause")
    return problems


def predicted_verdicts(report: dict) -> tuple[list[tuple], list[tuple]]:
    """(kept, discarded) identities that the mock's answer rule implies."""
    kept, discarded = [], []
    for finding in report["findings"]:
        identity = identities_from_json([finding])[0]
        a, b = finding["rule_a"]["id"], finding["rule_b"]["id"]
        kinds = ROUTED_SUBTASKS.get(finding["category"], ())
        if all(subtask_answer(kind, a, b) == "YES" for kind in kinds):
            kept.append(identity)
        else:
            discarded.append(identity)
    return kept, discarded


def subtask_count(report: dict) -> int:
    return sum(len(ROUTED_SUBTASKS.get(f["category"], ())) for f in report["findings"])


def check_adjudicate(exit_code: int, output: str, report: dict) -> list[str]:
    """Kept and discarded sets must follow the answers; nothing may fail open."""
    if exit_code != 0:
        return [f"adjudicate exited {exit_code}"]
    try:
        doc = json.loads(output)
        kept = identities_from_json(doc["findings"])
        discarded = identities_from_json(doc["discarded"])
        fail_open = doc["fail_open"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable adjudicate output: {exc}"]
    want_kept, want_discarded = predicted_verdicts(report)
    problems = []
    if fail_open:
        problems.append(f"{len(fail_open)} findings kept by fail-open")
    if Counter(kept) != Counter(want_kept) or Counter(discarded) != Counter(want_discarded):
        problems.append(
            f"kept/discarded {len(kept)}/{len(discarded)} differ from the predicted {len(want_kept)}/{len(want_discarded)}"
        )
    return problems


def predicted_labels(texts: list[str]) -> list[str]:
    return [classification_answer(text) for text in texts]
