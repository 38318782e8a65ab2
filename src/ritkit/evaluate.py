"""Ground truth, experiment protocols and metric computation.

Metrics are computed exactly (fractions) and rounded half-up to two decimal
places only for display. Overall accuracy is micro accuracy (total correct
over total samples), never an average of per-class recalls.
"""

from __future__ import annotations

import errno
import json
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, TypeVar

from .detector import FineCategory, aggregate
from .mutate import MutantManifest
from .ordered import ordered_map
from .prompts import BACKEND_FAILURE, COARSE_LABELS, FINE_LABELS, BackendError, ExperimentConfig, ParseFailure
from .records import read_records
from .source import SourceFile

Prediction = tuple[str, ...] | ParseFailure


class _GroundTruthFields(NamedTuple):
    instance_id: str
    source: str
    rule_a: str
    rule_b: str
    fine: str
    coarse: str = ""


class GroundTruthEntry(_GroundTruthFields):
    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> GroundTruthEntry:
        self = super().__new__(cls, *args, **kwargs)
        expected = aggregate(FineCategory(self.fine)).value
        if self.coarse and self.coarse != expected:
            raise ValueError(f"coarse label {self.coarse!r} does not aggregate from {self.fine!r}")
        return self._replace(coarse=expected)

    def label(self, taxonomy: str) -> str:
        return self.fine if taxonomy == "six" else self.coarse


class PredictionEntry(NamedTuple):
    """One line of a predictions file."""

    instance_id: str
    labels: tuple[str, ...]


R = TypeVar("R", GroundTruthEntry, PredictionEntry, "InstanceLog")


def _check_unique_ids(entries: list[R]) -> list[R]:
    seen: set[str] = set()
    for entry in entries:
        if entry.instance_id in seen:
            raise ValueError(f"duplicate instance id: {entry.instance_id}")
        seen.add(entry.instance_id)
    return entries


def ground_truth_from_manifest(manifest: MutantManifest) -> list[GroundTruthEntry]:
    return _check_unique_ids(
        [
            GroundTruthEntry(
                instance_id=rec.mutant_id,
                source=rec.output_path,
                rule_a=rec.rule_a,
                rule_b=rec.rule_b,
                fine=rec.operator,
            )
            for rec in manifest.records
        ]
    )


def load_ground_truth(path: str | Path) -> list[GroundTruthEntry]:
    """Ground truth from a ground-truth file or a mutation manifest.

    The first record decides which: a `mutant_id` key means a manifest.
    """
    with open(path, encoding="utf-8") as fh:
        first = next((line for line in fh if line.strip()), "")
    try:
        keys = json.loads(first)
    except ValueError:
        keys = {}  # reading it as ground truth names the bad line
    if isinstance(keys, dict) and "mutant_id" in keys:
        return ground_truth_from_manifest(MutantManifest.load(path))
    return _check_unique_ids(read_records(path, GroundTruthEntry))


def load_predictions(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Labels by instance id; an id on two lines is a ValueError."""
    return {p.instance_id: p.labels for p in _check_unique_ids(read_records(path, PredictionEntry))}


def load_replay(path: str | Path) -> tuple[list[InstanceLog], tuple[str, ...]]:
    """A per-instance log and its columns, the one label set that holds every truth; else a ValueError."""
    logs = _check_unique_ids(read_records(path, InstanceLog))
    truths = {log.truth for log in logs}
    for labels in (COARSE_LABELS, FINE_LABELS):
        if truths <= set(labels):
            return logs, labels
    unknown = sorted(truths - {*COARSE_LABELS, *FINE_LABELS})
    raise ValueError(f"truth {unknown[0]!r} is not a label" if unknown else "truths mix six- and three-class labels")


# The four evaluation cells; mutation runs reuse them as dataset choices.
EXPERIMENT_CELLS = {
    "A": ExperimentConfig(taxonomy="six", multi_response=True),
    "B": ExperimentConfig(taxonomy="six", multi_response=False),
    "C": ExperimentConfig(taxonomy="three", multi_response=True),
    "D": ExperimentConfig(taxonomy="three", multi_response=False),
}


def score_prediction(pred: Prediction, truth: str, config: ExperimentConfig) -> bool:
    """Multi mode: correct if truth is among predictions; single: exact match."""
    if isinstance(pred, ParseFailure):
        return False
    if config.multi_response:
        return truth in pred
    return len(pred) == 1 and pred[0] == truth


def format_percent(value: Fraction | None) -> str:
    """Two decimal places, half-up, e.g. Fraction(2188, 2495) -> '87.70%'."""
    if value is None:
        return "n/a"
    dec = Decimal(value.numerator) / Decimal(value.denominator) * 100
    return f"{dec.quantize(Decimal('0.01'), rounding=ROUND_HALF_UP)}%"


class MetricsRow(NamedTuple):
    per_class: dict[str, Fraction]
    overall: Fraction
    parse_failures: int
    total: int

    def rendered(self, labels: tuple[str, ...]) -> dict[str, str]:
        out = {label: format_percent(self.per_class.get(label)) for label in labels}
        out["Total"] = format_percent(self.overall)
        return out


class InstanceLog(NamedTuple):
    instance_id: str
    truth: str
    correct: bool
    labels: tuple[str, ...] | None = None  # None on a parse failure
    failure: str | None = None


Predictor = Callable[[GroundTruthEntry], Prediction]


def _read_instance(entry: GroundTruthEntry) -> SourceFile:
    """The instance's file; one that is not UTF-8 is an OSError that names it, as a missing one is."""
    try:
        return SourceFile.from_path(entry.source)
    except UnicodeDecodeError as exc:
        raise OSError(errno.EILSEQ, str(exc), entry.source) from exc


def echo_predictor(dataset: list[GroundTruthEntry], taxonomy: str = "six") -> Predictor:
    """Ground-truth echo: answers every instance with its manifest label."""
    labels = {entry.instance_id: entry.label(taxonomy) for entry in dataset}
    return lambda entry: (labels[entry.instance_id],)


def constant_predictor(label: str) -> Predictor:
    return lambda entry: (label,)


def detector_predictor(taxonomy: str = "six", strict: bool = True) -> Predictor:
    """Classify an instance file with the static detector itself.

    A file without findings is predicted as no labels: a miss, not a parse
    failure.
    """
    from .detector import detect_file
    from .parser import parse_ruleset

    def predict(entry: GroundTruthEntry) -> Prediction:
        report = detect_file(parse_ruleset(_read_instance(entry)), strict)
        raw = [f.category.value if taxonomy == "six" else f.coarse.value for f in report.findings]
        return tuple(dict.fromkeys(raw))

    return predict


def backend_predictor(config: ExperimentConfig, backend) -> Predictor:
    """Blind classification through a text backend (hybrid recovery mode).

    A backend that gives up raises `BackendError`, and `run_experiment` then
    makes no further call. An empty instance file is an OSError that names it.
    """
    from .hybrid import recover_negatives

    def predict(entry: GroundTruthEntry) -> Prediction:
        text = _read_instance(entry).content
        try:
            return recover_negatives(text, config, backend)
        except ValueError as exc:  # build_prompt's refusal; the client raises BackendError
            raise OSError(errno.ENODATA, str(exc), entry.source) from exc

    return predict


def run_experiment(
    config: ExperimentConfig,
    dataset: list[GroundTruthEntry],
    predictor: Predictor,
    jobs: int = 1,
) -> tuple[MetricsRow, list[InstanceLog]]:
    """Score every instance; the log is sufficient to recompute all metrics.

    Up to `jobs` predictions run at once (see `ordered.ordered_map`). The
    first `BackendError` in dataset order stops new ones: that instance and
    every later one score as the parse failure `backend:<error_class>`
    without a call, though each later file is still read, so a missing one
    still propagates. Any other predictor error (say, an unreadable instance
    file) propagates: a broken corpus must not score as a weak model.
    """
    preds: list[Prediction] = []
    try:
        for pred in ordered_map(predictor, dataset, jobs):
            preds.append(pred)
    except BackendError as exc:
        for entry in dataset[len(preds) + 1 :]:
            _read_instance(entry)
        preds += [ParseFailure(f"{BACKEND_FAILURE}{exc.error_class}", "")] * (len(dataset) - len(preds))

    logs: list[InstanceLog] = []
    for entry, pred in zip(dataset, preds):
        truth = entry.label(config.taxonomy)
        labels, failure = (None, pred.kind) if isinstance(pred, ParseFailure) else (tuple(pred), None)
        logs.append(InstanceLog(entry.instance_id, truth, score_prediction(pred, truth, config), labels, failure))
    return metrics_from_logs(logs), logs


def metrics_from_logs(logs: Iterable[InstanceLog]) -> MetricsRow:
    """Recall per class with samples, micro accuracy and counts, in one pass over a per-instance log."""
    cells: dict[str, list[int]] = {}  # truth label -> [correct, total]
    parse_failures = 0
    for log in logs:
        cell = cells.setdefault(log.truth, [0, 0])
        cell[0] += log.correct
        cell[1] += 1
        parse_failures += log.failure is not None
    total = sum(n for _, n in cells.values())
    if total == 0:
        raise ValueError("micro accuracy is undefined on an empty dataset")
    return MetricsRow(
        per_class={label: Fraction(correct, n) for label, (correct, n) in cells.items()},
        overall=Fraction(sum(correct for correct, _ in cells.values()), total),
        parse_failures=parse_failures,
        total=total,
    )


def render_metrics_table(row: MetricsRow, labels: tuple[str, ...], name: str = "run") -> str:
    """Aligned text table with per-class recall columns plus Total."""
    rendered = row.rendered(labels)
    headers = list(labels) + ["Total"]
    cells = [rendered[h] for h in headers]
    name_width = max(len(name), len("run"))
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    head = " | ".join([" " * name_width] + [h.rjust(w) for h, w in zip(headers, widths)])
    line = "-+-".join(["-" * name_width] + ["-" * w for w in widths])
    body = " | ".join([name.ljust(name_width)] + [c.rjust(w) for c, w in zip(cells, widths)])
    footer = f"samples: {row.total}, parse failures: {row.parse_failures}"
    return "\n".join([head, line, body, footer])
