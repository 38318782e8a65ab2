"""The JSON-lines record files: byte-identical output and lossless round trips."""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritkit.cli import main
from ritkit.detector import CATEGORY_ORDER
from ritkit.evaluate import GroundTruthEntry, InstanceLog, PredictionEntry
from ritkit.hybrid import AuditRecord
from ritkit.mutate import MutantRecord
from ritkit.records import dump_records, read_records

DATA = Path(__file__).parent / "data"


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def record_files(tmp_path_factory):
    """Per-instance logs on the bundled exhaustive corpus and audit logs on `hybrid_mixed.rules`."""
    work = tmp_path_factory.mktemp("records")
    manifest = work / "corpus" / "manifest.jsonl"
    report = work / "report.json"
    runs = {
        "eval-detector": ["eval", "--manifest", manifest, "--predictor", "detector"],
        "eval-constant-single": ["eval", "--manifest", manifest, "--predictor", "constant:WAC", "--experiment", "B"],
        "adjudicate-accept-all": ["adjudicate", report, "--stub", "accept-all"],
        "adjudicate-reject-all": ["adjudicate", report, "--stub", "reject-all"],
    }
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["mutate", "--out-dir", str(work / "corpus")]) == 0
        assert main(["detect", str(DATA / "hybrid_mixed.rules"), "--format", "structured", "--out", str(report)]) == 1
        for name, argv in runs.items():
            flag = "--per-instance-log" if argv[0] == "eval" else "--audit-log"
            assert main([*map(str, argv), flag, str(work / name)]) == 0
    return {name: work / name for name in runs}


def test_record_files_match_the_golden_digest(record_files, golden_dir):
    lines = (golden_dir / "record_logs.sha256").read_text(encoding="utf-8").splitlines()
    want = {name: digest for digest, name in (line.split() for line in lines)}
    assert {name: _digest(path) for name, path in record_files.items()} == want


TEXT = st.text(max_size=8)  # any code point but surrogates, so non-ASCII text too
LABELS = st.lists(TEXT, max_size=3).map(tuple)
CATEGORY = st.sampled_from([c.value for c in CATEGORY_ORDER])
RECORDS = {
    MutantRecord: st.builds(
        MutantRecord, TEXT, TEXT, CATEGORY, TEXT, TEXT, st.dictionaries(TEXT, TEXT, max_size=2), TEXT, st.none() | TEXT
    ),
    GroundTruthEntry: st.builds(GroundTruthEntry, TEXT, TEXT, TEXT, TEXT, CATEGORY, st.just("")),  # coarse from fine
    PredictionEntry: st.builds(PredictionEntry, TEXT, LABELS),
    InstanceLog: st.builds(InstanceLog, TEXT, TEXT, st.booleans(), st.none() | LABELS, st.none() | TEXT),
    AuditRecord: st.builds(AuditRecord, TEXT, TEXT, TEXT, st.booleans()),
}


@settings(max_examples=100, deadline=None)
@given(data=st.data(), cls=st.sampled_from(list(RECORDS)))
def test_records_survive_a_round_trip(tmp_path_factory, data, cls):
    records = data.draw(st.lists(RECORDS[cls], max_size=4))
    path = tmp_path_factory.getbasetemp() / "round-trip.jsonl"
    path.write_text(dump_records(records), encoding="utf-8")
    assert read_records(path, cls) == records

    # Without some optional keys, with a key no record has and with blank lines.
    defaults = cls._field_defaults
    lines, expected = [], []
    for record in records:
        absent = data.draw(st.sets(st.sampled_from(sorted(defaults)))) if defaults else set()
        obj = {k: v for k, v in json.loads(dump_records([record])).items() if k not in absent}
        lines += ["", json.dumps({**obj, "unknown": [1]})]
        expected.append(cls(**{**record._asdict(), **{k: defaults[k] for k in absent}}))
    path.write_text("\n".join(lines), encoding="utf-8")
    assert read_records(path, cls) == expected


def test_the_round_trip_covers_every_record_type_read():
    src = Path(__file__).parent.parent / "src" / "ritkit"
    read = {
        node.args[1].id
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "read_records"
    }
    assert read and read <= {cls.__name__ for cls in RECORDS}


def test_non_ascii_text_is_escaped_and_restored(tmp_path):
    record = AuditRecord("WAC:r1:r2:r1a1:r2a1", "trigger-overlap", "Ja – überlappend\u2028✓", True)
    text = dump_records([record])
    assert text.isascii() and text.count("\n") == 1
    path = tmp_path / "audit.jsonl"
    path.write_text(text, encoding="utf-8")
    assert read_records(path, AuditRecord) == [record]
