"""The JSON-lines record files: byte-identical output and lossless round trips."""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import random
import re
from pathlib import Path
from types import UnionType
from typing import Literal, NamedTuple, get_args, get_origin, get_type_hints

import oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ritkit.cli import main
from ritkit.config import ToolConfig
from ritkit.detector import CATEGORY_ORDER, FineCategory, Finding, detect_file
from ritkit.evaluate import GroundTruthEntry, InstanceLog, PredictionEntry
from ritkit.hybrid import AuditRecord
from ritkit.mutate import MutantRecord
from ritkit.records import dump_records, from_json, loads, read_records, to_json

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


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_to_json_is_the_inverse_of_from_json(seed):
    # Findings hold enums, nested records, tuples of records and nullable refs.
    ruleset = oracle.random_ruleset(random.Random(seed))
    for finding in detect_file(ruleset, strict=False).findings:
        assert from_json(json.loads(json.dumps(to_json(finding))), Finding) == finding


# A JSON kind -> values of it; a field takes the kinds `_kinds` names.
JSON_KINDS = {
    "null": st.none(),
    "boolean": st.booleans(),
    "number": st.integers() | st.floats(allow_nan=False, allow_infinity=False),
    "string": TEXT,
    "array": st.lists(TEXT, max_size=2),
    "object": st.dictionaries(TEXT, TEXT, max_size=2),
}


def _kinds(hint) -> set[str]:
    if get_origin(hint) is UnionType:
        return set().union(*map(_kinds, get_args(hint)))
    return {type(None): {"null"}, str: {"string"}, bool: {"boolean"}, tuple: {"array"}, dict: {"object"}}[
        get_origin(hint) or hint
    ]


def _wrong_values(hint) -> st.SearchStrategy:
    """JSON values a field of type `hint` refuses: another kind, or an array or object of numbers."""
    kinds = _kinds(hint)
    wrong = [strategy for kind, strategy in JSON_KINDS.items() if kind not in kinds]
    if "array" in kinds:
        wrong.append(st.lists(st.integers(), min_size=1, max_size=2))
    if "object" in kinds:
        wrong.append(st.dictionaries(TEXT, st.integers(), min_size=1, max_size=2))
    return st.one_of(wrong)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), cls=st.sampled_from(list(RECORDS)))
def test_a_value_of_another_json_kind_is_named(tmp_path_factory, data, cls):
    record = data.draw(RECORDS[cls])
    field, hint = data.draw(st.sampled_from(sorted(get_type_hints(cls).items())))
    obj = {**record._asdict(), field: data.draw(_wrong_values(hint))}
    path = tmp_path_factory.getbasetemp() / "wrong-kind.jsonl"
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_records(path, cls)
    assert re.match(rf"line 1: {field}(\[[^]]+\])? must be ", str(info.value)), str(info.value)


class Part(NamedTuple):
    name: str
    weight: float = 1.0


class Whole(NamedTuple):
    category: FineCategory
    pair: tuple[str, str]
    parts: tuple[Part, ...]
    counts: dict[str, int]
    version: Literal[1] = 1
    note: str | None = None


WHOLE = {"category": "SAC", "pair": ["a", "b"], "parts": [{"name": "p"}], "counts": {"x": 2}}


def test_from_json_builds_nested_records():
    expected = Whole(FineCategory.SAC, ("a", "b"), (Part("p"),), {"x": 2})
    assert from_json(WHOLE, Whole) == expected
    assert from_json({**WHOLE, "unknown": [1], "note": None}, Whole) == expected
    assert from_json({**WHOLE, "parts": [{"name": "q", "weight": 2}], "note": "n"}, Whole).parts[0].weight == 2


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"category": "XYZ"}, "category must be one of WAC, SAC, WTC, STC, WCC, SCC"),
        ({"category": ["SAC"]}, "category must be one of WAC, SAC, WTC, STC, WCC, SCC"),
        ({"pair": ["a"]}, "pair must be a list of 2 values"),
        ({"pair": ["a", "b", "c"]}, "pair must be a list of 2 values"),
        ({"pair": ["a", 1]}, "pair[1] must be a string"),
        ({"parts": {}}, "parts must be a list"),
        ({"parts": [{"name": "p"}, {"weight": 2}]}, "parts[1]: missing key 'name'"),
        ({"parts": [{"name": "p"}, "p"]}, "parts[1] must be a JSON object"),
        ({"parts": [{"name": 5}]}, "parts[0].name must be a string"),
        ({"parts": [{"name": "p", "weight": True}]}, "parts[0].weight must be a number"),
        ({"parts": [{"name": "p", "weight": "1"}]}, "parts[0].weight must be a number"),
        ({"counts": []}, "counts must be a JSON object"),
        ({"counts": {"x": 1.5}}, 'counts["x"] must be an integer'),
        ({"counts": {"x\"y": False}}, 'counts["x\\"y"] must be an integer'),
        ({"version": True}, "version must be 1"),
        ({"version": 1.0}, "version must be 1"),
        ({"note": 5}, "note must be a string"),
    ],
)
def test_from_json_names_the_key_path(edit, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        from_json({**WHOLE, **edit}, Whole)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
def test_a_number_is_finite(text):
    document = json.dumps({**WHOLE, "parts": [{"name": "p", "weight": float(text)}]})  # Python's JSON writes them
    assert f'"weight": {text}' in document
    with pytest.raises(ValueError, match="^parts\\[0\\].weight must be a number$"):
        loads(document, Whole)
    with pytest.raises(ValueError, match="^not a number$"):
        loads(text, float)
    assert loads("5", float) == 5 and loads("2.5", float) == 2.5


def test_top_level_values_and_missing_keys():
    assert from_json(["a", "b"], tuple[str, ...]) == ("a", "b")
    for value, kind, message in [
        ([], Whole, "not a JSON object"),
        ({}, Whole, "missing key 'category'"),
        ("SAC", tuple[str, ...], "not a list"),
        ({"a": "yes"}, dict[str, bool], '["a"] must be true or false'),
        (None, str, "not a string"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            from_json(value, kind)


def test_closed_refuses_unknown_keys_at_every_depth():
    assert from_json({**WHOLE, "extra": 1}, Whole) == from_json(WHOLE, Whole)
    with pytest.raises(ValueError, match="^unknown key 'extra'$"):
        from_json({**WHOLE, "extra": 1, "zzz": 2}, Whole, closed=True)
    with pytest.raises(ValueError, match="^parts\\[0\\]: unknown key 'extra'$"):
        from_json({**WHOLE, "parts": [{"name": "p", "extra": 1}]}, Whole, closed=True)


def test_a_records_own_value_error_gets_the_key_path():
    backend = {"endpoint": "http://x", "model": "m", "timeout": 0}
    with pytest.raises(ValueError, match="^backend: timeout must be positive$"):
        from_json({"backend": backend}, ToolConfig)
    mutant = MutantRecord("m1", "s.rules", "SAC", "r1", "r2", {"item": "ON"}, "m1.rules")._asdict()
    with pytest.raises(ValueError, match="^'XYZ' is not a valid FineCategory$"):
        from_json({**mutant, "operator": "XYZ"}, MutantRecord)


def test_the_round_trip_covers_every_record_type_read():
    src = Path(__file__).parent.parent / "src" / "ritkit"
    read = {
        node.args[1].id
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "read_records"
    }
    assert read and read <= {cls.__name__ for cls in RECORDS}


def _json_loads_calls(node: ast.AST) -> int:
    return sum(isinstance(sub, ast.Call) and ast.unparse(sub.func) == "json.loads" for sub in ast.walk(node))


def test_json_is_decoded_only_by_the_records_reader():
    """Outside `records.py`, only a wire reply (`client`) and a file-kind sniff (`evaluate`) call `json.loads`."""
    allowed = {"records": None, "client": "_extract_content", "evaluate": "load_ground_truth"}
    for path in (Path(__file__).parent.parent / "src" / "ritkit").glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == "records":
            assert _json_loads_calls(tree) == 1
            continue
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == allowed.get(path.stem)]
        assert _json_loads_calls(tree) == sum(map(_json_loads_calls, functions)) == (path.stem in allowed), path.name


def test_non_ascii_text_is_escaped_and_restored(tmp_path):
    record = AuditRecord("WAC:r1:r2:r1a1:r2a1", "trigger-overlap", "Ja – überlappend\u2028✓", True)
    text = dump_records([record])
    assert text.isascii() and text.count("\n") == 1
    path = tmp_path / "audit.jsonl"
    path.write_text(text, encoding="utf-8")
    assert read_records(path, AuditRecord) == [record]
