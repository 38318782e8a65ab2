from __future__ import annotations

import json
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import load_bench_generator
from mock_backend import MockBackendServer

from ritkit.cli import build_arg_parser, main
from ritkit.config import BackendConfig, ConfigError, ToolConfig, load_config
from ritkit.detector import FineCategory, detect_file, finding_key
from ritkit.hybrid import DEFAULT_ROUTED_SET
from ritkit.parser import parse_ruleset
from ritkit.prompts import COARSE_LABELS, FINE_LABELS
from ritkit.report import parse_structured, render_structured, render_structured_lines, render_text
from ritkit.source import SourceFile

DATA = Path(__file__).parent / "data"
BENIGN = Path(__file__).parent.parent / "src" / "ritkit" / "seeds" / "garden_watering.rules"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# What the catch-all in `main` prints for an exception that no command caught.
CATCH_ALL = re.compile(r"^error: [A-Z]\w*(Error|Exception): ")


def run_fatal(capsys, *argv: str) -> str:
    """Run a command that must fail by the exit-2 contract; its error message.

    The contract: exit 2, no stdout, and exactly one stderr line, which
    starts `error: ` and is not the catch-all's `error: <Exception>: ...`.
    """
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, ""), (code, out, err)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert not CATCH_ALL.match(err), err
    return err[len("error: ") : -1]


def run_usage_error(capsys, *argv: str) -> str:
    """Run a command that argparse must refuse (exit 2, usage on stderr); its error message."""
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out) == (2, ""), captured
    assert captured.err.startswith("usage: ritkit "), captured.err
    return captured.err.splitlines()[-1].split(" error: ", 1)[1]


class TestDetectCommand:
    def test_benign_file_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "detect", str(BENIGN))
        assert code == 0
        assert "THREATS DETECTED: 0" in out

    def test_findings_exit_one_with_sac_block(self, capsys):
        code, out, _ = run_cli(capsys, "detect", str(DATA / "ac_sprinkler_vs_windows.rules"))
        assert code == 1
        assert "1. SAC THREAT DETECTED" in out

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(capsys, "detect", "does/not/exist.rules")
        assert code == 2 and "error:" in err

    def test_directory_input_reports_each_file(self, capsys, tmp_path):
        for name in ("ac_sprinkler_vs_windows.rules", "tc_morning_cascade.rules"):
            (tmp_path / name).write_text((DATA / name).read_text(), encoding="utf-8")
        (tmp_path / "nested").mkdir()
        (tmp_path / "nested" / "third.rules").write_text(BENIGN.read_text(), encoding="utf-8")
        code, out, _ = run_cli(capsys, "detect", str(tmp_path))
        assert code == 1
        assert out.count("FILE: ") == 3

    def test_structured_format_round_trips(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "detect", str(DATA / "cc_fire_alarm_vs_bedtime.rules"), "--format", "structured", "--out", str(out_path)
        )
        assert code == 1
        report = parse_structured(out_path.read_text(encoding="utf-8"))
        assert report.counts["SCC"] == 1

    def test_parse_diagnostics_go_to_stderr(self, capsys, tmp_path):
        bad = tmp_path / "bad.rules"
        bad.write_text('rule "broken"\nwhen\nthen\nend\n', encoding="utf-8")
        code, out, err = run_cli(capsys, "detect", str(bad))
        assert code == 0
        assert "error" in err and "THREATS DETECTED: 0" in out

    def test_lenient_matching_flag(self, capsys, tmp_path):
        rules = tmp_path / "pu.rules"
        rules.write_text(
            'rule "poster"\nwhen\n    System started\nthen\n    postUpdate(Relay, ON)\nend\n'
            'rule "listener"\nwhen\n    Item Relay received command\nthen\n    sendCommand(Siren, ON)\nend\n',
            encoding="utf-8",
        )
        strict_code, _, _ = run_cli(capsys, "detect", str(rules))
        lenient_code, out, _ = run_cli(capsys, "detect", str(rules), "--lenient-matching")
        assert strict_code == 0 and lenient_code == 1
        assert "STC" in out


class TestMutateAndEvalCommands:
    @pytest.fixture()
    def corpus(self, capsys, tmp_path):
        out_dir = tmp_path / "corpus"
        code, out, _ = run_cli(
            capsys, "mutate", "--out-dir", str(out_dir), "--strategy", "sample", "--sample-n", "12", "--rng-seed", "5"
        )
        assert code == 0
        return out_dir

    def test_mutate_writes_manifest_and_files(self, corpus):
        manifest = corpus / "manifest.jsonl"
        assert manifest.exists()
        records = [json.loads(line) for line in manifest.read_text().splitlines()]
        assert len(records) == 12
        for record in records:
            assert Path(record["output_path"]).exists()

    def test_sample_requires_explicit_seed(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "mutate", "--out-dir", str(tmp_path / "x"), "--strategy", "sample", "--sample-n", "3")
        assert code == 2 and "rng-seed" in err

    def test_eval_detector_predictor(self, capsys, corpus):
        code, out, _ = run_cli(capsys, "eval", "--manifest", str(corpus / "manifest.jsonl"), "--predictor", "detector")
        assert code == 0
        assert "100.00%" in out

    def test_eval_missing_instance_file_is_fatal(self, capsys, corpus):
        records = [json.loads(line) for line in (corpus / "manifest.jsonl").read_text().splitlines()]
        missing = records[3]["output_path"]
        Path(missing).unlink()
        message = run_fatal(capsys, "eval", "--manifest", str(corpus / "manifest.jsonl"), "--predictor", "detector")
        assert message == f"cannot read instance file {missing}: No such file or directory"

    def test_eval_predictions_and_predictor_are_exclusive(self, capsys, tmp_path, corpus):
        manifest = corpus / "manifest.jsonl"
        ids = [json.loads(line)["mutant_id"] for line in manifest.read_text().splitlines()]
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_text("".join(json.dumps({"instance_id": i, "labels": ["WAC"]}) + "\n" for i in ids))
        argv = ["eval", "--manifest", str(manifest), "--predictions", str(predictions), "--predictor", "detector"]
        assert run_usage_error(capsys, *argv) == "argument --predictor: not allowed with argument --predictions"

    def test_eval_replay_takes_no_other_input_or_output(self, capsys, corpus, tmp_path):
        log, manifest = str(tmp_path / "log.jsonl"), str(corpus / "manifest.jsonl")
        code, _, _ = run_cli(capsys, "eval", "--manifest", manifest, "--predictor", "echo", "--per-instance-log", log)
        assert code == 0
        for mode in ("--predictor", "--predictions"):
            message = run_usage_error(capsys, "eval", "--replay", log, mode, "x")
            assert message == f"argument {mode}: not allowed with argument --replay"
        assert run_usage_error(capsys, "eval") == "one of the arguments --predictions --predictor --replay is required"
        unread = {"--manifest": manifest, "--per-instance-log": str(tmp_path / "again.jsonl")}
        for flag, value in unread.items():
            message = run_fatal(capsys, "eval", "--replay", log, flag, value)
            assert message == f"--replay does not read {flag}; drop it"
        assert not (tmp_path / "again.jsonl").exists()

    def test_eval_detector_miss_is_not_a_parse_failure(self, capsys, tmp_path):
        # Strict matching misses every postUpdate cascade variant.
        out_dir = tmp_path / "pu"
        code, _, _ = run_cli(
            capsys, "mutate", str(BENIGN), "--out-dir", str(out_dir), "--post-update-cascades", "--operators", "STC,WTC"
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "eval", "--manifest", str(out_dir / "manifest.jsonl"), "--predictor", "detector",
            "--experiment", "D",
        )
        assert code == 0
        assert out.splitlines()[-1] == "samples: 12, parse failures: 0" and "0.00%" in out

    def test_eval_prediction_file_and_orphans(self, capsys, corpus, tmp_path):
        manifest = corpus / "manifest.jsonl"
        records = [json.loads(line) for line in manifest.read_text().splitlines()]
        predictions = tmp_path / "preds.jsonl"
        with predictions.open("w") as fh:
            for record in records:
                fh.write(json.dumps({"instance_id": record["mutant_id"], "labels": [record["operator"]]}) + "\n")
        code, out, _ = run_cli(capsys, "eval", "--manifest", str(manifest), "--predictions", str(predictions))
        assert code == 0 and "100.00%" in out

        with predictions.open("a") as fh:
            fh.write(json.dumps({"instance_id": "m9999__ghost", "labels": ["WAC"]}) + "\n")
        code, _, err = run_cli(capsys, "eval", "--manifest", str(manifest), "--predictions", str(predictions))
        assert code == 2 and "m9999__ghost" in err

    @pytest.mark.parametrize("labels", ["SAC", None], ids=["string", "null"])
    def test_eval_prediction_labels_must_be_a_list_of_strings(self, capsys, corpus, tmp_path, labels):
        manifest = corpus / "manifest.jsonl"
        records = [json.loads(line) for line in manifest.read_text().splitlines()]
        predictions = tmp_path / "preds.jsonl"
        with predictions.open("w") as fh:
            for k, record in enumerate(records):
                fh.write(json.dumps({"instance_id": record["mutant_id"], "labels": labels if k == 2 else ["SAC"]}) + "\n")
        code, out, err = run_cli(capsys, "eval", "--manifest", str(manifest), "--predictions", str(predictions))
        assert code == 2 and out == ""
        assert err == f"error: cannot load predictions {predictions}: line 3: labels must be a list\n"

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("[1, 2]", "not a JSON object"),
            ('{"instance_id": 5, "labels": ["SAC"]}', "instance_id must be a string"),
            ('{"instance_id": "m0001"}', "missing key 'labels'"),
        ],
        ids=["not-an-object", "non-string-id", "no-labels"],
    )
    def test_eval_malformed_prediction_line_is_named(self, capsys, corpus, tmp_path, line, problem):
        manifest = corpus / "manifest.jsonl"
        records = [json.loads(line) for line in manifest.read_text().splitlines()]
        lines = [json.dumps({"instance_id": r["mutant_id"], "labels": [r["operator"]]}) for r in records]
        lines[1:1] = ["", line]  # a blank line still counts: the bad one is line 3
        predictions = tmp_path / "preds.jsonl"
        predictions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", "--manifest", str(manifest), "--predictions", str(predictions))
        assert (code, out) == (2, "")
        assert err == f"error: cannot load predictions {predictions}: line 3: {problem}\n"

    def test_eval_duplicate_prediction_id_is_fatal(self, capsys, corpus, tmp_path):
        manifest = corpus / "manifest.jsonl"
        ids = [json.loads(line)["mutant_id"] for line in manifest.read_text().splitlines()]
        predictions = tmp_path / "preds.jsonl"
        lines = [json.dumps({"instance_id": i, "labels": ["SAC"]}) for i in [*ids, ids[4]]]
        predictions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "eval", "--manifest", str(manifest), "--predictions", str(predictions))
        assert (code, out) == (2, "")
        assert err == f"error: cannot load predictions {predictions}: duplicate instance id: {ids[4]}\n"

    MUTANT = {"mutant_id": "m1", "seed_file": "s.rules", "operator": "SAC", "rule_a": "r1", "rule_b": "r2",
              "injected": {}, "output_path": "m1.rules"}

    @pytest.mark.parametrize(
        "flag, lines, problem",
        [
            ("--manifest", ["[1, 2]"], "line 2: not a JSON object"),
            ("--manifest", [{"instance_id": "i1", "rule_a": "r1", "rule_b": "r2", "fine": "SAC"}],
             "line 2: missing key 'source'"),
            ("--manifest", [MUTANT, "[1, 2]"], "line 3: not a JSON object"),
            ("--manifest", [{k: v for k, v in MUTANT.items() if k != "output_path"}], "line 2: missing key 'output_path'"),
            ("--manifest", [{**MUTANT, "operator": "XYZ"}], "line 2: 'XYZ' is not a valid FineCategory"),
            ("--replay", ["[1, 2]"], "line 2: not a JSON object"),
            ("--replay", [{"instance_id": "i1", "truth": "SAC"}], "line 2: missing key 'correct'"),
            ("--manifest", [{"instance_id": {}, "source": "s.rules", "rule_a": "r1", "rule_b": "r2", "fine": "SAC"}],
             "line 2: instance_id must be a string"),
            ("--manifest", [MUTANT, {**MUTANT, "mutant_id": ["m2"]}], "line 3: mutant_id must be a string"),
            ("--replay", [{"instance_id": "a", "truth": {}, "correct": True}], "line 2: truth must be a string"),
            ("--replay", [{"instance_id": "a", "truth": "SAC", "correct": False, "failure": 5}],
             "line 2: failure must be a string"),
            ("--replay", [{"instance_id": "a", "truth": "SAC", "correct": "yes"}], "line 2: correct must be true or false"),
            ("--manifest", [MUTANT, {**MUTANT, "mutant_id": "m2", "injected": 5}], "line 3: injected must be a JSON object"),
            ("--manifest", [{**MUTANT, "injected": {"item": 5}}], 'line 2: injected["item"] must be a string'),
            ("--replay", [{"instance_id": "a", "truth": "SAC", "correct": True, "labels": [1, 2]}],
             "line 2: labels[0] must be a string"),
        ],
        ids=["gt-not-an-object", "gt-no-source", "manifest-not-an-object", "manifest-no-output-path",
             "manifest-bad-operator", "log-not-an-object", "log-no-correct", "gt-dict-id", "manifest-list-id",
             "log-dict-truth", "log-number-failure", "log-string-correct", "manifest-number-injected",
             "manifest-number-injected-value", "log-number-labels"],
    )
    def test_eval_malformed_record_line_is_named(self, capsys, tmp_path, flag, lines, problem):
        path = tmp_path / "records.jsonl"
        text = [line if isinstance(line, str) else json.dumps(line) for line in lines]
        path.write_text("\n" + "\n".join(text) + "\n", encoding="utf-8")  # the first record is on line 2
        predictor = ["--predictor", "echo"] if flag == "--manifest" else []
        code, out, err = run_cli(capsys, "eval", flag, str(path), *predictor)
        kind = "manifest" if flag == "--manifest" else "replay log"
        assert (code, out) == (2, "")
        assert err == f"error: cannot load {kind} {path}: {problem}\n"

    @pytest.mark.parametrize(
        "label, experiment", [("XYZ", []), ("AC", ["--experiment", "A"]), ("SAC", ["--experiment", "C"])]
    )
    def test_eval_constant_label_outside_the_cell_is_fatal(self, capsys, corpus, label, experiment):
        cell = experiment[1] if experiment else "A"
        argv = ["eval", "--manifest", str(corpus / "manifest.jsonl"), "--predictor", f"constant:{label}", *experiment]
        labels = ", ".join(COARSE_LABELS if cell in "CD" else FINE_LABELS)
        assert run_fatal(capsys, *argv) == f"constant:{label} is not a label of cell {cell} ({labels})"

    @pytest.mark.parametrize(
        "label, experiment", [("XYZ", []), ("AC", ["--experiment", "A"]), ("SAC", ["--experiment", "C"])]
    )
    def test_eval_prediction_label_outside_the_cell_is_fatal(self, capsys, corpus, tmp_path, label, experiment):
        cell = experiment[1] if experiment else "A"
        manifest = corpus / "manifest.jsonl"
        ids = [json.loads(line)["mutant_id"] for line in manifest.read_text(encoding="utf-8").splitlines()]
        predictions = tmp_path / "predictions.jsonl"
        lines = [json.dumps({"instance_id": i, "labels": [label]}) + "\n" for i in ids]
        predictions.write_text("".join(lines), encoding="utf-8")
        argv = ["eval", "--manifest", str(manifest), "--predictions", str(predictions), *experiment]
        labels = ", ".join(COARSE_LABELS if cell in "CD" else FINE_LABELS)
        message = run_fatal(capsys, *argv)
        assert message == f"'{label}' (instance {ids[0]} of {predictions}) is not a label of cell {cell} ({labels})"

    @pytest.mark.parametrize(
        "logs, problem",
        [
            ([("a", "XYZ", True), ("b", "SAC", False)], "truth 'XYZ' is not a label"),
            ([("a", "SAC", True), ("b", "AC", False)], "truths mix six- and three-class labels"),
            ([("a", "AC", True), ("b", "TC", False), ("a", "AC", True)], "duplicate instance id: a"),
        ],
        ids=["unknown-truth", "mixed-taxonomies", "duplicate-id"],
    )
    def test_eval_replay_of_a_log_it_cannot_score_is_fatal(self, capsys, tmp_path, logs, problem):
        log = tmp_path / "log.jsonl"
        log.write_text("".join(json.dumps(dict(zip(("instance_id", "truth", "correct"), line))) + "\n" for line in logs))
        assert run_fatal(capsys, "eval", "--replay", str(log)) == f"cannot load replay log {log}: {problem}"

    def test_failed_mutate_run_leaves_no_mutants(self, capsys, tmp_path):
        seed = tmp_path / "gen67.rules"
        seed.write_text(load_bench_generator().generate_rules(67, 3, 4), encoding="utf-8")
        out_dir = tmp_path / "corpus"
        code, out, err = run_cli(capsys, "mutate", str(seed), "--out-dir", str(out_dir))
        # SAC mutants come first; WAC on (r1, r2) cannot be injected.
        assert code == 2 and out == ""
        assert err.startswith("error: transform inapplicable for WAC")
        assert list(out_dir.iterdir()) == []

    def test_eval_replay(self, capsys, corpus, tmp_path):
        log_path = tmp_path / "log.jsonl"
        code, live_out, _ = run_cli(
            capsys,
            "eval",
            "--manifest",
            str(corpus / "manifest.jsonl"),
            "--predictor",
            "echo",
            "--per-instance-log",
            str(log_path),
        )
        assert code == 0
        code, replay_out, _ = run_cli(capsys, "eval", "--replay", str(log_path))
        assert code == 0
        assert live_out.splitlines()[-1] == replay_out.splitlines()[-1]

    def test_eval_experiment_cell_presets(self, capsys, corpus):
        code, out, _ = run_cli(
            capsys, "eval", "--manifest", str(corpus / "manifest.jsonl"), "--predictor", "echo", "--experiment", "C"
        )
        assert code == 0
        assert "AC" in out and "WAC" not in out

    @pytest.mark.parametrize("cell", ["A", "B", "C", "D"])
    def test_eval_replay_prints_the_columns_of_its_log(self, capsys, corpus, tmp_path, cell):
        log = str(tmp_path / "log.jsonl")
        argv = ["eval", "--manifest", str(corpus / "manifest.jsonl"), "--predictor", "echo", "--experiment", cell]
        code, live_out, _ = run_cli(capsys, *argv, "--per-instance-log", log)
        assert code == 0
        code, replay_out, _ = run_cli(capsys, "eval", "--replay", log)
        assert code == 0
        # Only the row name, and so the width of the name column, differs.
        live, replay = ([re.split(r" \| |-\+-", line) for line in out.splitlines()] for out in (live_out, replay_out))
        assert (live[2][0].strip(), replay[2][0].strip()) == ("echo", "replay")
        assert [row[1:] for row in live[:3]] + live[3:] == [row[1:] for row in replay[:3]] + replay[3:]
        labels = COARSE_LABELS if cell in "CD" else FINE_LABELS
        assert [header.strip() for header in replay[0][1:]] == [*labels, "Total"]

    def test_eval_detector_lenient_matching_flag(self, capsys, tmp_path):
        # Every postUpdate cascade variant of the bundled seeds is a strict miss.
        corpus = tmp_path / "pu"
        code, _, _ = run_cli(capsys, "mutate", "--out-dir", str(corpus), "--post-update-cascades", "--operators", "STC,WTC")
        assert code == 0
        eval_args = ("eval", "--manifest", str(corpus / "manifest.jsonl"), "--predictor", "detector")
        _, strict_out, _ = run_cli(capsys, *eval_args)
        _, flag_out, _ = run_cli(capsys, *eval_args, "--lenient-matching")
        assert strict_out.splitlines()[2].endswith("| 0.00%")
        assert flag_out.splitlines()[2].endswith("| 100.00%")
        assert flag_out.splitlines()[-1] == "samples: 140, parse failures: 0"


# The optional flags that each `eval` input reads; `--manifest` is also required where it is read.
SCORED = ("--manifest", "--experiment", "--per-instance-log")
EVAL_INPUTS = {
    "--replay": (),
    "--predictions": SCORED,
    "--predictor echo": SCORED,
    "--predictor constant:WAC": SCORED,
    "--predictor detector": (*SCORED, "--lenient-matching"),
    "--predictor backend": (*SCORED, "--shots", "--config"),
}
EVAL_FLAGS = {
    "--manifest": ["manifest.jsonl"],
    "--experiment": ["C"],
    "--shots": ["2"],
    "--lenient-matching": [],
    "--per-instance-log": ["again.jsonl"],
    "--config": ["config.json"],
}


def eval_input(given: str) -> list[str]:
    """The argv of an `EVAL_INPUTS` key: a `--predictor` spec, or a file for `--replay` or `--predictions`."""
    return given.split() if given.startswith("--predictor ") else [given, "input.jsonl"]


class TestEvalInputs:
    """Each `eval` input refuses, before it reads any file, an optional flag it does not read."""

    @pytest.mark.parametrize(
        "given, flag",
        [(given, flag) for given, reads in EVAL_INPUTS.items() for flag in EVAL_FLAGS if flag not in reads],
    )
    def test_a_flag_the_input_does_not_read_is_fatal(self, capsys, tmp_path, monkeypatch, given, flag):
        monkeypatch.chdir(tmp_path)  # no file named here exists
        manifest = [] if given == "--replay" else ["--manifest", "manifest.jsonl"]
        message = run_fatal(capsys, "eval", *eval_input(given), *manifest, flag, *EVAL_FLAGS[flag])
        assert message == f"{given} does not read {flag}; drop it"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("given", [given for given in EVAL_INPUTS if given != "--replay"])
    def test_every_input_but_replay_needs_a_manifest(self, capsys, given):
        assert run_fatal(capsys, "eval", *eval_input(given)) == f"{given} needs --manifest"

    @pytest.mark.parametrize("spec", ["bogus", "constant", "echo:SAC", "Detector"])
    def test_unknown_predictor_is_fatal(self, capsys, spec):
        assert run_fatal(capsys, "eval", "--predictor", spec) == f"unknown predictor: {spec}"


class TestAdjudicateCommand:
    @pytest.fixture()
    def structured_report(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        run_cli(capsys, "detect", str(DATA / "hybrid_mixed.rules"), "--format", "structured", "--out", str(path))
        return path

    def test_accept_all_stub_reproduces_detector_output(self, capsys, structured_report):
        code, out, _ = run_cli(capsys, "adjudicate", str(structured_report), "--stub", "accept-all")
        assert code == 0
        text_code, text_out, _ = run_cli(capsys, "detect", str(DATA / "hybrid_mixed.rules"))
        assert out == text_out

    def test_reject_all_drops_routed_categories(self, capsys, structured_report, tmp_path):
        audit = tmp_path / "audit.jsonl"
        code, out, _ = run_cli(
            capsys, "adjudicate", str(structured_report), "--stub", "reject-all", "--audit-log", str(audit)
        )
        assert code == 0
        assert "WAC: 0" in out and "WTC: 0" in out
        assert audit.exists() and audit.read_text().strip()

    def test_structured_output_carries_discarded_findings(self, capsys, structured_report):
        code, out, _ = run_cli(
            capsys, "adjudicate", str(structured_report), "--stub", "reject-all", "--format", "structured"
        )
        doc = json.loads(out)
        assert doc["fail_open"] == []
        assert len(doc["discarded"]) >= 1


class TestConfig:
    def test_defaults(self):
        from ritkit.hybrid import DEFAULT_ROUTED_SET

        assert ToolConfig().backend is None
        assert DEFAULT_ROUTED_SET == {FineCategory.WAC, FineCategory.WTC}
        for command in ("detect", "adjudicate"):
            args = build_arg_parser().parse_args([command, "x"])
            assert args.format == "text" and getattr(args, "lenient_matching", False) is False

    def test_load_and_reject_unknown_keys(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"backend": self.BACKEND}), encoding="utf-8")
        assert load_config(good) == ToolConfig(BackendConfig(**self.BACKEND))

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"strict_matching": True}), encoding="utf-8")
        with pytest.raises(ConfigError, match="strict_matching"):
            load_config(bad)

    def test_backend_keys_validated(self, tmp_path):
        path = tmp_path / "backend.json"
        path.write_text(json.dumps({"backend": {"endpoint": "http://x", "model": "m", "tempratur": 1}}), encoding="utf-8")
        with pytest.raises(ConfigError, match="tempratur"):
            load_config(path)
        path.write_text(json.dumps({"backend": {"endpoint": "http://x"}}), encoding="utf-8")
        with pytest.raises(ConfigError, match="^bad config: backend: missing key 'model'$"):
            load_config(path)

    def test_bad_category_rejected(self, tmp_path):
        # The routed set is `adjudicate --routed` alone; a config that names one is rejected whole.
        path = tmp_path / "cats.json"
        path.write_text(json.dumps({"routed_set": ["WAC", "XYZ"]}), encoding="utf-8")
        with pytest.raises(ConfigError, match="^bad config: unknown key 'routed_set'$"):
            load_config(path)

    def test_detect_takes_no_config(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"backend": self.BACKEND}), encoding="utf-8")
        with pytest.raises(SystemExit) as exit_info:
            main(["detect", str(BENIGN), "--config", str(path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err

    BACKEND = {"endpoint": "http://localhost:1/v1/chat/completions", "model": "m"}

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"strict_event_matching": "false"}, "bad config: unknown key 'strict_event_matching'"),
            ({"strict_event_matching": 0}, "bad config: unknown key 'strict_event_matching'"),
            ({"routed_set": 5}, "bad config: unknown key 'routed_set'"),
            ({"routed_set": "WAC"}, "bad config: unknown key 'routed_set'"),
            ({"routed_set": ["WAC", 5]}, "bad config: unknown key 'routed_set'"),
            ({"backend": {**BACKEND, "rate_limit_per_sec": -1}}, "rate_limit_per_sec must be null, 0 or positive"),
            ({"backend": {**BACKEND, "rate_limit_per_sec": "2"}}, "backend.rate_limit_per_sec must be a number"),
            ({"backend": {**BACKEND, "timeout": "5"}}, "timeout must be a number"),
            ({"backend": {**BACKEND, "timeout": 0}}, "timeout must be positive"),
            ({"backend": {**BACKEND, "temperature": True}}, "temperature must be a number"),
            ({"backend": {**BACKEND, "max_retries": 2.5}}, "max_retries must be an integer"),
            ({"backend": {**BACKEND, "max_output_tokens": False}}, "max_output_tokens must be an integer"),
            ({"backend": {**BACKEND, "backoff_base": -1}}, "backoff_base must be >= 0"),
            ({"backend": {**BACKEND, "model": 5}}, "model must be a string"),
            ({"backend": {**BACKEND, "temperature": float("nan")}}, "temperature must be a number"),
            ({"backend": {**BACKEND, "backoff_base": float("nan")}}, "backoff_base must be a number"),
            ({"backend": {**BACKEND, "timeout": float("inf")}}, "timeout must be a number"),
            ({"backend": {**BACKEND, "rate_limit_per_sec": float("inf")}}, "backend.rate_limit_per_sec must be a number"),
            ({"format": "structured", "backend": BACKEND}, "bad config: unknown key 'format'"),
        ],
    )
    def test_values_must_have_their_json_type(self, capsys, tmp_path, doc, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ConfigError, match=message):
            load_config(path)
        report = tmp_path / "report.json"
        run_cli(capsys, "detect", str(BENIGN), "--format", "structured", "--out", str(report))
        code, out, err = run_cli(capsys, "adjudicate", str(report), "--config", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and message in err

    @pytest.mark.parametrize("limit", [None, 0, 2, 0.5])
    def test_no_rate_limit_or_a_positive_one_loads(self, tmp_path, limit):
        path = tmp_path / "config.json"
        backend = {**self.BACKEND, "rate_limit_per_sec": limit, "timeout": 5, "max_retries": 0}
        path.write_text(json.dumps({"backend": backend}), encoding="utf-8")
        assert load_config(path).backend.rate_limit_per_sec == limit


class TestStartUp:
    SRC = str(Path(__file__).parent.parent / "src")
    ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))

    def test_offline_subcommands_do_not_load_the_http_stack(self):
        code = "import ritkit.cli, sys; sys.exit('requests' in sys.modules or 'http.client' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=self.ENV, timeout=60).returncode == 0

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """A sampled mutation manifest, its predictions and per-instance log, and a structured report."""
        work = tmp_path_factory.mktemp("start-up")
        corpus = work / "corpus"
        main(["mutate", "--out-dir", str(corpus), "--strategy", "sample", "--sample-n", "4", "--rng-seed", "1"])
        manifest, predictions, log = corpus / "manifest.jsonl", work / "predictions.jsonl", work / "log.jsonl"
        ids = [json.loads(line)["mutant_id"] for line in manifest.read_text(encoding="utf-8").splitlines()]
        predictions.write_text("".join(json.dumps({"instance_id": i, "labels": ["SAC"]}) + "\n" for i in ids))
        report = work / "report.json"
        main(["eval", "--manifest", str(manifest), "--predictor", "echo", "--per-instance-log", str(log)])
        main(["detect", str(DATA / "hybrid_mixed.rules"), "--format", "structured", "--out", str(report)])
        return {"manifest": manifest, "predictions": predictions, "log": log, "report": report, "out": work / "m"}

    # No offline subcommand loads `dataclasses`, nor the `inspect` module that it pulls in.
    @pytest.mark.parametrize(
        "argv, not_loaded",
        [
            (["detect", str(BENIGN)], {"config", "records", "mutate", "evaluate", "hybrid", "client", "prompts"}),
            (["mutate", str(BENIGN), "--out-dir", "{out}", "--operators", "SAC"], {"evaluate", "hybrid", "client", "prompts"}),
            (["eval", "--manifest", "{manifest}", "--predictor", "detector"], {"config", "hybrid", "client"}),
            (["eval", "--manifest", "{manifest}", "--predictor", "echo"], {"config", "hybrid", "client"}),
            (["eval", "--manifest", "{manifest}", "--predictor", "constant:WAC"], {"config", "hybrid", "client"}),
            (["eval", "--manifest", "{manifest}", "--predictions", "{predictions}"], {"config", "hybrid", "client"}),
            (["eval", "--replay", "{log}"], {"config", "hybrid", "client"}),
            (["adjudicate", "{report}", "--stub", "accept-all"], {"config", "mutate", "evaluate"}),
        ],
        ids=["detect", "mutate", "eval-detector", "eval-echo", "eval-constant", "eval-predictions", "eval-replay",
             "adjudicate-stub"],
    )
    def test_each_subcommand_loads_only_its_own_modules(self, inputs, argv, not_loaded):
        argv = [arg.format(**inputs) for arg in argv]
        code = (
            "import contextlib, io, sys\n"
            "from ritkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main({argv!r})\n"
            "print(code, 'http.client' in sys.modules,\n"
            "      *sorted(m for m in sys.modules if m.startswith('ritkit.') or m in ('dataclasses', 'inspect')))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=self.ENV, timeout=60, capture_output=True, text=True, check=True
        )
        status, http_loaded, *modules = result.stdout.split()
        assert (status, http_loaded) == ("0", "False")
        loaded = {m.removeprefix("ritkit.") for m in modules}
        not_loaded = not_loaded | {"dataclasses", "inspect"}
        assert "cli" in loaded and loaded.isdisjoint(not_loaded), sorted(loaded & not_loaded)

    def test_detect_loads_neither_dataclasses_nor_inspect(self):
        code = (
            "import contextlib, io, sys\n"
            "from ritkit.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    main(['detect', {str(BENIGN)!r}])\n"
            "sys.exit(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules) or None)\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=self.ENV, timeout=60, capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")

    def test_backend_call_never_loads_requests(self):
        with MockBackendServer([(200, "WAC")], keep_alive=True) as server:
            code = (
                "import sys\n"
                "from ritkit.client import HttpBackend\n"
                "from ritkit.config import BackendConfig\n"
                f"answer = HttpBackend(BackendConfig(endpoint={server.endpoint!r}, model='m')).complete('p')\n"
                "sys.exit(answer != 'WAC' or 'requests' in sys.modules)\n"
            )
            result = subprocess.run([sys.executable, "-c", code], env=self.ENV, timeout=60)
        assert result.returncode == 0
        assert len(server.requests) == 1


class TestHelp:
    def test_every_flag_is_documented(self, capsys):
        parser = build_arg_parser()
        expected = {
            "detect": ["--format", "--out", "--lenient-matching"],
            "mutate": ["--out-dir", "--operators", "--strategy", "--sample-n", "--rng-seed", "--post-update-cascades"],
            "adjudicate": ["--stub", "--routed", "--audit-log", "--format", "--out", "--config"],
            "eval": [
                "--manifest",
                "--predictions",
                "--predictor",
                "--replay",
                "--experiment",
                "--shots",
                "--lenient-matching",
                "--per-instance-log",
                "--config",
            ],
        }
        subparsers = next(
            action for action in parser._actions if isinstance(action, type(parser._subparsers._group_actions[0]))
        )
        for command, flags in expected.items():
            with pytest.raises(SystemExit):
                subparsers.choices[command].parse_args(["--help"])
            help_text = capsys.readouterr().out
            for flag in flags:
                assert flag in help_text, f"{command} help is missing {flag}"

    def test_every_flag_the_readme_names_is_an_option(self):
        parser = build_arg_parser()
        commands = parser._subparsers._group_actions[0].choices.values()
        options = {opt for p in (parser, *commands) for action in p._actions for opt in action.option_strings}
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme)) - {"--no-build-isolation"}  # a pip flag
        assert named and named <= options, sorted(named - options)

    def test_experiment_choices_are_the_cells(self):
        from ritkit.evaluate import EXPERIMENT_CELLS

        subparsers = build_arg_parser()._subparsers._group_actions[0]
        experiment = next(a for a in subparsers.choices["eval"]._actions if a.dest == "experiment")
        assert tuple(experiment.choices) == tuple(EXPERIMENT_CELLS) == ("A", "B", "C", "D")


class TestTableStubCli:
    def test_table_stub_file_discards_selected_findings(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, "detect", str(DATA / "hybrid_mixed.rules"), "--format", "structured", "--out", str(report_path))
        report = parse_structured(report_path.read_text(encoding="utf-8"))

        from ritkit.detector import FineCategory, finding_key

        table = {
            finding_key(f): f.category is not FineCategory.WAC for f in report.findings
        }
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps(table), encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "adjudicate", str(report_path), "--stub", f"table:{table_path}"
        )
        assert code == 0
        assert "WAC: 0" in out
        # Non-routed and upheld findings survive.
        assert f"THREATS DETECTED: {report.total - report.counts['WAC']}" in out


class TestFailOpenCli:
    def test_unreachable_backend_fails_open(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli(capsys, "detect", str(DATA / "hybrid_mixed.rules"), "--format", "structured", "--out", str(report_path))
        config_path = tmp_path / "config.json"
        config_path.write_text(
            json.dumps(
                {
                    "backend": {
                        "endpoint": "http://127.0.0.1:9",  # nothing listens here
                        "model": "m",
                        "timeout": 0.2,
                        "max_retries": 0,
                    }
                }
            ),
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "adjudicate", str(report_path), "--config", str(config_path))
        assert code == 0
        assert "fail-open" in err
        # Recall preserved: the routed findings are still in the final report.
        assert "WAC: 1" in out and "WTC: 1" in out


class TestBackendPredictorCli:
    @pytest.fixture(autouse=True)
    def one_call_at_a_time(self, monkeypatch):
        """The mocks answer in script order, so the calls go out one at a time."""
        monkeypatch.setattr("ritkit.cli.BACKEND_JOBS", 1)

    def test_eval_with_mock_backend(self, capsys, tmp_path):
        from mock_backend import MockBackendServer
        from ritkit.mutate import Exhaustive, Seed, bundled_seed_paths, generate_corpus

        seeds = [Seed.load(p) for p in bundled_seed_paths()[:1]]
        manifest = generate_corpus(seeds, Exhaustive(), tmp_path / "corpus")
        script = [(200, record.operator) for record in manifest.records]
        with MockBackendServer(script) as server:
            config_path = tmp_path / "config.json"
            config_path.write_text(
                json.dumps({"backend": {"endpoint": server.endpoint, "model": "m", "timeout": 5.0}}),
                encoding="utf-8",
            )
            code, out, _ = run_cli(
                capsys,
                "eval",
                "--manifest",
                str(tmp_path / "corpus" / "manifest.jsonl"),
                "--predictor",
                "backend",
                "--config",
                str(config_path),
            )
        assert code == 0
        assert f"samples: {len(manifest.records)}" in out
        assert out.count("100.00%") >= 1  # scripted answers echo the truth

    @pytest.mark.parametrize(
        ("failing", "error_class"),
        [([(401, None)], "auth"), ([(429, None)] * 5, "rate-limited")],
        ids=["401", "five-429s"],
    )
    def test_backend_failure_is_named_and_warned(self, capsys, tmp_path, failing, error_class):
        from ritkit.mutate import Sample, Seed, bundled_seed_paths, generate_corpus

        seeds = [Seed.load(p) for p in bundled_seed_paths()[:1]]
        manifest = generate_corpus(seeds, Sample(3, rng_seed=1), tmp_path / "corpus")
        first, second, third = manifest.records
        # max_retries 4: the five 429s exhaust the second instance's call, and
        # the third instance is not asked.
        script = [(200, first.operator)] + failing + [(200, third.operator)]
        with MockBackendServer(script) as server:
            config_path = tmp_path / "config.json"
            backend = {"endpoint": server.endpoint, "model": "m", "timeout": 5.0, "max_retries": 4, "backoff_base": 0}
            config_path.write_text(json.dumps({"backend": backend}), encoding="utf-8")
            log_path = tmp_path / "log.jsonl"
            code, out, err = run_cli(
                capsys,
                "eval",
                "--manifest",
                str(tmp_path / "corpus" / "manifest.jsonl"),
                "--predictor",
                "backend",
                "--config",
                str(config_path),
                "--per-instance-log",
                str(log_path),
            )
        assert code == 0
        assert "samples: 3, parse failures: 2" in out
        assert len(server.requests) == 1 + len(failing)
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 2
        for warning, record in zip(warnings, (second, third)):
            assert f"backend:{error_class}" in warning and record.mutant_id in warning
        logs = [json.loads(line) for line in log_path.read_text(encoding="utf-8").splitlines()]
        assert [log["failure"] for log in logs] == [None, f"backend:{error_class}", f"backend:{error_class}"]
        assert logs[0]["labels"] == [first.operator]

    def test_backend_predictor_without_config_is_fatal(self, capsys, tmp_path):
        from ritkit.mutate import Exhaustive, Seed, bundled_seed_paths, generate_corpus

        seeds = [Seed.load(p) for p in bundled_seed_paths()[:1]]
        generate_corpus(seeds, Exhaustive(), tmp_path / "corpus")
        code, _, err = run_cli(
            capsys, "eval", "--manifest", str(tmp_path / "corpus" / "manifest.jsonl"), "--predictor", "backend"
        )
        assert code == 2 and "backend" in err


class TestExitCodeContract:
    @pytest.fixture()
    def report_path(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        run_cli(capsys, "detect", str(DATA / "hybrid_mixed.rules"), "--format", "structured", "--out", str(path))
        return path

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("n_files", [1, 2])
    def test_findings_exit_comes_with_the_complete_report(self, capsys, tmp_path, n_files, fmt, to_file):
        # One file has findings and a skipped rule block; the second, if any, is benign.
        mixed = tmp_path / "mixed.rules"
        broken = 'rule "broken"\nwhen\n    whatever nonsense\nthen\nend\n'
        mixed.write_text((DATA / "hybrid_mixed.rules").read_text(encoding="utf-8") + broken, encoding="utf-8")
        paths = [mixed, BENIGN][:n_files]
        reports = [detect_file(parse_ruleset(SourceFile.from_path(p))) for p in paths]
        if fmt == "text":
            want = "\n".join(render_text(r) for r in reports)
        else:
            want = render_structured(reports[0]) if n_files == 1 else render_structured_lines(reports)
        report = tmp_path / "report.out"
        argv = ["detect", *map(str, paths), "--format", fmt] + (["--out", str(report)] if to_file else [])
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and reports[0].total > 0
        assert (report.read_text(encoding="utf-8"), out) == (want, "") if to_file else out == want
        assert err.startswith(f"{mixed}:") and "error: rule block skipped" in err

    def test_deep_nesting_is_diagnosed_not_fatal(self, capsys, tmp_path):
        rules = tmp_path / "deep.rules"
        body = "    if (X == ON) {\n" * 500 + "    sendCommand(Y, ON)\n" + "    }\n" * 500
        rules.write_text(f'rule "deep"\nwhen\n    System started\nthen\n{body}end\n', encoding="utf-8")
        code, out, err = run_cli(capsys, "detect", str(rules))
        assert code == 0 and "THREATS DETECTED: 0" in out
        assert err == f"{rules}:105:5: error: rule block skipped: if blocks nested deeper than 100 levels\n"

    def test_table_stub_without_entry_is_fatal(self, capsys, tmp_path, report_path):
        table = tmp_path / "table.json"
        table.write_text("{}", encoding="utf-8")
        first = next(f for f in parse_structured(report_path.read_text()).findings if f.category in DEFAULT_ROUTED_SET)
        key = finding_key(first)
        message = run_fatal(capsys, "adjudicate", str(report_path), "--stub", f"table:{table}")
        assert message == f"{table}: table stub has no entry for {key + '::trigger-overlap'!r} or {key!r}"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: [1], "not a JSON object"),
            (lambda doc: {"schema_version": 1, "file": "x", "findings": "abc"}, "findings must be a list"),
            (lambda doc: doc["findings"][0].__delitem__("rule_a"), "findings[0]: missing key 'rule_a'"),
            (lambda doc: doc.update(file=5), "file must be a string"),
            (
                lambda doc: doc["findings"][1].update(rule_b={"id": "r2"}),
                "findings[1].rule_b: missing key 'name'",
            ),
            (lambda doc: doc["findings"][0].update(triggers_a={}), "findings[0].triggers_a must be a list"),
            (lambda doc: doc["findings"][0]["conditions_b"].append("c1"), "findings[0].conditions_b[0] must be a JSON object"),
            (lambda doc: doc["findings"][0].update(action_a=[]), "findings[0].action_a must be a JSON object"),
            (
                lambda doc: doc["findings"][0].update(threat_pair=["r1a1"]),
                "findings[0].threat_pair must be a list of 2 values",
            ),
            (
                lambda doc: doc["findings"][0].update(action_b=None),
                "findings[0].action_b must not be null in a WAC finding",
            ),
            (
                lambda doc: doc["findings"][2].update(trigger_b=None),
                "findings[2].trigger_b must not be null in a WTC finding",
            ),
            (lambda doc: doc["findings"][0].update(description=None), "findings[0].description must be a string"),
            (lambda doc: doc["findings"][0].update(category="XYZ"), "findings[0].category must be one of WAC, SAC, WTC, STC, WCC, SCC"),
            (lambda doc: doc.update(schema_version=True), "schema_version must be 1"),
            (lambda doc: doc.update(schema_version=1.0), "schema_version must be 1"),
        ],
        ids=[
            "list", "findings-string", "no-rule_a", "file-number", "rule-id-only", "triggers-object",
            "condition-string", "action-list", "short-pair", "ac-without-action_b", "tc-without-trigger_b",
            "no-description", "bad-category", "version-true", "version-float",
        ],
    )
    def test_bad_report_is_named(self, capsys, tmp_path, report_path, edit, message):
        doc = json.loads(report_path.read_text(encoding="utf-8"))
        doc = edit(doc) or doc
        report = tmp_path / "c.json"
        report.write_text(json.dumps(doc), encoding="utf-8")
        assert run_fatal(capsys, "adjudicate", str(report), "--stub", "accept-all") == f"cannot load report {report}: {message}"

    def test_unknown_routed_category_is_fatal(self, capsys, report_path):
        message = run_fatal(capsys, "adjudicate", str(report_path), "--stub", "accept-all", "--routed", "WAC,BOGUS")
        assert message == "unknown category: --routed names 'BOGUS' (SAC, WAC, STC, WTC, SCC, WCC)"

    @pytest.mark.parametrize(
        "value, problem",
        [
            ("", "unknown category: {flag} names '' (SAC, WAC, STC, WTC, SCC, WCC)"),
            ("SAC,", "unknown category: {flag} names '' (SAC, WAC, STC, WTC, SCC, WCC)"),
            ("SAC,SAC", "{flag} names SAC twice"),
            ("WAC,WTC,WAC", "{flag} names WAC twice"),
        ],
        ids=["empty", "trailing-comma", "repeated", "repeated-later"],
    )
    @pytest.mark.parametrize("flag", ["--operators", "--routed"])
    def test_category_list_must_name_each_category_once(self, capsys, tmp_path, report_path, flag, value, problem):
        out_dir = tmp_path / "x"
        if flag == "--operators":
            argv = ["mutate", str(BENIGN), "--out-dir", str(out_dir)]
        else:
            argv = ["adjudicate", str(report_path), "--stub", "accept-all"]
        assert run_fatal(capsys, *argv, flag, value) == problem.format(flag=flag)
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["detect", str(DATA / "hybrid_mixed.rules"), "--out"],
            ["adjudicate", "{report}", "--stub", "accept-all", "--out"],
            ["adjudicate", "{report}", "--stub", "accept-all", "--audit-log"],
            ["eval", "--manifest", "{truth}", "--predictor", "echo", "--per-instance-log"],
        ],
        ids=["detect-out", "adjudicate-out", "adjudicate-audit-log", "eval-per-instance-log"],
    )
    def test_output_that_cannot_be_written_is_named(self, capsys, tmp_path, report_path, argv):
        truth = tmp_path / "truth.jsonl"
        entry = {"instance_id": "a", "source": "a.rules", "rule_a": "r1", "rule_b": "r2", "fine": "SAC"}
        truth.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        out = tmp_path / "missing" / "out.txt"
        argv = [arg.format(report=report_path, truth=truth) for arg in argv]
        assert run_fatal(capsys, *argv, str(out)) == f"cannot write {out}: No such file or directory"

    def test_empty_instance_file_under_the_backend_is_named(self, capsys, tmp_path):
        empty = tmp_path / "empty.rules"
        empty.write_text("", encoding="utf-8")
        truth = tmp_path / "truth.jsonl"
        entries = [
            {"instance_id": "a", "source": str(empty), "rule_a": "r1", "rule_b": "r2", "fine": "SAC"},
            {"instance_id": "b", "source": str(BENIGN), "rule_a": "r1", "rule_b": "r2", "fine": "SAC"},
        ]
        truth.write_text("".join(json.dumps(entry) + "\n" for entry in entries), encoding="utf-8")
        with socket.socket() as sock:  # a port that nothing listens on once the socket closes
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"endpoint": f"http://127.0.0.1:{port}/v1", "model": "m"}}), encoding="utf-8")
        argv = ["eval", "--manifest", str(truth), "--predictor", "backend", "--config", str(config)]
        assert run_fatal(capsys, *argv) == f"cannot read instance file {empty}: ruleset text must be nonempty"

    def test_negative_sample_size_names_the_flag(self, capsys, tmp_path):
        argv = ["mutate", "--out-dir", str(tmp_path / "x"), "--strategy", "sample", "--sample-n", "-1", "--rng-seed", "1"]
        assert run_fatal(capsys, *argv) == "--sample-n must be >= 0, not -1"

    @pytest.mark.parametrize("flag", ["--sample-n", "--rng-seed"])
    @pytest.mark.parametrize("strategy", [[], ["--strategy", "exhaustive"]], ids=["default", "exhaustive"])
    def test_sample_flag_without_sampling_is_fatal(self, capsys, tmp_path, strategy, flag):
        message = run_fatal(capsys, "mutate", "--out-dir", str(tmp_path / "x"), *strategy, flag, "3")
        assert message == f"{flag} needs --strategy sample"
        assert not (tmp_path / "x").exists()

    def test_missing_seed_is_named(self, capsys, tmp_path):
        missing = tmp_path / "missing.rules"
        message = run_fatal(capsys, "mutate", str(BENIGN), str(missing), "--out-dir", str(tmp_path / "x"))
        assert message == f"no such file or directory: {missing}"

    def test_seed_that_is_not_utf8_is_named(self, capsys, tmp_path):
        seed = tmp_path / "latin1.rules"
        seed.write_bytes(BENIGN.read_bytes() + "// caf\xe9\n".encode("latin-1"))
        message = run_fatal(capsys, "mutate", str(seed), "--out-dir", str(tmp_path / "x"))
        assert message.startswith(f"cannot read {seed}: 'utf-8' codec can't decode")

    def test_eval_instance_file_that_is_not_utf8_is_named(self, capsys, tmp_path):
        argv = ["--out-dir", str(tmp_path / "corpus"), "--strategy", "sample", "--sample-n", "3", "--rng-seed", "1"]
        assert run_cli(capsys, "mutate", *argv)[0] == 0
        manifest = tmp_path / "corpus" / "manifest.jsonl"
        mutant = json.loads(manifest.read_text(encoding="utf-8").splitlines()[1])["output_path"]
        with open(mutant, "ab") as fh:
            fh.write(b"\xe9")
        message = run_fatal(capsys, "eval", "--manifest", str(manifest), "--predictor", "detector")
        assert message.startswith(f"cannot read instance file {mutant}: 'utf-8' codec can't decode byte 0xe9 ")

    def test_empty_replay_log_is_named(self, capsys, tmp_path):
        log = tmp_path / "empty.jsonl"
        log.write_text("", encoding="utf-8")
        assert run_fatal(capsys, "eval", "--replay", str(log)) == "replay log is empty"

    def test_stub_and_config_exclude_each_other(self, capsys, tmp_path, report_path):
        argv = ["adjudicate", str(report_path), "--stub", "accept-all", "--config", str(tmp_path / "nonexistent.json")]
        assert run_usage_error(capsys, *argv) == "argument --config: not allowed with argument --stub"

    @pytest.mark.parametrize("config", [None, {}, {"backend": None}], ids=["no-config", "empty", "null-backend"])
    def test_adjudicate_without_a_backend_is_fatal(self, capsys, tmp_path, report_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        argv = ["adjudicate", str(report_path)] + ([] if config is None else ["--config", str(path)])
        assert run_fatal(capsys, *argv) == "no backend configured; pass --stub or a config with a backend"

    @pytest.mark.parametrize(
        "content, problem",
        [
            (None, "[Errno 2] No such file or directory: '{table}'"),
            (b"", "Expecting value: line 1 column 1 (char 0)"),
            (b'{"SAC:r1:r2:r1a1:r2a1": tru}', "Expecting value: line 1 column 25 (char 24)"),
            (b'{"k": true}\xe9', "'utf-8' codec can't decode byte 0xe9 in position 11: unexpected end of data"),
        ],
        ids=["missing", "empty", "bad-json", "not-utf8"],
    )
    def test_table_stub_that_cannot_be_loaded_is_named(self, capsys, tmp_path, report_path, content, problem):
        table = tmp_path / "table.json"
        if content is not None:
            table.write_bytes(content)
        message = run_fatal(capsys, "adjudicate", str(report_path), "--stub", f"table:{table}")
        assert message == f"cannot load table stub {table}: {problem.format(table=table)}"

    def test_table_stub_must_map_keys_to_booleans(self, capsys, tmp_path, report_path):
        key = "SAC:r1:r2:r1a1:r2a1"
        for doc, problem in (([], "not a JSON object"), ({key: "yes"}, f'["{key}"] must be true or false')):
            table = tmp_path / "table.json"
            table.write_text(json.dumps(doc), encoding="utf-8")
            message = run_fatal(capsys, "adjudicate", str(report_path), "--stub", f"table:{table}")
            assert message == f"cannot load table stub {table}: {problem}"
