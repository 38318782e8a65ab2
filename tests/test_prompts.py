from __future__ import annotations

import string

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from ritkit.prompts import (
    COARSE_LABELS,
    FINE_LABELS,
    PARSE_FAILURE_AMBIGUOUS,
    PARSE_FAILURE_BLANK,
    PARSE_FAILURE_NO_LABEL,
    ExperimentConfig,
    ParseFailure,
    build_prompt,
    parse_model_response,
    scan_labels,
)

RULESET = 'rule "demo"\nwhen\n    System started\nthen\n    sendCommand(X, ON)\nend\n'


def fixture_ruleset(data_dir) -> str:
    return (data_dir / "ac_sprinkler_vs_windows.rules").read_text(encoding="utf-8")


class TestBuildPrompt:
    @pytest.mark.parametrize(
        "name,template",
        [
            ("zero_shot_six_multi", ExperimentConfig(taxonomy="six", multi_response=True, shots=0)),
            ("one_shot_six_multi", ExperimentConfig(taxonomy="six", multi_response=True, shots=1)),
            ("two_shot_six_single", ExperimentConfig(taxonomy="six", multi_response=False, shots=2)),
            ("zero_shot_three_single", ExperimentConfig(taxonomy="three", multi_response=False, shots=0)),
        ],
    )
    def test_prompts_match_goldens(self, name, template, golden_dir, data_dir):
        golden = (golden_dir / "prompts" / f"{name}.txt").read_text(encoding="utf-8")
        assert build_prompt(template, fixture_ruleset(data_dir)) == golden

    def test_zero_shot_has_definitions_but_no_examples(self, data_dir):
        prompt = build_prompt(ExperimentConfig(), fixture_ruleset(data_dir))
        assert "Weak Action Contradiction (WAC)" in prompt
        assert "Strong Action Contradiction (SAC)" in prompt
        assert "Example:" not in prompt.split("OUTPUT FORMAT")[0]

    def test_one_shot_embeds_carbon_monoxide_example(self, data_dir):
        prompt = build_prompt(ExperimentConfig(shots=1), fixture_ruleset(data_dir))
        assert 'rule "Carbon Monoxide Alert"' in prompt
        for label in FINE_LABELS:
            assert f"({label})" in prompt
        assert prompt.count("Example:") >= 6  # one per category

    def test_two_shot_is_strictly_longer_than_one_shot(self, data_dir):
        text = fixture_ruleset(data_dir)
        one = build_prompt(ExperimentConfig(shots=1), text)
        two = build_prompt(ExperimentConfig(shots=2), text)
        assert len(two) > len(one)
        assert two.count("Example 2:") == 6

    def test_output_format_asks_for_acronyms(self, data_dir):
        text = fixture_ruleset(data_dir)
        multi = build_prompt(ExperimentConfig(), text)
        assert "Return only the 3-letter acronyms" in multi
        assert "Example: WAC,STC" in multi
        single = build_prompt(ExperimentConfig(multi_response=False), text)
        assert "single 3-letter acronym" in single
        three = build_prompt(ExperimentConfig(taxonomy="three"), text)
        assert "2-letter acronyms" in three and "Example: AC,TC" in three

    def test_ruleset_is_appended_after_task_line(self, data_dir):
        text = fixture_ruleset(data_dir)
        prompt = build_prompt(ExperimentConfig(), text)
        assert prompt.endswith(f"The rules that you must analyze are:\n{text}")

    def test_byte_determinism(self):
        t = ExperimentConfig(taxonomy="three", multi_response=False, shots=2)
        assert build_prompt(t, RULESET) == build_prompt(t, RULESET)

    def test_empty_ruleset_rejected(self):
        with pytest.raises(ValueError):
            build_prompt(ExperimentConfig(), "   \n")

    def test_template_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(shots=3)
        with pytest.raises(ValueError):
            ExperimentConfig(taxonomy="nine")


class TestParseModelResponse:
    def test_comma_separated_pair(self):
        assert parse_model_response("WAC,STC", "six", True) == ("WAC", "STC")

    def test_lowercase_is_folded(self):
        assert parse_model_response("wac", "six", True) == ("WAC",)

    def test_prose_without_labels_fails(self):
        for text in ("I think there is no threat.", "sacred", "The rules look wacky"):
            result = parse_model_response(text, "six", True)
            assert isinstance(result, ParseFailure) and result.kind == PARSE_FAILURE_NO_LABEL

    def test_blank_output_fails(self):
        result = parse_model_response("  \n ", "six", True)
        assert isinstance(result, ParseFailure) and result.kind == PARSE_FAILURE_BLANK

    def test_single_mode_rejects_multiple_labels(self):
        result = parse_model_response("WAC, STC", "six", False)
        assert isinstance(result, ParseFailure) and result.kind == PARSE_FAILURE_AMBIGUOUS

    def test_reasoning_preamble_is_skipped(self):
        text = "Let me think about WCC here.\nThe triggers overlap and actions conflict.\nSAC"
        assert parse_model_response(text, "six", True) == ("SAC",)

    def test_last_labeled_line_wins(self):
        text = "Candidates: WAC, WTC\nFinal answer: STC"
        assert parse_model_response(text, "six", True) == ("STC",)

    def test_coarse_taxonomy_accepts_two_letter_labels(self):
        assert parse_model_response("ac", "three", True) == ("AC",)
        missed = parse_model_response("WAC", "three", True)
        assert isinstance(missed, ParseFailure)

    def test_duplicates_collapse_in_order(self):
        assert parse_model_response("WAC, wac, SCC", "six", True) == ("WAC", "SCC")

    def test_labels_extracted_from_surrounding_punctuation(self):
        assert parse_model_response("Answer: [WAC].", "six", True) == ("WAC",)

    def test_all_labels_recognized(self):
        for label in FINE_LABELS:
            assert parse_model_response(label, "six", True) == (label,)
        for label in COARSE_LABELS:
            assert parse_model_response(label, "three", True) == (label,)

    @given(
        st.sampled_from([(vocab, word) for vocab in (FINE_LABELS, COARSE_LABELS, ("YES", "NO")) for word in vocab]),
        st.text(string.ascii_letters, max_size=4),
        st.text(string.ascii_letters, max_size=4),
        st.sampled_from([str.upper, str.lower, str.title]),
        st.booleans(),
    )
    def test_word_inside_longer_run_of_letters_is_no_label(self, choice, prefix, suffix, case, multi_allowed):
        assume(prefix or suffix)
        vocabulary, word = choice
        result = scan_labels(f"Answer: {prefix}{case(word)}{suffix}.", vocabulary, multi_allowed)
        assert isinstance(result, ParseFailure) and result.kind == PARSE_FAILURE_NO_LABEL
