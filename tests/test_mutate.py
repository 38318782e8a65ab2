from __future__ import annotations

import hashlib
import json
import os
import re
from collections import Counter
from pathlib import Path

import oracle
import pytest
from conftest import load_bench_generator
from hypothesis import given, settings
from hypothesis import strategies as st

from ritkit.detector import CATEGORY_ORDER, FineCategory, detect_file, detect_pair, detect_pairs_touching
from ritkit.ir import rule_source
from ritkit.mutate import (
    Exhaustive,
    MISS_STRICT_MATCHING,
    MutantManifest,
    MutationError,
    OPERATORS,
    Sample,
    Seed,
    TransformContext,
    _mutant_rules,
    _splice,
    apply_operator,
    bundled_seed_paths,
    enumerate_eligible_pairs,
    generate_corpus,
)
from ritkit.parser import parse_ruleset
from ritkit.source import SourceFile

TWO_RULE_SEED = """\
rule "lamp control"
when
    Time cron "0 30 08 * * ?"
then
    sendCommand(Desk_Lamp, ON)
end

rule "shade control"
when
    Shade_Button changed to ON
then
    if (Shade_Mode == "Auto") {
        sendCommand(Window_Shade, DOWN)
    }
end
"""


@pytest.fixture(scope="module")
def seeds():
    return [Seed.load(p) for p in bundled_seed_paths()]


@pytest.fixture()
def small_seed():
    return Seed.from_text(TWO_RULE_SEED, path="two_rule_seed.rules")


@pytest.fixture(scope="module")
def mutation_dataset(seeds, tmp_path_factory):
    """The bundled seeds' exhaustive corpus and their postUpdate-cascade corpus."""
    corpora = {}
    for mode, post_update in (("exhaustive", False), ("post-update-cascades", True)):
        out = tmp_path_factory.mktemp(mode)
        corpora[mode] = (generate_corpus(seeds, Exhaustive(), out, post_update_cascades=post_update), out)
    return corpora


def corpus_digest(out_dir: Path) -> str:
    """SHA-256 of a corpus's mutant files and manifest, paths reduced to file names."""
    prefixes = [json.dumps(f"{d}{os.sep}")[1:-1].encode() for d in (out_dir, bundled_seed_paths()[0].parent)]
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.jsonl":
            for prefix in prefixes:
                data = data.replace(prefix, b"")
        digest.update(path.name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def pair_categories(text: str, pair: tuple[str, str], strict: bool = True) -> set[FineCategory]:
    rs = parse_ruleset(SourceFile.from_text(text, "<mutant>"))
    report = detect_file(rs, strict)
    return {f.category for f in report.findings if {f.rule_a.id, f.rule_b.id} == set(pair)}


class TestEligibility:
    def test_two_rule_seed_has_one_sac_pair(self, small_seed):
        pairs = enumerate_eligible_pairs(small_seed.ruleset, OPERATORS[FineCategory.SAC])
        assert pairs == [("r1", "r2")]

    def test_single_rule_file_has_no_pairs(self):
        seed = Seed.from_text('rule "solo"\nwhen\n    System started\nthen\n    sendCommand(X, ON)\nend\n')
        for op in OPERATORS.values():
            assert enumerate_eligible_pairs(seed.ruleset, op) == []

    def test_unguarded_target_ineligible_for_condition_cascades(self):
        seed = Seed.from_text(
            'rule "a"\nwhen\n    System started\nthen\n    if (g == ON) {\n        sendCommand(X, ON)\n    }\nend\n'
            'rule "b"\nwhen\n    System started\nthen\n    sendCommand(Y, ON)\nend\n'
        )
        assert ("r1", "r2") not in enumerate_eligible_pairs(seed.ruleset, OPERATORS[FineCategory.SCC])
        assert ("r1", "r2") not in enumerate_eligible_pairs(seed.ruleset, OPERATORS[FineCategory.WCC])
        # The reverse direction targets rule a, which has a guarded action.
        assert ("r2", "r1") in enumerate_eligible_pairs(seed.ruleset, OPERATORS[FineCategory.SCC])

    def test_cascade_operators_use_ordered_pairs(self, small_seed):
        pairs = enumerate_eligible_pairs(small_seed.ruleset, OPERATORS[FineCategory.STC])
        assert pairs == [("r1", "r2"), ("r2", "r1")]


class TestApplyOperator:
    @pytest.mark.parametrize("category", CATEGORY_ORDER)
    def test_detector_recovers_target(self, small_seed, category):
        op = OPERATORS[category]
        pairs = enumerate_eligible_pairs(small_seed.ruleset, op)
        assert pairs, category
        text, record = apply_operator(small_seed, pairs[0], op)
        assert record.miss_cause is None
        assert category in pair_categories(text, pairs[0])

    def test_mutant_text_differs_only_within_pair(self, seeds):
        seed = seeds[0]
        op = OPERATORS[FineCategory.SAC]
        pair = enumerate_eligible_pairs(seed.ruleset, op)[0]
        text, _ = apply_operator(seed, pair, op)
        spans = sorted(r.span for r in seed.ruleset.rules if r.id in pair)
        # Text before, between and after the two replaced rule blocks is kept.
        (s1, e1), (s2, e2) = spans
        assert text.startswith(seed.text[:s1])
        assert seed.text[e1:s2] in text
        assert text.endswith(seed.text[e2:])

    def test_ineligible_pair_is_an_explicit_error(self, small_seed):
        with pytest.raises(MutationError):
            apply_operator(small_seed, ("r1", "r1"), OPERATORS[FineCategory.SAC])

    def test_strong_operators_leave_no_conditions(self, small_seed):
        for category in (FineCategory.SAC, FineCategory.STC):
            op = OPERATORS[category]
            pair = enumerate_eligible_pairs(small_seed.ruleset, op)[0]
            text, _ = apply_operator(small_seed, pair, op)
            rs = parse_ruleset(SourceFile.from_text(text))
            for rule in rs.rules:
                if rule.id in pair:
                    assert rule.all_conditions() == ()

    def test_postupdate_variant_reproduces_strict_miss(self, small_seed):
        for category in (FineCategory.STC, FineCategory.WTC):
            op = OPERATORS[category]
            pair = enumerate_eligible_pairs(small_seed.ruleset, op)[0]
            text, record = apply_operator(small_seed, pair, op, post_update_variant=True)
            assert record.miss_cause == MISS_STRICT_MATCHING
            assert category not in pair_categories(text, pair, strict=True)
            assert category in pair_categories(text, pair, strict=False)


# Where a rule block starts in a bundled seed or its mutant: `rule "` at a line start.
_BLOCK_START = re.compile(r'(?m)^(?=rule ")')
_PADDING = ("\n", "\n\n", " \t", "// note\n", '// rule "ghost" when then end\n', "/* block */", '/* rule "hidden"\nwhen */\n')


def finding_identities(ruleset, strict: bool) -> set[tuple]:
    report = detect_file(ruleset, strict)
    return {(f.category, f.rule_a.id, f.rule_b.id, f.threat_pair) for f in report.findings}


class TestCommentAndWhitespaceInvariance:
    """Comments and blank lines between rule blocks move every position and change nothing else."""

    @pytest.fixture(scope="class")
    def jobs(self, seeds):
        return [
            (seed, op, pair)
            for seed in seeds
            for op in OPERATORS.values()
            for pair in enumerate_eligible_pairs(seed.ruleset, op)
        ]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_padding_between_rule_blocks(self, jobs, data):
        seed, op, pair = data.draw(st.sampled_from(jobs))
        post_update = data.draw(st.booleans())
        n_chunks = len(_BLOCK_START.split(seed.text))  # the text before the first block, then one per block
        gap = st.lists(st.sampled_from(_PADDING), max_size=3).map("".join)
        pads = data.draw(st.lists(gap, min_size=n_chunks, max_size=n_chunks))

        def pad(text: str) -> str:
            chunks = _BLOCK_START.split(text)
            assert len(chunks) == n_chunks
            return "".join(chunk + padding for chunk, padding in zip(chunks, pads))

        padded = Seed.from_text(pad(seed.text), seed.path)
        plain_text, plain_record = apply_operator(seed, pair, op, post_update)
        padded_text, padded_record = apply_operator(padded, pair, op, post_update)
        # The padding survives byte for byte, and the rewrite is the same.
        assert padded_text == pad(plain_text)
        assert padded_record == plain_record
        mutant = parse_ruleset(SourceFile.from_text(plain_text))
        padded_mutant = parse_ruleset(SourceFile.from_text(padded_text))
        for strict in (True, False):
            assert finding_identities(padded.ruleset, strict) == finding_identities(seed.ruleset, strict)
            assert finding_identities(padded_mutant, strict) == finding_identities(mutant, strict)


def check_incremental_validation(seed: Seed, op, pair: tuple[str, str], post_update: bool) -> int:
    """Both rewrites of `pair` (plain and fresh items) give, without a whole-file
    parse or detect, the rules and findings that one would. Returns how many
    rewrites parsed."""
    a, b = (next(r for r in seed.ruleset.rules if r.id == rule_id) for rule_id in pair)
    checked = 0
    for fresh in (False, True):
        try:
            new_a, new_b, _ = op.transform(TransformContext(seed.ruleset, fresh, post_update), a, b)
        except MutationError:
            continue
        blocks = {a.id: rule_source(new_a), b.id: rule_source(new_b)}
        whole = parse_ruleset(SourceFile.from_text(_splice(seed, blocks), seed.path))
        try:
            rules = _mutant_rules(seed, blocks)
        except MutationError as exc:
            assert whole.errors() and str(exc) == f"mutant does not parse: {whole.errors()[0].message}"
            continue
        assert not whole.errors()
        assert rules == whole.rules  # spans included
        rewritten = [k for k, rule in enumerate(rules) if rule.id in blocks]
        for strict in (True, False):
            findings = detect_file(whole, strict).findings
            touching = [f for f in findings if {f.rule_a.id, f.rule_b.id} & set(pair)]
            assert detect_pairs_touching(rules, rewritten, strict) == touching
            on_pair = [f for f in findings if {f.rule_a.id, f.rule_b.id} == set(pair)]
            assert detect_pair(*(rules[k] for k in rewritten), strict) == on_pair
            # Every other pair keeps the seed's findings.
            untouched = [f for f in findings if not {f.rule_a.id, f.rule_b.id} & set(pair)]
            seed_untouched = [f for f in detect_file(seed.ruleset, strict).findings if not {f.rule_a.id, f.rule_b.id} & set(pair)]
            assert untouched == seed_untouched
        checked += 1
    return checked


class TestIncrementalValidation:
    """Validation parses and detects only the rewritten pair, and sees what a whole-file pass would."""

    def test_every_rewrite_of_the_bundled_corpora(self, seeds):
        checked = 0
        for seed in seeds:
            for op in OPERATORS.values():
                for pair in enumerate_eligible_pairs(seed.ruleset, op):
                    # Only trigger cascades have a postUpdate variant.
                    for post_update in (False, True) if op.trigger_cascade else (False,):
                        checked += check_incremental_validation(seed, op, pair, post_update)
        assert checked >= 544  # at least every mutant of the two corpora

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rewrites_of_generated_seeds(self, data):
        n_rules = data.draw(st.integers(2, 8))
        text = load_bench_generator().generate_rules(data.draw(st.integers(0, 10_000)), n_rules, data.draw(st.integers(2, 12)))
        seed = Seed.from_text(text, "gen.rules")
        jobs = [(op, pair) for op in OPERATORS.values() for pair in enumerate_eligible_pairs(seed.ruleset, op)]
        op, pair = data.draw(st.sampled_from(jobs))
        check_incremental_validation(seed, op, pair, data.draw(st.booleans()))


class TestFreshItemFallback:
    # SAC and WAC on (r1, r2) first command Lamp OFF in r2, which fires r3: a
    # cascade outside the pair, so the retry moves the injection to a fresh item.
    LEAKY_SEED = (
        'rule "r1"\nwhen\n    System started\nthen\n    sendCommand(Lamp, ON)\nend\n'
        'rule "r2"\nwhen\n    Time cron "0 0 8 * * ?"\nthen\n    sendCommand(Fan, ON)\nend\n'
        'rule "r3"\nwhen\n    Item Lamp changed to OFF\nthen\n    sendCommand(Siren, ON)\nend\n'
    )

    @pytest.mark.parametrize("category", [FineCategory.SAC, FineCategory.WAC])
    def test_retry_with_fresh_names(self, category):
        seed = Seed.from_text(self.LEAKY_SEED, path="leaky.rules")
        text, record = apply_operator(seed, ("r1", "r2"), OPERATORS[category])
        assert record.injected["item"] == "Lamp_mut" and record.miss_cause is None
        if category is FineCategory.WAC:
            assert record.injected["condition_added"] == "mut_guard_proxy == ON"
        assert "sendCommand(Lamp_mut, OFF)" in text
        assert category in pair_categories(text, ("r1", "r2"))

    def test_both_attempts_failing_is_an_error(self):
        seed = Seed.from_text(load_bench_generator().generate_rules(67, 3, 4), path="gen67.rules")
        assert detect_file(seed.ruleset).total == 0
        with pytest.raises(MutationError, match=r"^transform inapplicable for WAC on \('r1', 'r2'\): "):
            apply_operator(seed, ("r1", "r2"), OPERATORS[FineCategory.WAC])


class TestCorpus:
    def test_exhaustive_corpus_properties(self, seeds, tmp_path):
        manifest = generate_corpus(seeds, Exhaustive(), tmp_path / "corpus")
        assert len(manifest.records) > 0

        # Validity: every mutant re-parses with zero error diagnostics.
        for record in manifest.records:
            rs = parse_ruleset(SourceFile.from_path(record.output_path))
            assert rs.errors() == (), record.mutant_id

        # Recovery: default variants are always found by the detector.
        assert all(r.miss_cause is None for r in manifest.records)

        # Manifest integrity: totals equal files on disk per category.
        on_disk = list((tmp_path / "corpus").glob("m*.rules"))
        assert len(on_disk) == len(manifest.records)
        counted = Counter(r.operator for r in manifest.records)
        assert manifest.totals() == {cat.value: counted.get(cat.value, 0) for cat in CATEGORY_ORDER}

        # Corpus size equals the sum of per-operator eligible pair counts.
        expected = sum(
            len(enumerate_eligible_pairs(seed.ruleset, OPERATORS[cat]))
            for seed in seeds
            for cat in CATEGORY_ORDER
        )
        assert len(manifest.records) == expected

    def test_single_injection_attribution(self, seeds, tmp_path):
        manifest = generate_corpus(seeds[:4], Exhaustive(), tmp_path / "corpus")
        by_path = {seed.path: seed for seed in seeds[:4]}
        for record in manifest.records[:40]:
            seed = by_path[record.seed_file]
            seed_report = detect_file(seed.ruleset)
            mutant_report = detect_file(parse_ruleset(SourceFile.from_path(record.output_path)))
            baseline = {(f.category, f.rule_a.id, f.rule_b.id, f.threat_pair) for f in seed_report.findings}
            for f in mutant_report.findings:
                if (f.category, f.rule_a.id, f.rule_b.id, f.threat_pair) not in baseline:
                    assert {f.rule_a.id, f.rule_b.id} == {record.rule_a, record.rule_b}

    def test_sampling_is_deterministic(self, seeds, tmp_path):
        first = generate_corpus(seeds, Sample(10, rng_seed=7), tmp_path / "one")
        second = generate_corpus(seeds, Sample(10, rng_seed=7), tmp_path / "two")
        strip = lambda m: [(r.mutant_id, r.operator, r.rule_a, r.rule_b, r.injected) for r in m.records]  # noqa: E731
        assert strip(first) == strip(second)

    def test_six_mutants_from_one_pair_per_operator(self, tmp_path):
        seed = Seed.from_text(
            'rule "a"\nwhen\n    System started\nthen\n    if (p == ON) {\n        sendCommand(X, ON)\n    }\nend\n'
            'rule "b"\nwhen\n    Widget changed to ON\nthen\n    if (q == ON) {\n        sendCommand(Y, ON)\n    }\nend\n'
        )
        manifest = generate_corpus([seed], Exhaustive(), tmp_path / "six")
        # AC operators see one unordered pair; cascades see both directions.
        assert manifest.totals() == {"SAC": 1, "WAC": 1, "STC": 2, "WTC": 2, "SCC": 2, "WCC": 2}

    def test_sample_larger_than_population_is_error(self, seeds, tmp_path):
        with pytest.raises(MutationError):
            generate_corpus(seeds[:1], Sample(10_000, rng_seed=1), tmp_path / "big")

    def test_manifest_round_trip(self, seeds, tmp_path):
        manifest = generate_corpus(seeds[:2], Sample(5, rng_seed=3), tmp_path / "rt")
        loaded = MutantManifest.load(tmp_path / "rt" / "manifest.jsonl")
        assert loaded.records == manifest.records

    def test_unwritable_output_dir_fails_before_writing(self, seeds, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory", encoding="utf-8")
        with pytest.raises(MutationError):
            generate_corpus(seeds[:1], Exhaustive(), blocked / "sub")


class TestBundledSeeds:
    def test_fifteen_benign_seeds(self, seeds):
        assert len(seeds) == 15
        for seed in seeds:
            assert detect_file(seed.ruleset).total == 0, seed.path
            assert seed.ruleset.diagnostics == (), seed.path

    def test_every_operator_has_eligible_pairs_somewhere(self, seeds):
        for cat in CATEGORY_ORDER:
            count = sum(len(enumerate_eligible_pairs(s.ruleset, OPERATORS[cat])) for s in seeds)
            assert count > 0, cat


class TestMutationDataset:
    def test_every_record_is_confirmed_by_the_oracle(self, mutation_dataset):
        records = [r for manifest, _ in mutation_dataset.values() for r in manifest.records]
        for record in records:
            rs = parse_ruleset(SourceFile.from_path(record.output_path))

            def on_pair(strict: bool) -> set[str]:
                found = oracle.oracle_detect_file(rs, strict)
                return {cat for cat, a, b, _ in found if {a, b} == {record.rule_a, record.rule_b}}

            if record.miss_cause is None:
                assert record.operator in on_pair(strict=True), record.mutant_id
            else:
                assert record.miss_cause == MISS_STRICT_MATCHING, record.mutant_id
                assert record.operator not in on_pair(strict=True), record.mutant_id
                assert record.operator in on_pair(strict=False), record.mutant_id
        assert (len(records), sum(r.miss_cause is not None for r in records)) == (544, 140)

    def test_corpora_match_the_golden_digest(self, mutation_dataset, golden_dir):
        lines = (golden_dir / "mutation_corpus.sha256").read_text(encoding="utf-8").splitlines()
        want = {mode: digest for digest, mode in (line.split() for line in lines)}
        assert {mode: corpus_digest(out) for mode, (_, out) in mutation_dataset.items()} == want
