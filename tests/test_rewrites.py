"""Rewrites that keep a ruleset's meaning keep its findings.

The symbolic detector must be unaffected by rule rewrites: permuting the
rule blocks of a file, or renaming its items consistently, gives the same
finding identities once rule and node ids are mapped through the rewrite,
under strict and lenient event matching, and the enumeration oracle agrees
on the rewritten file. Inputs are `bench/gen.py` rulesets and the bundled
seeds.
"""

from __future__ import annotations

import re
from collections import Counter

import oracle
import pytest
from conftest import load_bench_generator, parse_text
from hypothesis import given, settings
from hypothesis import strategies as st

from ritkit.detector import detect_file
from ritkit.mutate import bundled_seed_paths

_BLOCK_START = re.compile(r'(?m)^(?=rule ")')
_NODE_ID = re.compile(r"\br(\d+)(?=[tca]\d|\b)")


@pytest.fixture(scope="module")
def seed_texts() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in bundled_seed_paths()]


def _ruleset_text(data, seed_texts: list[str]) -> str:
    if data.draw(st.booleans()):
        return data.draw(st.sampled_from(seed_texts))
    n_rules, n_items = data.draw(st.integers(2, 12)), data.draw(st.integers(3, 20))
    return load_bench_generator().generate_rules(data.draw(st.integers(0, 10_000)), n_rules, n_items)


def _identities(ruleset, strict: bool) -> Counter:
    """Finding identities; an action contradiction is unordered, so its two sides are sorted."""
    report = detect_file(ruleset, strict)
    identities = Counter(oracle.detector_identities(report))
    assert identities == Counter(oracle.oracle_detect_file(ruleset, strict))
    out: Counter = Counter()
    for (category, rule_a, rule_b, pair), n in identities.items():
        if category in ("SAC", "WAC"):
            out[(category, *sorted([(rule_a, pair[0]), (rule_b, pair[1])]))] += n
        else:
            out[(category, rule_a, rule_b, pair)] += n
    return out


def _map_ids(identities: Counter, rule_ids: dict[int, int]) -> Counter:
    """The identities with every rule id `rN` (alone or as a node id prefix) renumbered."""

    def renumber(text: str) -> str:
        return _NODE_ID.sub(lambda m: f"r{rule_ids[int(m.group(1))]}", text)

    out: Counter = Counter()
    for identity, n in identities.items():
        category, *rest = identity
        mapped = tuple(tuple(renumber(part) for part in p) if isinstance(p, tuple) else renumber(p) for p in rest)
        out[(category, *sorted(mapped)) if category in ("SAC", "WAC") else (category, *mapped)] += n
    return out


def _items(ruleset) -> set[str]:
    items: set[str] = set()
    for rule in ruleset.rules:
        items.update(t.item for t in rule.triggers)
        items.update(c.item for c in rule.all_conditions())
        items.update(ga.action.item for ga in rule.guarded_actions)
    return items - {None}


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_rule_permutation(seed_texts, data):
    text = _ruleset_text(data, seed_texts)
    preamble, *blocks = _BLOCK_START.split(text if text.endswith("\n") else text + "\n")
    order = data.draw(st.permutations(range(len(blocks))))
    original = parse_text(text)
    permuted = parse_text(preamble + "".join(blocks[k] for k in order))
    assert len(original.rules) == len(permuted.rules) == len(blocks)
    assert not permuted.errors()
    # The block at original position k + 1 sits at position order.index(k) + 1.
    new_id = {k + 1: order.index(k) + 1 for k in range(len(blocks))}
    for strict in (True, False):
        assert _identities(permuted, strict) == _map_ids(_identities(original, strict), new_id)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_consistent_item_renaming(seed_texts, data):
    text = _ruleset_text(data, seed_texts)
    original = parse_text(text)
    names = sorted(_items(original))
    # Items trade names among themselves, or take fresh ones; either way the renaming is one-to-one.
    if data.draw(st.booleans()):
        targets = data.draw(st.permutations(names))
    else:
        targets = [f"Renamed_{k}" for k in data.draw(st.permutations(range(len(names))))]
    rename = dict(zip(names, targets))
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, sorted(names, key=len, reverse=True))) + r")\b")
    renamed = parse_text(pattern.sub(lambda m: rename[m.group(1)], text))
    assert not renamed.errors() and len(renamed.rules) == len(original.rules)
    assert _items(renamed) == {rename[name] for name in names}
    for strict in (True, False):
        assert _identities(renamed, strict) == _identities(original, strict)
