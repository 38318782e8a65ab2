"""Seeded `.rules` input generator for the benchmark.

Every rule has 1-2 triggers and 1-3 actions, each action optionally guarded
by an `if`. Items, values and conditions are drawn from a vocabulary of
`n_items` items, so the vocabulary size sets how often two rules share an
item and therefore how many pairs produce findings: thousands of items give
a sparse file (few findings), a few dozen give a dense one. Identical copies
of a rule never contradict each other, which is why density comes from
drawing over a small vocabulary rather than from renamed seed copies.

The output depends only on the arguments: the same seed gives the same
bytes.
"""

from __future__ import annotations

import random

SWITCH_VALUES = ("ON", "OFF")
LEVELS = (10, 20, 30, 40)
WINDOWS = (("6:00", "9:30"), ("8:00", "12:00"), ("17:00", "22:00"), ("21:00", "23:30"))


def _item(k: int) -> str:
    return f"Dev_{k:04d}"


def _is_switch(k: int) -> bool:
    return k % 3 != 2


def _value(rng: random.Random, k: int) -> str:
    return rng.choice(SWITCH_VALUES) if _is_switch(k) else str(rng.choice(LEVELS))


def _trigger(shape: random.Random, rng: random.Random, n_items: int) -> str:
    k = rng.randrange(n_items)
    roll = shape.random()
    if roll < 0.15:
        return f'Time cron "0 {rng.randrange(0, 60, 15):02d} {rng.randrange(5, 23):02d} * * ?"'
    if roll < 0.45:
        return f"Item {_item(k)} changed to {_value(rng, k)}"
    if roll < 0.70:
        return f"Item {_item(k)} received command {_value(rng, k)}"
    if roll < 0.80:
        return f"Item {_item(k)} received update"
    if _is_switch(k):
        return f"Item {_item(k)} changed"
    return f"{_item(k)}.state {rng.choice(('>', '<=', '>='))} {rng.choice(LEVELS)}"


def _condition(rng: random.Random, n_items: int, window: bool) -> str:
    if window:
        lo, hi = rng.choice(WINDOWS)
        return f"time >= {lo} && time <= {hi}"
    k = rng.randrange(n_items)
    if _is_switch(k):
        return f"{_item(k)} {rng.choice(('==', '!='))} {rng.choice(SWITCH_VALUES)}"
    return f"{_item(k)}.state {rng.choice(('>', '<', '>=', '<=', '=='))} {rng.choice(LEVELS)}"


def _action(shape: random.Random, rng: random.Random, n_items: int) -> str:
    k = rng.randrange(n_items)
    value = _value(rng, k)
    roll = shape.random()
    if roll < 0.6:
        return f"sendCommand({_item(k)}, {value})"
    if roll < 0.8:
        return f"{_item(k)}.sendCommand({value})"
    return f"postUpdate({_item(k)}, {value})"


def _rule(shape: random.Random, rng: random.Random, n: int, n_items: int) -> str:
    triggers = [_trigger(shape, rng, n_items) for _ in range(shape.randint(1, 2))]
    when = "\n    or ".join(triggers)
    if shape.random() < 0.2:
        k = rng.randrange(n_items)
        when += f" && {_item(k)} == {_value(rng, k)}"
    lines = [f'rule "Generated rule {n}"', "when", f"    {when}", "then"]
    for _ in range(shape.randint(1, 3)):
        action = _action(shape, rng, n_items)
        if shape.random() < 0.5:
            # At most one time window per guard: two could intersect to nothing.
            windows = [shape.random() < 0.2] + [False] * shape.randint(0, 1)
            conds = " && ".join(_condition(rng, n_items, w) for w in windows)
            lines += [f"    if ({conds}) {{", f"        {action}", "    }"]
        else:
            lines.append(f"    {action}")
    lines.append("end")
    return "\n".join(lines)


def generate_rules(seed: int, n_rules: int, n_items: int) -> str:
    """Text of one `.rules` file with `n_rules` rules over `n_items` items.

    The shape of every rule (how many triggers, actions and guards, and of
    which kinds) comes from a stream that does not depend on `seed`; items,
    values, operators and times come from the seeded one. Seeds thus vary
    which rules share items, and so the findings, while the work per rule
    pair stays nearly the same.
    """
    shape = random.Random(f"shape:{n_rules}:{n_items}")
    rng = random.Random(f"rules:{seed}:{n_rules}:{n_items}")
    return "\n\n".join(_rule(shape, rng, n, n_items) for n in range(1, n_rules + 1)) + "\n"
