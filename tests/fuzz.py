"""Seeded random-string and corruption helpers for the join-engine tests.

The index, kernel, joiner and perf-smoke tests share them, so the
edit-corruption model lives in one place; hypothesis strategies live in
``join_strategies``.  Uses the stdlib ``random.Random`` (not numpy)
because callers thread an explicit generator for reproducibility.
"""

from __future__ import annotations

import random

# Mixed-plane default alphabet: ASCII, separators, combining-free
# accents, CJK, and astral-plane emoji, so the q-gram index and the
# numpy kernels see genuine unicode, not just bytes.
FUZZ_ALPHABET = "abcdeABC012 .-_/éüñæ漢字書\U0001F600\U0001F680"


def random_unicode_string(
    rng: random.Random,
    max_length: int = 14,
    min_length: int = 0,
    alphabet: str = FUZZ_ALPHABET,
) -> str:
    """One random string over ``alphabet`` (can be empty)."""
    length = rng.randint(min_length, max_length)
    return "".join(rng.choice(alphabet) for _ in range(length))


def random_edits(
    rng: random.Random,
    text: str,
    n_edits: int,
    alphabet: str = FUZZ_ALPHABET,
) -> str:
    """Apply ``n_edits`` random insert/delete/substitute operations."""
    chars = list(text)
    for _ in range(n_edits):
        op = rng.choice(("insert", "delete", "substitute"))
        if op == "insert" or not chars:
            chars.insert(rng.randint(0, len(chars)), rng.choice(alphabet))
        elif op == "delete":
            chars.pop(rng.randrange(len(chars)))
        else:
            chars[rng.randrange(len(chars))] = rng.choice(alphabet)
    return "".join(chars)
