"""Auto-regressive corruption model.

The paper's model generates the output character by character, so "as the
need for a greater number of edit operations increases ... the prediction
task becomes more challenging" (§5.2), and "a single incorrect prediction
can influence the prediction of subsequent characters" (§5.9).  The
surrogates reproduce both effects here:

* the per-character error probability grows with the *difficulty* of the
  induced mapping (how far the output is from the input), and
* once an error occurs, the error probability for subsequent characters
  is multiplied by a cascade factor — the derailment of an
  auto-regressive decoder.

All sampling is driven by a caller-provided RNG, so outputs are
deterministic per (seed, prompt).  :func:`generate_batch` is the
surrogates' shared batch loop: it scores the difficulty of a whole
``generate`` call at once, between the per-prompt induction and the
per-prompt corruption.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.text.edit_distance import edit_distances

_SUBSTITUTE_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .-_/"
)
_CASCADE_FACTOR = 2.5
_MAX_CHAR_ERROR = 0.92


def mapping_difficulties(pairs: Sequence[tuple[str, str]]) -> list[float]:
    """How hard each ``(source, output)`` mapping is for a character-level model.

    Defined as the edit distance between input and output normalized by
    the longer of the two — 0 when the output copies the input, 1 when
    every character must change (the paper's §5.2 difficulty heuristic).
    Each distinct pair is scored once, all of them in one DP.
    """
    distinct = list(dict.fromkeys(pairs))
    distances = dict(zip(distinct, edit_distances(distinct), strict=True))
    difficulties = []
    for source, output in pairs:
        longest = max(len(source), len(output))
        difficulty = distances[source, output] / longest if longest else 0.0
        difficulties.append(min(1.0, difficulty))
    return difficulties


@dataclass(frozen=True)
class Pending:
    """A clean output whose corruption waits for its mapping difficulty.

    Attributes:
        query: The prompt's query (the mapping's input).
        raw: The clean output the induced program produced.
        rng: The prompt's own random stream, not yet used for corruption.
        char_error_rate: Maps the mapping difficulty to the base
            per-character error rate passed to :func:`corrupt`.
    """

    query: str
    raw: str
    rng: np.random.Generator
    char_error_rate: Callable[[float], float]


def generate_batch(
    prompts: Sequence[str], predict: Callable[[str, int], str | Pending]
) -> list[str]:
    """Run a surrogate's ``predict`` over a batch in two phases.

    Phase one calls ``predict(prompt, occurrence)`` per prompt, where
    ``occurrence`` counts earlier copies of the prompt in the batch; it
    returns a finished output or a :class:`Pending` one.  One
    :func:`mapping_difficulties` call then scores every pending output,
    and phase two corrupts each with its own rng.  Scoring draws nothing
    from any rng, so every prompt sees the same draws in the same order
    as a prompt-at-a-time loop would give it.
    """
    occurrences: dict[str, int] = {}
    staged: list[str | Pending] = []
    for prompt in prompts:
        occurrence = occurrences.get(prompt, 0)
        occurrences[prompt] = occurrence + 1
        staged.append(predict(prompt, occurrence))
    pending = [item for item in staged if isinstance(item, Pending)]
    difficulties = iter(mapping_difficulties([(p.query, p.raw) for p in pending]))
    return [
        item
        if isinstance(item, str)
        else corrupt(item.raw, item.char_error_rate(next(difficulties)), item.rng)
        for item in staged
    ]


def corrupt(
    text: str,
    char_error_rate: float,
    rng: np.random.Generator,
    truncate_rate: float = 0.0,
) -> str:
    """Corrupt ``text`` with compounding character errors.

    Args:
        text: The clean model output.
        char_error_rate: Base per-character error probability.
        rng: Deterministic random source.
        truncate_rate: Probability of emitting ``<eos>`` prematurely at
            each position once past the first character.

    Returns:
        The corrupted string (possibly equal to ``text``).
    """
    if char_error_rate <= 0.0 and truncate_rate <= 0.0:
        return text
    rate = min(max(char_error_rate, 0.0), _MAX_CHAR_ERROR)
    out: list[str] = []
    derailed = False
    for i, ch in enumerate(text):
        if truncate_rate > 0.0 and i > 0 and rng.random() < truncate_rate:
            break
        effective = min(
            rate * (_CASCADE_FACTOR if derailed else 1.0), _MAX_CHAR_ERROR
        )
        if rng.random() >= effective:
            out.append(ch)
            continue
        derailed = True
        kind = rng.random()
        if kind < 0.5:  # substitution
            out.append(
                _SUBSTITUTE_ALPHABET[int(rng.integers(0, len(_SUBSTITUTE_ALPHABET)))]
            )
        elif kind < 0.8:  # deletion
            continue
        else:  # insertion (keep the char, add a random one)
            out.append(
                _SUBSTITUTE_ALPHABET[int(rng.integers(0, len(_SUBSTITUTE_ALPHABET)))]
            )
            out.append(ch)
    return "".join(out)


def scrambled_copy(text: str, rng: np.random.Generator) -> str:
    """A 'confused decoder' output: chunks of the input in shuffled order.

    Used when a model recognizes that the output is built from the input
    characters but cannot work out the arrangement (e.g. an unseen
    reversal).  The result preserves most of the character multiset —
    which is why edit-distance joins can sometimes still rescue it
    (the paper's Syn-RV observation: ANED > 0.8 yet F1 ≈ 0.63).
    """
    if len(text) <= 2:
        return text
    chunks: list[str] = []
    i = 0
    while i < len(text):
        size = int(rng.integers(2, 5))
        chunk = text[i : i + size]
        if rng.random() < 0.5:
            chunk = chunk[::-1]
        chunks.append(chunk)
        i += size
    order = rng.permutation(len(chunks))
    return "".join(chunks[int(k)] for k in order)
