"""Example-driven program induction.

This is the reasoning core of the pretrained-model stand-in: given the
two (or more) in-context example pairs of a DTT sub-task, find a
:class:`~repro.surrogate.programs.Program` that explains *all* of them,
then apply it to the query.  Strategies are ordered from cheap/specific
to general:

1. identity / pure case mapping,
2. single-character replacement (the Syn-RP family),
3. a single anchored slice (the Syn-ST family),
4. full reversal (the Syn-RV family),
5. general segment concatenation — a **joint** beam search that builds
   the two example targets simultaneously, so every candidate segment
   spec must be consistent with both examples by construction (a
   single-example explanation followed by verification degenerates
   into an anchor-variant lottery; the joint search does not).

Per-position segment candidates and per-pair explanations are memoized:
in a benchmark table the same example pair appears in many sampled
contexts.  Each engine also memoizes whole contexts: a column's prompts
sample their few examples from one small pool, so most contexts repeat.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

from repro.surrogate.programs import (
    CharSliceSegment,
    ConcatProgram,
    DelimiterPartSegment,
    IdentityProgram,
    LiteralSegment,
    PartSliceSegment,
    Program,
    ReplaceProgram,
    ReverseProgram,
    Segment,
    SliceProgram,
    TokenPieceSegment,
    apply_case,
    tokens_of,
)
from repro.types import ExamplePair

_CASES = ("none", "lower", "upper", "title")
_DELIMITERS = " -_./,:;@"
_ALL_FAMILIES = frozenset({"case", "replace", "substring", "reverse", "general"})
# Contexts memoized per engine (a pool of 8 examples has 56 ordered
# 2-example contexts).
_CONTEXT_MEMO_SIZE = 256


@dataclass(frozen=True)
class InductionResult:
    """Outcome of inducing a program from a context.

    Attributes:
        program: The best program found (``None`` when nothing fit).
        support: How many context pairs the program explains exactly.
        exact: True when the program explains every context pair.
    """

    program: Program | None
    support: int
    exact: bool


class InductionEngine:
    """Finds programs that explain a set of example pairs.

    Args:
        beam_width: Beam width of the joint synthesizer.
        max_explanations: Candidate programs retained per example pair
            in the single-example fallback.
        enabled_families: Program families the engine may use; families
            outside this set are skipped (the training-profile gate).
    """

    def __init__(
        self,
        beam_width: int = 10,
        max_explanations: int = 12,
        enabled_families: frozenset[str] | None = None,
    ) -> None:
        self.beam_width = beam_width
        self.max_explanations = max_explanations
        self.families = (
            _ALL_FAMILIES if enabled_families is None else frozenset(enabled_families)
        )
        # Induction is a pure function of the settings above and the
        # context pairs, and results are frozen.  Wrapped per instance
        # so the memo dies with the engine.
        self._induce_pairs = lru_cache(maxsize=_CONTEXT_MEMO_SIZE)(
            self._induce_pairs
        )

    def induce(self, context: Sequence[ExamplePair]) -> InductionResult:
        """Induce the best program explaining the context pairs."""
        pairs = tuple((p.source, p.target) for p in context if p.source or p.target)
        if not pairs:
            return InductionResult(program=None, support=0, exact=False)
        return self._induce_pairs(pairs)

    def _induce_pairs(self, context: tuple[tuple[str, str], ...]) -> InductionResult:
        pairs = list(context)
        program = self._induce_exact(pairs)
        if program is not None:
            return InductionResult(
                program=program, support=len(pairs), exact=True
            )

        # No program explains every pair (noise, or a mapping outside the
        # engine's reach).  Fall back to the best partially supported
        # explanation — the analogue of the model following the example
        # it "understood".  Ties on support are broken by *generality*:
        # an explanation that copies from the input beats one that
        # hard-codes the (possibly noisy) target.
        best: Program | None = None
        best_key = (0, -1.0)
        for source, target in pairs:
            for candidate in self._explanations(source, target):
                support = sum(
                    1 for s, t in pairs if candidate.apply(s) == t
                )
                generality = (
                    candidate.generality - 10.0 * candidate.literal_fraction
                    if isinstance(candidate, ConcatProgram)
                    else 100.0
                )
                key = (support, generality)
                if key > best_key:
                    best, best_key = candidate, key
        return InductionResult(program=best, support=best_key[0], exact=False)

    def _induce_exact(self, pairs: list[tuple[str, str]]) -> Program | None:
        for inducer in (
            self._induce_case,
            self._induce_replace,
            self._induce_slice,
            self._induce_reverse,
            self._induce_general,
        ):
            program = inducer(pairs)
            if program is not None:
                return program
        return None

    # -- specialized strategies ------------------------------------------

    def _induce_case(self, pairs: list[tuple[str, str]]) -> Program | None:
        if "case" not in self.families:
            return None
        for case in _CASES:
            if all(apply_case(s, case) == t for s, t in pairs):
                return IdentityProgram(case=case)
        return None

    def _induce_replace(self, pairs: list[tuple[str, str]]) -> Program | None:
        if "replace" not in self.families:
            return None
        source, target = pairs[0]
        for old in dict.fromkeys(source):  # preserves order, dedupes
            new = _solve_replacement(source, target, old)
            if new is None or new == old:
                continue
            program = ReplaceProgram(old=old, new=new)
            if all(program.apply(s) == t for s, t in pairs):
                return program
        return None

    def _induce_slice(self, pairs: list[tuple[str, str]]) -> Program | None:
        if "substring" not in self.families:
            return None
        source, target = pairs[0]
        if not target:
            return None
        for case in _CASES:
            cased = apply_case(source, case)
            start = cased.find(target)
            while start >= 0:
                end = start + len(target)
                for program in _slice_variants(len(source), start, end, case):
                    if all(program.apply(s) == t for s, t in pairs):
                        return program
                start = cased.find(target, start + 1)
        return None

    def _induce_reverse(self, pairs: list[tuple[str, str]]) -> Program | None:
        if "reverse" not in self.families:
            return None
        for case in _CASES:
            program = ReverseProgram(case=case)
            if all(program.apply(s) == t for s, t in pairs):
                return program
        return None

    def _induce_general(self, pairs: list[tuple[str, str]]) -> Program | None:
        if "general" not in self.families:
            return None
        if len(pairs) == 1:
            explanations = explain_pair(
                pairs[0][0], pairs[0][1], self.beam_width, 1
            )
            return explanations[0] if explanations else None
        # Joint synthesis over the first two pairs, verified on the rest.
        candidates = joint_synthesize(
            pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1], self.beam_width
        )
        for candidate in candidates:
            if all(candidate.apply(s) == t for s, t in pairs[2:]):
                return candidate
        return None

    def _explanations(self, source: str, target: str) -> tuple[ConcatProgram, ...]:
        if "general" not in self.families:
            return ()
        return explain_pair(
            source, target, self.beam_width, self.max_explanations
        )


def _solve_replacement(source: str, target: str, old: str) -> str | None:
    """Solve ``target == source.replace(old, new)`` for ``new``, if any."""
    parts = source.split(old)
    if len(parts) == 1:
        return None
    pattern = re.escape(parts[0]) + "(?P<r>.{0,4}?)"
    for part in parts[1:-1]:
        pattern += re.escape(part) + "(?P=r)"
    pattern += re.escape(parts[-1])
    match = re.fullmatch(pattern, target, flags=re.DOTALL)
    if match is None:
        return None
    return match.group("r")


def _slice_variants(
    source_length: int, start: int, end: int, case: str
) -> list[SliceProgram]:
    """All anchor combinations describing ``source[start:end]``."""
    starts = [(start, False), (source_length - start, True)]
    ends: list[tuple[int | None, bool]] = [
        (end, False),
        (source_length - end, True),
    ]
    if end == source_length:
        ends.insert(0, (None, False))
    variants = []
    for start_offset, start_from_end in starts:
        for end_offset, end_from_end in ends:
            variants.append(
                SliceProgram(
                    start_offset=start_offset,
                    start_from_end=start_from_end,
                    end_offset=end_offset,
                    end_from_end=end_from_end,
                    case=case,
                )
            )
    return variants


# -- segment candidate generation (shared by both synthesizers) ----------


@dataclass(frozen=True)
class _Candidate:
    segment: Segment
    consumed: int
    score: float

    @property
    def per_char_weight(self) -> float:
        return self.score / max(self.consumed, 1)


@lru_cache(maxsize=200_000)
def _prepared(source: str) -> tuple:
    tokens = tuple(tokens_of(source))
    cased_tokens = {
        case: tuple(apply_case(tok, case) for tok in tokens) for case in _CASES
    }
    cased_source = {case: apply_case(source, case) for case in _CASES}
    return tokens, cased_tokens, cased_source


@lru_cache(maxsize=500_000)
def segment_candidates(source: str, target: str, pos: int) -> tuple[_Candidate, ...]:
    """Candidate next segments explaining ``target[pos:]`` from ``source``."""
    tokens, cased_tokens, cased_source = _prepared(source)
    remaining = target[pos:]
    candidates: list[_Candidate] = []

    # Token pieces: prefixes, full tokens, suffixes, under each case map.
    for case in _CASES:
        for index, cased in enumerate(cased_tokens[case]):
            if not cased:
                continue
            prefix_len = _common_prefix_length(cased, remaining)
            if prefix_len >= 1:
                part = "full" if prefix_len == len(cased) else "prefix"
                # Full-token copies are the most generalizable spec on
                # tabular text: they outrank even open-ended slices.
                weight = 3.6 if part == "full" else 2.5
                for from_end in (False, True):
                    token_index = len(tokens) - 1 - index if from_end else index
                    segment = TokenPieceSegment(
                        index=token_index,
                        from_end=from_end,
                        part=part,
                        length=prefix_len,
                        case=case,
                    )
                    candidates.append(
                        _Candidate(segment, prefix_len, weight * prefix_len)
                    )
            suffix_len = _longest_suffix_match(cased, remaining)
            if suffix_len >= 2 and suffix_len < len(cased):
                for from_end in (False, True):
                    token_index = len(tokens) - 1 - index if from_end else index
                    segment = TokenPieceSegment(
                        index=token_index,
                        from_end=from_end,
                        part="suffix",
                        length=suffix_len,
                        case=case,
                    )
                    candidates.append(
                        _Candidate(segment, suffix_len, 2.2 * suffix_len)
                    )

    # Whole-delimiter parts (the paper's `split` unit) and slices inside
    # a part (stacked `substring ∘ split`).
    for delimiter in _DELIMITERS:
        if delimiter not in source:
            continue
        parts = source.split(delimiter)
        for index, part in enumerate(parts):
            if not part:
                continue
            for case in _CASES:
                cased_part = apply_case(part, case)
                if remaining.startswith(cased_part):
                    for from_end in (False, True):
                        part_index = len(parts) - 1 - index if from_end else index
                        segment = DelimiterPartSegment(
                            delimiter=delimiter,
                            index=part_index,
                            from_end=from_end,
                            case=case,
                        )
                        candidates.append(
                            _Candidate(segment, len(cased_part), 2.8 * len(cased_part))
                        )
                    continue  # the whole part subsumes inner slices here
                match_len, offset = _longest_source_match(cased_part, remaining)
                if match_len >= 2:
                    reaches_end = offset + match_len == len(part)
                    for from_end in (False, True):
                        part_index = len(parts) - 1 - index if from_end else index
                        candidates.append(
                            _Candidate(
                                PartSliceSegment(
                                    delimiter=delimiter,
                                    index=part_index,
                                    from_end=from_end,
                                    start=offset,
                                    start_from_end=False,
                                    length=match_len,
                                    case=case,
                                ),
                                match_len,
                                2.0 * match_len,
                            )
                        )
                        if reaches_end:
                            candidates.append(
                                _Candidate(
                                    PartSliceSegment(
                                        delimiter=delimiter,
                                        index=part_index,
                                        from_end=from_end,
                                        start=offset,
                                        start_from_end=False,
                                        length=None,
                                        case=case,
                                    ),
                                    match_len,
                                    2.3 * match_len,
                                )
                            )

    # Anchored character slices: longest match of the remaining target
    # inside the (case-mapped) source.
    for case in _CASES:
        haystack = cased_source[case]
        match_len, offset = _longest_source_match(haystack, remaining)
        if match_len >= 1:
            reaches_end = offset + match_len == len(source)
            # Single-character absolute slices rarely generalize; score
            # them below literals so they only win with corroboration.
            fixed_weight = 1.8 if match_len >= 2 else 0.6
            for from_end in (False, True):
                anchor = len(source) - offset if from_end else offset
                candidates.append(
                    _Candidate(
                        CharSliceSegment(
                            offset=anchor,
                            from_end=from_end,
                            length=match_len,
                            case=case,
                        ),
                        match_len,
                        fixed_weight * match_len,
                    )
                )
                if reaches_end:
                    # Open-ended suffix: generalizes across lengths, so
                    # it outranks a token-by-token reconstruction.
                    candidates.append(
                        _Candidate(
                            CharSliceSegment(
                                offset=anchor,
                                from_end=from_end,
                                length=None,
                                case=case,
                            ),
                            match_len,
                            3.4 * match_len,
                        )
                    )

    # Literal fallback: one character.  Separator characters are usually
    # emitted by `literal` units, so they score above 1-char slices.
    literal_char = remaining[0]
    literal_weight = 1.2 if not literal_char.isalnum() else 0.3
    literal = _Candidate(LiteralSegment(literal_char), 1, literal_weight)

    # Dedupe by spec identity and keep the strongest few to bound fanout.
    unique: dict[object, _Candidate] = {}
    for candidate in candidates:
        key = candidate.segment
        if key not in unique or unique[key].score < candidate.score:
            unique[key] = candidate
    ranked = sorted(unique.values(), key=lambda c: -c.score)[:16]
    if literal.segment not in {c.segment for c in ranked}:
        ranked.append(literal)
    return tuple(ranked)


# -- joint two-example synthesis ------------------------------------------


@lru_cache(maxsize=65536)
def joint_synthesize(
    source_a: str,
    target_a: str,
    source_b: str,
    target_b: str,
    beam_width: int = 10,
    max_results: int = 5,
) -> tuple[ConcatProgram, ...]:
    """Synthesize programs explaining BOTH example pairs simultaneously.

    A beam search over joint positions ``(pos_a, pos_b)``: a segment
    spec may extend a state only if applying it to *both* sources yields
    the next characters of the respective targets.  Any program reaching
    ``(len(target_a), len(target_b))`` is therefore consistent with both
    examples by construction.
    """
    if not target_a and not target_b:
        return (ConcatProgram(segments=(LiteralSegment(""),)),)

    apply_memo: dict[tuple[Segment, str], str | None] = {}

    def memo_apply(segment: Segment, source: str) -> str | None:
        key = (segment, source)
        if key not in apply_memo:
            apply_memo[key] = segment.apply(source)
        return apply_memo[key]

    # states[(pos_a, pos_b)] = list of (score, segments)
    states: dict[tuple[int, int], list[tuple[float, tuple[Segment, ...]]]] = {
        (0, 0): [(0.0, ())]
    }
    finished: list[tuple[float, tuple[Segment, ...]]] = []
    # Process states in order of total progress so predecessors are done.
    for total in range(len(target_a) + len(target_b)):
        keys = [k for k in states if k[0] + k[1] == total]
        for key in sorted(keys):
            pos_a, pos_b = key
            bucket = states.pop(key)
            bucket.sort(key=lambda item: -item[0])
            del bucket[beam_width:]
            if pos_a >= len(target_a) and pos_b >= len(target_b):
                finished.extend(bucket)
                continue
            specs: dict[Segment, float] = {}
            if pos_a < len(target_a):
                for cand in segment_candidates(source_a, target_a, pos_a):
                    weight = cand.per_char_weight
                    if cand.segment not in specs or specs[cand.segment] < weight:
                        specs[cand.segment] = weight
            if pos_b < len(target_b):
                for cand in segment_candidates(source_b, target_b, pos_b):
                    weight = cand.per_char_weight
                    if cand.segment not in specs or specs[cand.segment] < weight:
                        specs[cand.segment] = weight
            expansions: list[tuple[Segment, int, int, float]] = []
            for segment, weight in specs.items():
                out_a = memo_apply(segment, source_a)
                out_b = memo_apply(segment, source_b)
                if not out_a or not out_b:
                    continue
                if not target_a.startswith(out_a, pos_a):
                    continue
                if not target_b.startswith(out_b, pos_b):
                    continue
                gain = weight * (len(out_a) + len(out_b)) / 2.0
                expansions.append((segment, len(out_a), len(out_b), gain))
            if not expansions:
                continue
            expansions.sort(key=lambda item: -item[3])
            del expansions[12:]
            for segment, consumed_a, consumed_b, gain in expansions:
                new_key = (pos_a + consumed_a, pos_b + consumed_b)
                new_bucket = states.setdefault(new_key, [])
                for score, segments in bucket:
                    new_bucket.append((score + gain, segments + (segment,)))
    # Collect any states that reached the end exactly.
    for key, bucket in states.items():
        if key == (len(target_a), len(target_b)):
            finished.extend(bucket)
    finished.sort(key=lambda item: -item[0])
    programs: list[ConcatProgram] = []
    seen: set[tuple[Segment, ...]] = set()
    for _, segments in finished:
        merged = _merge_literals(segments)
        if merged in seen:
            continue
        seen.add(merged)
        programs.append(ConcatProgram(segments=merged))
        if len(programs) >= max_results:
            break
    return tuple(programs)


# -- single-example synthesis (fallback for noisy contexts) ---------------


@lru_cache(maxsize=65536)
def explain_pair(
    source: str, target: str, beam_width: int = 10, max_results: int = 12
) -> tuple[ConcatProgram, ...]:
    """Synthesize programs expressing ``target`` from ``source`` alone.

    Used when no program explains the full context (noisy examples): the
    engine explains each example individually and keeps the explanation
    with the best support.  Results are memoized — within one benchmark
    table the same example pair appears in many sampled contexts.
    """
    if not target:
        return (ConcatProgram(segments=(LiteralSegment(""),)),)
    # beams[pos] = list of (score, segments) partial explanations.
    beams: list[list[tuple[float, tuple[Segment, ...]]]] = [
        [] for _ in range(len(target) + 1)
    ]
    beams[0].append((0.0, ()))
    for pos in range(len(target)):
        if not beams[pos]:
            continue
        beams[pos].sort(key=lambda item: -item[0])
        del beams[pos][beam_width:]
        candidates = segment_candidates(source, target, pos)
        for score, segments in beams[pos]:
            for candidate in candidates:
                new_pos = pos + candidate.consumed
                beams[new_pos].append(
                    (score + candidate.score, segments + (candidate.segment,))
                )
    finished = sorted(beams[len(target)], key=lambda item: -item[0])
    programs: list[ConcatProgram] = []
    seen: set[tuple[Segment, ...]] = set()
    for _, segments in finished[: max_results * 2]:
        merged = _merge_literals(segments)
        if merged in seen:
            continue
        seen.add(merged)
        programs.append(ConcatProgram(segments=merged))
        if len(programs) >= max_results:
            break
    return tuple(programs)


def _common_prefix_length(a: str, b: str) -> int:
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


def _longest_suffix_match(token: str, remaining: str) -> int:
    limit = min(len(token), len(remaining))
    for length in range(limit, 1, -1):
        if remaining[:length] == token[-length:]:
            return length
    return 0


def _longest_source_match(source: str, remaining: str) -> tuple[int, int]:
    limit = min(len(source), len(remaining))
    for length in range(limit, 0, -1):
        offset = source.find(remaining[:length])
        if offset >= 0:
            return length, offset
    return 0, -1


def _merge_literals(segments: tuple[Segment, ...]) -> tuple[Segment, ...]:
    merged: list[Segment] = []
    for segment in segments:
        if (
            isinstance(segment, LiteralSegment)
            and merged
            and isinstance(merged[-1], LiteralSegment)
        ):
            merged[-1] = LiteralSegment(merged[-1].text + segment.text)
        else:
            merged.append(segment)
    return tuple(merged)
