"""Transformation units and synthesis of the CST baseline.

CST (Nobari et al. [31]), like Auto-join (Zhu et al. [58]), describes a
transformation as a *flat* sequence of basic units — ``substring``,
``split``, ``lowercase``, ``uppercase``, ``literal`` — each applied to
the **original** input, with the unit outputs concatenated.  Crucially,
units do **not** stack (no case-mapping of a substring), which is the
expressiveness gap the paper exploits: mappings like lowercased initials
are outside this language.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

_SPLIT_DELIMITERS = " -_./,:;@()"
# Backtracking search over unit sequences is exponential in sequence
# length, so CST/Auto-join bound it; transformations longer than this
# are outside their search space.
_MAX_UNITS = 10


@dataclass(frozen=True)
class USubstr:
    """``source[start:end]`` with endpoints anchored at either string end."""

    start_offset: int
    start_from_end: bool
    end_offset: int | None  # None = to end of string
    end_from_end: bool

    def apply(self, source: str) -> str | None:
        n = len(source)
        start = n - self.start_offset if self.start_from_end else self.start_offset
        if self.end_offset is None:
            end = n
        elif self.end_from_end:
            end = n - self.end_offset
        else:
            end = self.end_offset
        if start < 0 or end > n or start > end:
            return None
        return source[start:end]


@dataclass(frozen=True)
class USplit:
    """Select one part of ``source.split(delimiter)``."""

    delimiter: str
    index: int
    from_end: bool

    def apply(self, source: str) -> str | None:
        parts = source.split(self.delimiter)
        position = len(parts) - 1 - self.index if self.from_end else self.index
        if not 0 <= position < len(parts):
            return None
        return parts[position]


@dataclass(frozen=True)
class ULower:
    """The whole input, lowercased (no stacking on other units)."""

    def apply(self, source: str) -> str | None:
        return source.lower()


@dataclass(frozen=True)
class UUpper:
    """The whole input, uppercased."""

    def apply(self, source: str) -> str | None:
        return source.upper()


@dataclass(frozen=True)
class ULiteral:
    """A constant string."""

    text: str

    def apply(self, source: str) -> str | None:
        return self.text


Unit = USubstr | USplit | ULower | UUpper | ULiteral


@dataclass(frozen=True)
class UnitTransformation:
    """A flat unit sequence; output is the concatenation of unit outputs."""

    units: tuple[Unit, ...]

    def apply(self, source: str) -> str | None:
        pieces: list[str] = []
        for unit in self.units:
            piece = unit.apply(source)
            if piece is None:
                return None
            pieces.append(piece)
        return "".join(pieces)

    @property
    def literal_only(self) -> bool:
        return all(isinstance(u, ULiteral) for u in self.units)


def synthesize_transformations(
    source: str, target: str, max_results: int = 4, beam_width: int = 5
) -> list[UnitTransformation]:
    """Synthesize unit sequences mapping ``source`` to ``target``.

    A beam-searched cover of the target by unit outputs, mirroring the
    common-substring anchoring of CST: at each target position the
    candidates are the longest copied substring, matching split parts,
    the whole (case-mapped) input, and a one-character literal fallback.
    """
    if not target:
        return [UnitTransformation(units=(ULiteral(""),))]
    # beams[pos] = list of (score, units)
    beams: list[list[tuple[float, tuple[Unit, ...]]]] = [
        [] for _ in range(len(target) + 1)
    ]
    beams[0].append((0.0, ()))
    for pos in range(len(target)):
        if not beams[pos]:
            continue
        candidates = _unit_candidates(source, target, pos)
        for score, units in beams[pos]:
            for unit, consumed, gain in candidates:
                new_pos = pos + consumed
                beams[new_pos].append((score + gain, units + (unit,)))
        for future in range(pos + 1, len(target) + 1):
            if len(beams[future]) > beam_width:
                beams[future].sort(key=lambda item: -item[0])
                del beams[future][beam_width:]
    finished = sorted(beams[len(target)], key=lambda item: -item[0])
    results: list[UnitTransformation] = []
    seen: set[tuple[Unit, ...]] = set()
    for _, units in finished:
        merged = _merge_literals(units)
        if merged in seen or len(merged) > _MAX_UNITS:
            continue
        seen.add(merged)
        results.append(UnitTransformation(units=merged))
        if len(results) >= max_results:
            break
    return results


def _unit_candidates(
    source: str, target: str, pos: int
) -> list[tuple[Unit, int, float]]:
    remaining = target[pos:]
    candidates: list[tuple[Unit, int, float]] = []

    # Longest copied substring (the CST 'textual evidence' anchor).
    # CST anchors need common sequences of length >= 2 — it "performs
    # well only when long matching sequences exist" (paper §3.1);
    # single characters are not usable evidence.
    limit = min(len(source), len(remaining))
    for length in range(limit, 1, -1):
        found = source.find(remaining[:length])
        if found < 0:
            continue
        end = found + length
        candidates.append(
            (USubstr(found, False, end, False), length, 2.0 * length)
        )
        candidates.append(
            (
                USubstr(len(source) - found, True, len(source) - end, True),
                length,
                2.0 * length,
            )
        )
        if end == len(source):
            candidates.append(
                (USubstr(found, False, None, False), length, 2.1 * length)
            )
        break

    # Split parts that match at this position.
    for delimiter in _SPLIT_DELIMITERS:
        if delimiter not in source:
            continue
        parts = source.split(delimiter)
        for index, part in enumerate(parts):
            if part and remaining.startswith(part):
                candidates.append(
                    (USplit(delimiter, index, False), len(part), 2.5 * len(part))
                )
                candidates.append(
                    (
                        USplit(delimiter, len(parts) - 1 - index, True),
                        len(part),
                        2.5 * len(part),
                    )
                )

    # Whole-input case maps.
    lowered = source.lower()
    if remaining.startswith(lowered) and lowered != source:
        candidates.append((ULower(), len(lowered), 1.5 * len(lowered)))
    uppered = source.upper()
    if remaining.startswith(uppered) and uppered != source:
        candidates.append((UUpper(), len(uppered), 1.5 * len(uppered)))

    # Literal fallback.
    candidates.append((ULiteral(remaining[0]), 1, 0.2))

    # Dedupe identical units, keep a bounded fanout.
    unique: dict[Unit, tuple[Unit, int, float]] = {}
    for unit, consumed, gain in candidates:
        if unit not in unique or unique[unit][2] < gain:
            unique[unit] = (unit, consumed, gain)
    ranked = sorted(unique.values(), key=lambda item: -item[2])
    return ranked[:10]


def _merge_literals(units: tuple[Unit, ...]) -> tuple[Unit, ...]:
    merged: list[Unit] = []
    for unit in units:
        if (
            isinstance(unit, ULiteral)
            and merged
            and isinstance(merged[-1], ULiteral)
        ):
            merged[-1] = ULiteral(merged[-1].text + unit.text)
        else:
            merged.append(unit)
    return tuple(merged)


def coverage(
    transformation: UnitTransformation,
    examples: Sequence[tuple[str, str]],
) -> int:
    """Number of example pairs the transformation maps exactly."""
    return sum(
        1 for source, target in examples if transformation.apply(source) == target
    )
