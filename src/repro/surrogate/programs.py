"""Induced-program representation.

A *program* is the induction engine's internal explanation of how target
strings derive from source strings.  Programs are total over their
domain: ``apply`` returns ``None`` when a spec does not fit an input
(e.g. a token index out of range), which the engine treats as a failed
generalization.

Segment programs mirror the transformation language of the paper's
training data (substring / split / case / literal, §5.1.2) but anchored
in ways that generalize: token-relative positions, offsets from either
string end, and per-segment case maps.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod
from dataclasses import dataclass

_TOKEN_PATTERN = re.compile(r"[A-Za-z0-9]+")

CaseMap = str  # one of: "none", "lower", "upper", "title"


def tokens_of(text: str) -> list[str]:
    """Return the alphanumeric tokens of ``text`` in order."""
    return _TOKEN_PATTERN.findall(text)


def apply_case(text: str, case: CaseMap) -> str:
    """Apply a case map to ``text``."""
    if case == "none":
        return text
    if case == "lower":
        return text.lower()
    if case == "upper":
        return text.upper()
    if case == "title":
        return text.title()
    raise ValueError(f"unknown case map: {case!r}")


class Program(ABC):
    """An induced source -> target mapping."""

    @abstractmethod
    def apply(self, source: str) -> str | None:
        """Apply to ``source``; ``None`` when the program does not fit."""

    #: Relative ordering of how 'surprising' a program family is for a
    #: model trained on the paper's unit repertoire.  Families present in
    #: training data are easy; unseen families (replace, reverse) depend
    #: on emergent generalization.
    family: str = "general"


@dataclass(frozen=True)
class IdentityProgram(Program):
    """Target equals source."""

    case: CaseMap = "none"
    family = "case"

    def apply(self, source: str) -> str | None:
        return apply_case(source, self.case)


@dataclass(frozen=True)
class ReplaceProgram(Program):
    """Replace every occurrence of one character with a string."""

    old: str
    new: str
    family = "replace"

    def apply(self, source: str) -> str | None:
        return source.replace(self.old, self.new)


@dataclass(frozen=True)
class ReverseProgram(Program):
    """Reverse the character order (optionally case-mapped)."""

    case: CaseMap = "none"
    family = "reverse"

    def apply(self, source: str) -> str | None:
        return apply_case(source[::-1], self.case)


@dataclass(frozen=True)
class SliceProgram(Program):
    """A single contiguous slice with anchored endpoints.

    ``start_from_end``/``end_from_end`` anchor the respective offset to
    the end of the string, which is what generalizes across inputs of
    different lengths (e.g. "last 4 characters").  ``end_offset=None``
    means "to the end of the string".
    """

    start_offset: int
    start_from_end: bool
    end_offset: int | None
    end_from_end: bool
    case: CaseMap = "none"
    family = "substring"

    def apply(self, source: str) -> str | None:
        length = len(source)
        start = length - self.start_offset if self.start_from_end else self.start_offset
        if self.end_offset is None:
            end = length
        elif self.end_from_end:
            end = length - self.end_offset
        else:
            end = self.end_offset
        # Python-slice truncating semantics, matching the paper's
        # substring unit (out-of-range selections shrink, never fail).
        start = max(0, min(start, length))
        end = max(start, min(end, length))
        return apply_case(source[start:end], self.case)


@dataclass(frozen=True)
class LiteralSegment:
    """Emit a constant string."""

    text: str

    def apply(self, source: str) -> str | None:
        return self.text

    @property
    def generality(self) -> int:
        # Literals generalize worst: they carry zero input dependence.
        return 0


@dataclass(frozen=True)
class TokenPieceSegment:
    """A piece of the k-th alphanumeric token of the source.

    Attributes:
        index: Token index; counted from the end when ``from_end``.
        from_end: Anchor the token index at the end of the token list.
        part: ``"full"``, ``"prefix"``, or ``"suffix"``.
        length: Piece length for prefix/suffix parts.
        case: Case map applied to the piece.
    """

    index: int
    from_end: bool
    part: str
    length: int
    case: CaseMap = "none"

    def apply(self, source: str) -> str | None:
        tokens = tokens_of(source)
        position = len(tokens) - 1 - self.index if self.from_end else self.index
        if not 0 <= position < len(tokens):
            return ""  # like the paper's split unit: missing part -> empty
        token = tokens[position]
        if self.part == "full":
            piece = token
        elif self.part == "prefix":
            piece = token[: self.length]
        elif self.part == "suffix":
            piece = token[-self.length :] if self.length else ""
        else:
            raise ValueError(f"unknown token part: {self.part!r}")
        return apply_case(piece, self.case)

    @property
    def generality(self) -> int:
        # Token-relative specs generalize best for tabular text.
        return 2


@dataclass(frozen=True)
class CharSliceSegment:
    """A slice anchored at the start or end of the source.

    ``length=None`` means "to the end of the string" — the segment form
    that expresses whole-string copies (possibly case-mapped) and
    open-ended suffixes, both of which generalize across inputs of
    different lengths.
    """

    offset: int
    from_end: bool
    length: int | None
    case: CaseMap = "none"

    def apply(self, source: str) -> str | None:
        size = len(source)
        start = size - self.offset if self.from_end else self.offset
        end = size if self.length is None else start + self.length
        start = max(0, min(start, size))
        end = max(start, min(end, size))
        return apply_case(source[start:end], self.case)

    @property
    def generality(self) -> int:
        return 2 if self.length is None else 1


@dataclass(frozen=True)
class DelimiterPartSegment:
    """One full part of ``source.split(delimiter)`` with a case map.

    Token-piece segments only see alphanumeric runs; this segment
    expresses the paper's ``split`` unit over arbitrary delimiters (a
    dash-separated field may itself contain spaces or symbols).
    """

    delimiter: str
    index: int
    from_end: bool
    case: CaseMap = "none"

    def apply(self, source: str) -> str | None:
        parts = source.split(self.delimiter)
        position = len(parts) - 1 - self.index if self.from_end else self.index
        if not 0 <= position < len(parts):
            return ""  # like the paper's split unit: missing part -> empty
        return apply_case(parts[position], self.case)

    @property
    def generality(self) -> int:
        return 2


@dataclass(frozen=True)
class PartSliceSegment:
    """A slice *inside* one part of ``source.split(delimiter)``.

    Expresses the paper's stacked ``substring ∘ split`` transformations
    (§5.1.2): select a delimiter-separated field, then a character
    window within it.  ``length=None`` means "to the end of the part".
    """

    delimiter: str
    index: int
    from_end: bool
    start: int
    start_from_end: bool
    length: int | None
    case: CaseMap = "none"

    def apply(self, source: str) -> str | None:
        parts = source.split(self.delimiter)
        position = len(parts) - 1 - self.index if self.from_end else self.index
        if not 0 <= position < len(parts):
            return ""
        part = parts[position]
        start = len(part) - self.start if self.start_from_end else self.start
        end = len(part) if self.length is None else start + self.length
        start = max(0, min(start, len(part)))
        end = max(start, min(end, len(part)))
        return apply_case(part[start:end], self.case)

    @property
    def generality(self) -> int:
        return 2


Segment = (
    LiteralSegment
    | TokenPieceSegment
    | CharSliceSegment
    | DelimiterPartSegment
    | PartSliceSegment
)


@dataclass(frozen=True)
class ConcatProgram(Program):
    """Concatenation of segments — the general synthesized program."""

    segments: tuple[Segment, ...]
    family = "general"

    def apply(self, source: str) -> str | None:
        pieces: list[str] = []
        for segment in self.segments:
            piece = segment.apply(source)
            if piece is None:
                return None
            pieces.append(piece)
        return "".join(pieces)

    @property
    def generality(self) -> int:
        """Total input dependence; higher explains more and overfits less."""
        return sum(segment.generality for segment in self.segments)

    @property
    def literal_fraction(self) -> float:
        """Fraction of output characters produced by literal segments."""
        total = 0
        literal = 0
        for segment in self.segments:
            if isinstance(segment, LiteralSegment):
                literal += len(segment.text)
                total += len(segment.text)
            elif isinstance(segment, TokenPieceSegment):
                total += max(segment.length, 1)
            elif isinstance(segment, CharSliceSegment):
                total += 3 if segment.length is None else segment.length
            else:
                total += 3
        if total == 0:
            return 1.0
        return literal / total
