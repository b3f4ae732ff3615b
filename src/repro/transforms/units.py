"""Basic transformation units (paper §5.1.2, following Auto-join and CST).

Each unit maps a string to a string.  Units are total functions: out-of-
range selections yield the empty string rather than raising, because the
random composer may produce parameter combinations that do not apply to
every input (the paper samples parameters at random too).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.exceptions import TransformError


class TransformationUnit(ABC):
    """A single string-to-string edit operation."""

    @abstractmethod
    def apply(self, text: str) -> str:
        """Apply the unit to ``text`` and return the result."""

    @abstractmethod
    def describe(self) -> str:
        """Return a compact human-readable description."""

    def __call__(self, text: str) -> str:
        return self.apply(text)


@dataclass(frozen=True)
class Substring(TransformationUnit):
    """Select ``text[start:end]``; negative offsets index from the end.

    ``end=None`` means "to the end of the string".
    """

    start: int
    end: int | None = None

    def apply(self, text: str) -> str:
        return text[self.start : self.end]

    def describe(self) -> str:
        end = "" if self.end is None else self.end
        return f"substr({self.start}:{end})"


@dataclass(frozen=True)
class Split(TransformationUnit):
    """Split on a delimiter and select one part.

    A negative ``index`` selects from the end (``-1`` is the last part).
    Selecting a part that does not exist yields the empty string.
    """

    delimiter: str
    index: int

    def __post_init__(self) -> None:
        if not self.delimiter:
            raise TransformError("split delimiter must be non-empty")

    def apply(self, text: str) -> str:
        parts = text.split(self.delimiter)
        position = self.index if self.index >= 0 else len(parts) + self.index
        if 0 <= position < len(parts):
            return parts[position]
        return ""

    def describe(self) -> str:
        return f"split({self.delimiter!r},{self.index})"


@dataclass(frozen=True)
class Lowercase(TransformationUnit):
    """Lowercase the input."""

    def apply(self, text: str) -> str:
        return text.lower()

    def describe(self) -> str:
        return "lower"


@dataclass(frozen=True)
class Uppercase(TransformationUnit):
    """Uppercase the input."""

    def apply(self, text: str) -> str:
        return text.upper()

    def describe(self) -> str:
        return "upper"


@dataclass(frozen=True)
class Literal(TransformationUnit):
    """Emit a constant string, ignoring the input."""

    text: str

    def apply(self, text: str) -> str:
        return self.text

    def describe(self) -> str:
        return f"lit({self.text!r})"


@dataclass(frozen=True)
class Replace(TransformationUnit):
    """Replace every occurrence of one character with another.

    Evaluation-only unit: builds the Syn-RP dataset (§5.2).  It is *not*
    part of the training-unit repertoire, so a trained model has never
    seen it.
    """

    old: str
    new: str

    def __post_init__(self) -> None:
        if len(self.old) != 1:
            raise TransformError("Replace operates on single characters")

    def apply(self, text: str) -> str:
        return text.replace(self.old, self.new)

    def describe(self) -> str:
        return f"replace({self.old!r}->{self.new!r})"


@dataclass(frozen=True)
class Reverse(TransformationUnit):
    """Reverse the character order of the input.

    Evaluation-only unit: builds the Syn-RV dataset (§5.2).
    """

    def apply(self, text: str) -> str:
        return text[::-1]

    def describe(self) -> str:
        return "reverse"


@dataclass(frozen=True)
class Stacked(TransformationUnit):
    """Composition of units: the output of each is fed to the next.

    The paper allows stacking of up to three units instead of
    introducing compound units like ``splitsubstring`` (§5.1.2).
    """

    units: tuple[TransformationUnit, ...]

    def __post_init__(self) -> None:
        if not self.units:
            raise TransformError("Stacked requires at least one unit")

    def apply(self, text: str) -> str:
        value = text
        for unit in self.units:
            value = unit.apply(value)
        return value

    def describe(self) -> str:
        inner = "∘".join(unit.describe() for unit in reversed(self.units))
        return f"stack({inner})"

    @property
    def depth(self) -> int:
        return len(self.units)
