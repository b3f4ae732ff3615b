"""Core data types shared across the DTT reproduction.

The paper works with *column pairs*: a source column whose values must be
reformatted into the representation of a target column, guided by a few
source->target example pairs.  These dataclasses capture that vocabulary:

* :class:`ExamplePair` — one (source, target) demonstration row.
* :class:`TablePair` — a full benchmark instance: aligned source/target
  columns plus metadata about how it was generated.
* :class:`Prediction` — the framework's output for one source row.
* :class:`JoinResult` — the outcome of matching one predicted value
  against the target column (Eq. 5 of the paper).
* :class:`JoinCandidate` / :class:`TopKJoinResult` — one ranked
  candidate and the full outcome of a top-k join query.

Result types expose ``to_dict()`` — the single serialization schema
consumed by both the eval reports and the HTTP serving layer, so the
wire format and the report format cannot drift apart.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ExamplePair:
    """A single source->target demonstration row.

    Attributes:
        source: Value in the source formatting.
        target: The same entity in the target formatting.
    """

    source: str
    target: str

    def as_tuple(self) -> tuple[str, str]:
        """Return the pair as a plain ``(source, target)`` tuple."""
        return (self.source, self.target)


@dataclass(frozen=True)
class TablePair:
    """An aligned source/target column pair used for evaluation.

    ``sources[i]`` and ``targets[i]`` describe the same entity; the ground
    truth for joining is the identity alignment.  Benchmarks in the paper
    (WT, SS, KBWT, Syn-*) all have this shape.

    Attributes:
        name: Unique identifier of the pair within its dataset.
        sources: Source-column values.
        targets: Target-column values, aligned with ``sources``.
        dataset: Name of the dataset this pair belongs to (e.g. ``"WT"``).
        topic: Generator topic / transformation family, for provenance.
        metadata: Free-form extra information from the generator.
    """

    name: str
    sources: tuple[str, ...]
    targets: tuple[str, ...]
    dataset: str = ""
    topic: str = ""
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if len(self.sources) != len(self.targets):
            raise ValueError(
                f"TablePair {self.name!r}: sources ({len(self.sources)}) and "
                f"targets ({len(self.targets)}) must be aligned"
            )

    def __len__(self) -> int:
        return len(self.sources)

    def rows(self) -> Iterator[ExamplePair]:
        """Iterate over aligned rows as :class:`ExamplePair` objects."""
        for src, tgt in zip(self.sources, self.targets, strict=True):
            yield ExamplePair(src, tgt)

    def split(
        self, fraction: float = 0.5
    ) -> tuple[list[ExamplePair], list[ExamplePair]]:
        """Split rows into an example pool and a test set.

        The paper (§5.3) divides each table into two equal halves: ``S_e``
        provides context examples and ``S_t`` is used for testing.

        Args:
            fraction: Fraction of rows assigned to the example pool.

        Returns:
            ``(example_pool, test_rows)`` lists of :class:`ExamplePair`.
        """
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        cut = max(1, int(round(len(self) * fraction)))
        cut = min(cut, len(self) - 1) if len(self) > 1 else cut
        all_rows = list(self.rows())
        return all_rows[:cut], all_rows[cut:]


@dataclass(frozen=True)
class Prediction:
    """The framework's final prediction for one source row.

    Attributes:
        source: The input source value.
        value: Predicted target-formatted value (empty string means the
            model abstained — the ``<eos>``-only case in footnote 2).
        candidates: All per-trial candidate outputs that were aggregated.
        votes: Number of trials that agreed with ``value``.
    """

    source: str
    value: str
    candidates: tuple[str, ...] = ()
    votes: int = 0

    @property
    def consistency(self) -> float:
        """Fraction of trials that agreed with the chosen value."""
        if not self.candidates:
            return 0.0
        return self.votes / len(self.candidates)

    def to_dict(self) -> dict:
        """Serialize for reports and HTTP responses (one schema)."""
        return {
            "source": self.source,
            "value": self.value,
            "votes": self.votes,
            "candidates": list(self.candidates),
        }


@dataclass(frozen=True)
class JoinResult:
    """Result of matching one predicted value into the target column.

    Attributes:
        source: The source row being joined.
        predicted: The framework's predicted target value.
        matched: The target-column value selected by Eq. 5 (or ``None``
            when the row could not be matched).
        expected: Ground-truth target value for the source row.
        distance: Edit distance between ``predicted`` and ``matched``.
    """

    source: str
    predicted: str
    matched: str | None
    expected: str
    distance: int = 0

    @property
    def correct(self) -> bool:
        """True when the join selected the ground-truth target row."""
        return self.matched is not None and self.matched == self.expected

    def to_dict(self) -> dict:
        """Serialize for reports and HTTP responses (one schema)."""
        return {
            "source": self.source,
            "predicted": self.predicted,
            "matched": self.matched,
            "expected": self.expected,
            "distance": self.distance,
            "correct": self.correct,
        }


@dataclass(frozen=True)
class JoinCandidate:
    """One ranked candidate from a top-k join query.

    Attributes:
        value: The target-column value.
        distance: Edit distance between the probe and ``value``.
        row: Earliest target row holding ``value``.
    """

    value: str
    distance: int
    row: int

    def to_dict(self) -> dict:
        """Serialize for reports and HTTP responses (one schema)."""
        return {"value": self.value, "distance": self.distance, "row": self.row}


@dataclass(frozen=True)
class TopKJoinResult:
    """Outcome of a top-k join query for one probe.

    Candidates are the up-to-k nearest *distinct* target values, ranked
    by ``(distance, row)``.  ``matched`` is the rank-1 candidate unless
    the joiner's thresholds reject it or the margin abstention rule
    fires; ``margin`` records the observed normalized gap between the
    rank-1 and rank-2 candidates (``None`` when fewer than two distinct
    candidates were ranked).

    Attributes:
        source: The source row being joined.
        predicted: The probe value that was matched.
        candidates: Ranked :class:`JoinCandidate` tuple (may be empty
            for an abstained/empty probe).
        matched: Selected target value, or ``None`` on abstention.
        distance: Edit distance of the rank-1 candidate (0 when there
            are no candidates).
        margin: Observed normalized rank-1/rank-2 distance gap.
        expected: Ground-truth target value (``""`` when unknown).
    """

    source: str
    predicted: str
    candidates: tuple[JoinCandidate, ...]
    matched: str | None
    distance: int = 0
    margin: float | None = None
    expected: str = ""

    @property
    def correct(self) -> bool:
        """True when the join selected the ground-truth target row."""
        return self.matched is not None and self.matched == self.expected

    def to_dict(self) -> dict:
        """Serialize for reports and HTTP responses (one schema)."""
        return {
            "source": self.source,
            "predicted": self.predicted,
            "matched": self.matched,
            "expected": self.expected,
            "distance": self.distance,
            "margin": self.margin,
            "candidates": [c.to_dict() for c in self.candidates],
        }
