"""Common interface for end-to-end table joiners.

Every method (DTT and all baselines) consumes the same inputs — a source
column, a target column, and an example pool — and emits one match (or
abstention) per source row, plus optionally the predicted target strings
for AED/ANED scoring (only generative methods produce those).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.types import ExamplePair


@dataclass(frozen=True)
class JoinOutput:
    """Result of joining one table.

    Attributes:
        matches: One entry per source row: the matched target value, or
            ``None`` when the method left the row unmatched.
        predictions: Predicted target strings (generative methods only).
        stats: Optional execution counters for the run — e.g. the DTT
            pipeline reports its generation-engine scheduling stats
            under ``"engine"`` and its join-engine batch/cache/kernel
            stats under ``"join"``.  Baselines may leave this ``None``.
    """

    matches: tuple[str | None, ...]
    predictions: tuple[str, ...] | None = None
    stats: dict | None = None


@runtime_checkable
class TableJoiner(Protocol):
    """An end-to-end heterogeneous-join method."""

    @property
    def name(self) -> str:
        """Short method name used in report tables."""
        ...

    def join_table(
        self,
        sources: Sequence[str],
        targets: Sequence[str],
        examples: Sequence[ExamplePair],
    ) -> JoinOutput:
        """Join ``sources`` into ``targets`` guided by ``examples``."""
        ...
