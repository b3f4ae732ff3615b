"""Average (normalized) edit distance — AED and ANED (paper §5.4).

These measure how far *predicted strings* are from the ground-truth
targets, independent of whether the join succeeded.  ANED normalizes by
target length so scores are comparable across datasets.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.text.edit_distance import edit_distances, normalize_distance


@dataclass(frozen=True)
class EditScores:
    """Edit-distance aggregates for one table.

    Attributes:
        aed: Average edit distance between predictions and targets.
        aned: Average normalized edit distance.
        count: Number of scored rows.
    """

    aed: float
    aned: float
    count: int


def score_edits(predictions: Sequence[str], targets: Sequence[str]) -> EditScores:
    """Compute AED/ANED for aligned prediction/target columns."""
    if len(predictions) != len(targets):
        raise ValueError(
            f"predictions ({len(predictions)}) and targets ({len(targets)}) "
            "must be aligned"
        )
    if not predictions:
        return EditScores(aed=0.0, aned=0.0, count=0)
    pairs = list(zip(predictions, targets, strict=True))
    distances = edit_distances(pairs)
    normalized = [
        normalize_distance(d, p, t) for d, (p, t) in zip(distances, pairs, strict=True)
    ]
    return EditScores(
        aed=sum(distances) / len(distances),
        aned=sum(normalized) / len(normalized),
        count=len(predictions),
    )
