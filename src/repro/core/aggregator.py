"""Prediction aggregation (paper §4.3, Eq. 3-4; multi-model §5.7).

Each source row receives ``n`` candidate outputs, one per trial.  Under
the maximum-likelihood estimate of Eq. 4 the chosen output is the most
frequent candidate.  Ties are broken by mean similarity to the other
candidates — the candidate closest to the consensus — and then by trial
order for determinism.  Abstentions (empty outputs) never win over a
non-empty candidate.

:class:`MultiModelAggregator` implements the §5.7 ensemble: the trials of
several models are pooled with equal weight, so the more *self-consistent*
model dominates the vote, and agreement across models reinforces a
candidate.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from repro.core.interface import SequenceModel
from repro.text.edit_distance import normalized_edit_distance
from repro.types import Prediction


class Aggregator:
    """Frequency-argmax aggregation over per-trial candidates (Eq. 4)."""

    def aggregate(self, source: str, candidates: Sequence[str]) -> Prediction:
        """Combine the candidate outputs for one source row.

        Args:
            source: The source row the candidates belong to.
            candidates: Per-trial model outputs (may contain empties).

        Returns:
            The aggregated :class:`Prediction`.
        """
        candidates = list(candidates)
        non_empty = [c for c in candidates if c]
        if not non_empty:
            return Prediction(
                source=source, value="", candidates=tuple(candidates), votes=0
            )
        counts = Counter(non_empty)
        best_count = max(counts.values())
        tied = [value for value, count in counts.items() if count == best_count]
        if best_count >= 2:
            winner = self._break_ties(tied, non_empty)
        else:
            # All candidates are singletons: there is no consistency
            # signal (Eq. 4 is flat), so keep trial order — earlier
            # trials come from the primary model in an ensemble.
            winner = tied[0]
        return Prediction(
            source=source,
            value=winner,
            candidates=tuple(candidates),
            votes=counts[winner],
        )

    def _break_ties(self, tied: list[str], all_candidates: list[str]) -> str:
        if len(tied) == 1:
            return tied[0]

        # The expensive part of consensus scoring is the edit-distance
        # DP, which the old code recomputed for every occurrence of
        # every pair (O(n²) DP calls): memoize it per candidate pair
        # and read first occurrences from one precomputed map instead
        # of repeated ``list.index`` scans.  Pairs are memoized
        # *ordered* (ANED normalizes by the target length, so the
        # distance is not symmetric) and the per-occurrence summation
        # order is kept bit-for-bit identical to the original.
        first_occurrence: dict[str, int] = {}
        for position, value in enumerate(all_candidates):
            first_occurrence.setdefault(value, position)
        pair_distance: dict[tuple[str, str], float] = {}

        def distance(value: str, other: str) -> float:
            key = (value, other)
            cached = pair_distance.get(key)
            if cached is None:
                cached = normalized_edit_distance(value, other)
                pair_distance[key] = cached
            return cached

        def consensus_score(value: str) -> float:
            distances = [
                distance(value, other)
                for other in all_candidates
                if other != value
            ]
            if not distances:
                return 0.0
            return -sum(distances) / len(distances)

        # Highest consensus wins; fall back to first occurrence order.
        return max(
            tied, key=lambda v: (consensus_score(v), -first_occurrence[v])
        )


class MultiModelAggregator:
    """Pools equally weighted trials from several models (paper §5.7).

    Args:
        models: The sequence models to ensemble.
        aggregator: Vote aggregator applied to the pooled candidates.

    The decoding work is scheduled by the aggregator's own greedy
    :class:`~repro.infer.GenerationEngine` (:attr:`engine`, whose
    ``last_stats`` reports the most recent pass).
    """

    def __init__(
        self,
        models: Sequence[SequenceModel],
        aggregator: Aggregator | None = None,
    ) -> None:
        if not models:
            raise ValueError("MultiModelAggregator requires at least one model")
        # Imported lazily: repro.infer's engine consumes the model
        # protocols defined in this package, so a module-level import
        # here would be circular.
        from repro.infer.engine import GenerationEngine

        self.models = list(models)
        self.aggregator = aggregator or Aggregator()
        self.engine = GenerationEngine()
        #: Per-model :class:`~repro.infer.engine.EngineStats` from the
        #: most recent :meth:`generate_candidates` call, aligned with
        #: :attr:`models` (empty before the first call).
        self.last_run_stats: list = []

    @property
    def name(self) -> str:
        return "+".join(model.name for model in self.models)

    def generate_candidates(self, prompts: list[str]) -> list[list[str]]:
        """Return per-prompt candidate lists, one candidate per model.

        All prompts of all trials are handed to the generation engine in
        one scheduled call: each incremental model's whole workload goes
        through prompt dedupe, length-sorted micro-batching, and live
        compaction; non-incremental models fall back to their own
        ``generate`` inside the same pass.
        """
        per_model, per_model_stats = self.engine.run_with_stats(
            [(model, prompts) for model in self.models]
        )
        self.last_run_stats = per_model_stats
        if per_model_stats:
            # Preserve the single-engine contract: after a pass, the
            # scheduling engine's ``last_stats`` reflects its last job.
            self.engine.last_stats = per_model_stats[-1]
        return [list(outputs) for outputs in zip(*per_model, strict=True)]
