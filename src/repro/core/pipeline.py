"""The end-to-end DTT pipeline (paper Figure 2).

``DTTPipeline`` wires the decomposer, serializer, model(s), aggregator,
and joiner together.  Its two public operations mirror the paper's use
cases:

* :meth:`transform_column` — predict a target-formatted value for every
  source row (missing-value imputation / auto-fill).
* :meth:`join` — transform and then match into a target column (Eq. 5).

Between them sits :meth:`DTTPipeline.predict`, the one prediction stage
that both ``transform_column`` and the serving layer's micro-batcher
call.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from itertools import accumulate, pairwise

from repro.core.aggregator import Aggregator
from repro.core.interface import IncrementalSequenceModel, SequenceModel
from repro.core.join_config import JoinConfig
from repro.core.joiner import EditDistanceJoiner
from repro.core.serializer import Decomposer, PromptSerializer, SubTask
from repro.index.joiner import make_joiner
from repro.infer.engine import EngineStats, generate
from repro.types import ExamplePair, JoinResult, Prediction
from repro.utils.timing import Stopwatch


def model_fingerprint(model: SequenceModel) -> str:
    """Content fingerprint of a model, for result-cache keys.

    Models that know how to fingerprint themselves (configuration plus
    weights for the trainable transformer, the deterministic parameter
    set for the surrogates) expose a ``fingerprint()`` method; anything
    else falls back to its type and name — coarse, but honest: two
    differently named models never share a cache entry, and an unnamed
    external model changes its fingerprint when swapped for another
    class.
    """
    fingerprint = getattr(model, "fingerprint", None)
    if callable(fingerprint):
        return str(fingerprint())
    return f"{type(model).__qualname__}:{getattr(model, 'name', '')}"


class DTTPipeline:
    """End-to-end example-driven table transformation.

    Args:
        model: A single sequence model, or a list of models to ensemble
            with equal weight (paper §5.7).
        context_size: Example pairs per sub-task context (paper: 2).
        n_trials: Trials per row *per model* (paper: 5).
        seed: Seed for context sampling.
        joiner: Join strategy; a joiner instance, or one of the strategy
            names ``"brute"`` / ``"indexed"`` / ``"auto"`` resolved via
            :func:`repro.index.joiner.make_joiner`.  Defaults to ``"auto"``,
            which is the plain Eq. 5 argmin executed by scalar scan on
            small target columns and by the q-gram blocked engine on
            large ones — results are identical either way.  :meth:`join`
            hands the whole predicted column to the joiner's
            ``join_many`` batch API in one call, and blocked strategies
            share q-gram indexes through the process-level
            :class:`~repro.index.cache.IndexCache`, so repeated
            pipelines over the same target column never rebuild.
        join_config: :class:`~repro.core.join_config.JoinConfig` carried
            into :func:`repro.index.joiner.make_joiner` when ``joiner`` is a
            strategy name (a joiner instance carries its own settings):
            the two rejection thresholds, the worker count and the
            kernel backend in one frozen object.

    The prediction stage (:meth:`predict`) hands all prompts of all
    trials to :func:`repro.infer.engine.generate` as one job per model,
    where incremental models (the trained byte-level transformer) get
    KV-cached decoding with prompt dedupe, length-sorted
    micro-batching, and live compaction of finished rows —
    byte-identical to the full-prefix decode it replaced.  The job
    counters of the most recent :meth:`transform_column` call land in
    :attr:`last_engine_stats`, one :class:`~repro.infer.engine.EngineStats`
    per model in model order.
    """

    def __init__(
        self,
        model: SequenceModel | Sequence[SequenceModel],
        context_size: int = 2,
        n_trials: int = 5,
        seed: int = 0,
        joiner: EditDistanceJoiner | str | None = None,
        join_config: JoinConfig | None = None,
    ) -> None:
        models = [model] if isinstance(model, SequenceModel) else list(model)
        if not models:
            raise ValueError("DTTPipeline requires at least one model")
        self.models: list[SequenceModel] = models
        self.decomposer = Decomposer(
            context_size=context_size, n_trials=n_trials, seed=seed
        )
        self.serializer = PromptSerializer()
        self.aggregator = Aggregator()
        if joiner is None or isinstance(joiner, str):
            self.joiner = make_joiner(
                "auto" if joiner is None else joiner, config=join_config
            )
        else:
            self.joiner = joiner
        self.stopwatch = Stopwatch()
        self.last_engine_stats: list[EngineStats] = []

    @property
    def name(self) -> str:
        return f"DTT[{'+'.join(model.name for model in self.models)}]"

    def fingerprint(self) -> str:
        """Content fingerprint of everything that determines the outputs.

        Covers the ensemble's model fingerprints and the decomposition
        configuration (context size, trial count, sampling seed).  The
        generation engine adds nothing: it has no configuration, and
        greedy decoding is a function of the model and the prompts.
        Used by the serving layer to key its memoized transform results;
        compute it *after* any training step — the trainable model's
        fingerprint covers its weights.
        """
        digest = hashlib.sha256()
        digest.update(b"repro.pipeline.fingerprint")
        for model in self.models:
            digest.update(model_fingerprint(model).encode("utf-8"))
            digest.update(b"\x00")
        parts = (
            self.decomposer.context_size,
            self.decomposer.n_trials,
            self.decomposer.seed,
        )
        digest.update(repr(parts).encode("utf-8"))
        return digest.hexdigest()

    def prepare_prompts(
        self,
        sources: Sequence[str],
        examples: Sequence[ExamplePair],
    ) -> tuple[list[SubTask], list[str]]:
        """Decompose and serialize: the prompt-construction stage.

        Returns the sub-tasks and their serialized prompts, aligned.
        Exposed separately so external schedulers (the serving layer's
        micro-batcher) can hand prompts from many requests to one
        :meth:`predict` call while keeping this stage byte-identical to
        :meth:`transform_column`.
        """
        subtasks = self.decomposer.decompose(sources, examples)
        prompts = [
            self.serializer.serialize(task.context, task.query)
            for task in subtasks
        ]
        return subtasks, prompts

    def predict(
        self, prompt_groups: Sequence[Sequence[str]]
    ) -> tuple[list[list[list[str]]], list[EngineStats]]:
        """Run every model over every group's prompts: the prediction stage.

        Returns, per group and per prompt, the candidate outputs of
        every model in model order — the equal-weight pool of paper
        §5.7 — plus one :class:`~repro.infer.engine.EngineStats` per
        model.  An incremental model decodes all groups' prompts as one
        job: greedy decoding is a pure per-prompt function, so pooling
        cannot change an output and lets dedupe and micro-batching work
        across groups.  Any other model gets one job per group, since
        the surrogates draw occurrence-indexed samples within a call;
        each group is then decoded exactly as ``predict([group])``
        would decode it.
        """
        groups = [list(group) for group in prompt_groups]
        per_model: list[list[list[str]]] = []
        stats: list[EngineStats] = []
        for model in self.models:
            if isinstance(model, IncrementalSequenceModel):
                pooled, model_stats = generate(
                    model, [prompt for group in groups for prompt in group]
                )
                cuts = pairwise(accumulate(map(len, groups), initial=0))
                per_model.append([pooled[start:stop] for start, stop in cuts])
            else:
                jobs = [generate(model, group) for group in groups]
                per_model.append([outputs for outputs, _ in jobs])
                model_stats = EngineStats.merged([job for _, job in jobs])
            stats.append(model_stats)
        candidates = [
            [list(row) for row in zip(*group_outputs, strict=True)]
            for group_outputs in zip(*per_model, strict=True)
        ]
        return candidates, stats

    def aggregate_candidates(
        self,
        sources: Sequence[str],
        subtasks: Sequence[SubTask],
        candidate_lists: Sequence[Sequence[str]],
    ) -> list[Prediction]:
        """Vote per-row candidates into predictions: the final stage.

        ``candidate_lists[i]`` carries the per-model candidates of
        ``subtasks[i]``; rows missing from ``subtasks`` aggregate over
        an empty candidate pool (an abstention).
        """
        per_row: dict[int, list[str]] = {i: [] for i in range(len(sources))}
        for task, candidates in zip(subtasks, candidate_lists, strict=True):
            per_row[task.row_index].extend(candidates)
        return [
            self.aggregator.aggregate(sources[i], per_row[i])
            for i in range(len(sources))
        ]

    def transform_column(
        self,
        sources: Sequence[str],
        examples: Sequence[ExamplePair],
    ) -> list[Prediction]:
        """Predict a target-formatted value for every source row.

        Args:
            sources: The source column values to transform.
            examples: The example pool (user-provided or auto-generated).

        Returns:
            One aggregated :class:`Prediction` per source row, in order.
        """
        sources = list(sources)
        if not sources:
            self.last_engine_stats = [EngineStats() for _ in self.models]
            return []
        with self.stopwatch.lap("decompose"):
            subtasks, prompts = self.prepare_prompts(sources, examples)
        with self.stopwatch.lap("predict"):
            (candidate_lists,), self.last_engine_stats = self.predict([prompts])
        with self.stopwatch.lap("aggregate"):
            predictions = self.aggregate_candidates(
                sources, subtasks, candidate_lists
            )
        return predictions

    def join(
        self,
        sources: Sequence[str],
        targets: Sequence[str],
        examples: Sequence[ExamplePair],
        expected: Sequence[str] | None = None,
    ) -> list[JoinResult]:
        """Transform the source column and join it into ``targets``.

        Args:
            sources: Source column values.
            targets: Target column to join into.
            examples: Example pool guiding the transformation.
            expected: Ground-truth target per source row, for scoring.
        """
        predictions = self.transform_column(sources, examples)
        with self.stopwatch.lap("join"):
            results = self.joiner.join(predictions, targets, expected)
        return results
