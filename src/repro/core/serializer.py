"""Decomposer and serializer (paper §4.1).

The decomposer splits "transform this column given k examples" into
per-row sub-tasks, each carrying a small context of example pairs drawn
from the example pool.  Each row is decomposed into ``n_trials``
sub-tasks with *different* contexts so the aggregator can vote.

The serializer renders a sub-task in the paper's markup::

    <sos>s1<tr>t1<eoe>s2<tr>t2<eoe>query<tr><eos>

and parses it back (the surrogates consume the parsed form; the neural
model consumes the tokenized form).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import SerializationError
from repro.types import ExamplePair
from repro.utils.rng import derive_rng


@dataclass(frozen=True)
class SubTask:
    """One decomposed prediction task: a context plus a query row.

    Attributes:
        row_index: Index of the query row in the source column.
        trial: Trial number for this row (0-based).
        context: The example pairs serving as the in-context demonstration.
        query: The source value to transform.
    """

    row_index: int
    trial: int
    context: tuple[ExamplePair, ...]
    query: str


class PromptSerializer:
    """Serializes sub-tasks to the §4.1 markup and parses them back."""

    SOS = "<sos>"
    EOS = "<eos>"
    TR = "<tr>"
    EOE = "<eoe>"

    def serialize(self, context: Sequence[ExamplePair], query: str) -> str:
        """Render ``<sos>s1<tr>t1<eoe>...<eoe>query<tr><eos>``."""
        pieces = [self.SOS]
        for pair in context:
            pieces.append(f"{pair.source}{self.TR}{pair.target}{self.EOE}")
        pieces.append(f"{query}{self.TR}{self.EOS}")
        return "".join(pieces)

    def parse(self, prompt: str) -> tuple[list[ExamplePair], str]:
        """Parse a serialized prompt back into ``(context, query)``.

        Raises:
            SerializationError: If the prompt does not follow the markup.
        """
        body = prompt
        if body.startswith(self.SOS):
            body = body[len(self.SOS) :]
        else:
            raise SerializationError("prompt must start with <sos>")
        if body.endswith(self.EOS):
            body = body[: -len(self.EOS)]
        else:
            raise SerializationError("prompt must end with <eos>")
        segments = body.split(self.EOE)
        if not segments:
            raise SerializationError("prompt has no segments")
        *example_segments, query_segment = segments
        context: list[ExamplePair] = []
        for segment in example_segments:
            parts = segment.split(self.TR)
            if len(parts) != 2:
                raise SerializationError(
                    f"example segment must contain one <tr>: {segment!r}"
                )
            context.append(ExamplePair(parts[0], parts[1]))
        if not query_segment.endswith(self.TR):
            raise SerializationError("query segment must end with <tr>")
        query = query_segment[: -len(self.TR)]
        if self.TR in query:
            raise SerializationError("query segment contains a stray <tr>")
        return context, query


class Decomposer:
    """Builds per-row sub-tasks with sampled example contexts (§4.1, §5.3).

    Args:
        context_size: Examples per context (paper default: 2).
        n_trials: Contexts sampled per row (paper default: 5).
        seed: Seed for reproducible context sampling.
    """

    def __init__(self, context_size: int = 2, n_trials: int = 5, seed: int = 0) -> None:
        if context_size < 1:
            raise ValueError(f"context_size must be >= 1, got {context_size}")
        if n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {n_trials}")
        self.context_size = context_size
        self.n_trials = n_trials
        self.seed = seed

    def decompose(
        self,
        sources: Sequence[str],
        examples: Sequence[ExamplePair],
    ) -> list[SubTask]:
        """Build ``n_trials`` sub-tasks per source row.

        Contexts are sampled without replacement from the pool of size-k
        subsets when enough distinct subsets exist, otherwise with
        replacement (tiny pools).
        """
        if not examples:
            raise SerializationError("example pool is empty")
        if len(examples) < self.context_size:
            raise SerializationError(
                f"need at least {self.context_size} examples, got {len(examples)}"
            )
        pool = list(examples)
        subtasks: list[SubTask] = []
        for row_index, query in enumerate(sources):
            rng = derive_rng(self.seed, "context", row_index)
            for trial in range(self.n_trials):
                context = self._sample_context(rng, pool)
                subtasks.append(
                    SubTask(
                        row_index=row_index,
                        trial=trial,
                        context=context,
                        query=query,
                    )
                )
        return subtasks

    def _sample_context(
        self, rng: np.random.Generator, pool: list[ExamplePair]
    ) -> tuple[ExamplePair, ...]:
        picks = rng.choice(len(pool), size=self.context_size, replace=False)
        return tuple(pool[int(i)] for i in picks)
