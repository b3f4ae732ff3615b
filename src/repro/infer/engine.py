"""The generation engine: batched, scheduled auto-regressive decoding.

:class:`GenerationEngine` owns the decode loop that used to live inside
``ByteSeq2SeqModel.generate``.  Given one or more ``(model, prompts)``
jobs it schedules the actual decoding work:

* **Dedupe** — identical tokenized prompts (across the trials of a
  scheduled call) decode once and fan back out to every occurrence.
  Decoding is greedy argmax, so a duplicate could only ever repeat
  its twin's output.
* **Micro-batching** — prompts are sorted by token length and cut at
  :data:`MAX_BATCH_SIZE` only.  A micro-batch is one decode session and
  one step loop whatever its mix of prompt lengths; keeping short
  prompts from paying the longest prompt's padding is the session's
  business, where it costs — in the encoder (:mod:`repro.infer.session`).
* **Live compaction** — rows that emit ``<eos>`` are sliced out of the
  micro-batch (KV caches included) mid-decode, so a few long outputs
  don't drag finished rows through the remaining steps.

Models that do not expose the incremental-decoding interface (the
surrogates, or any external :class:`~repro.core.interface.SequenceModel`)
fall back to their own ``generate``, keeping the engine a drop-in
scheduler for heterogeneous ensembles.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.interface import IncrementalSequenceModel, SequenceModel
from repro.obs.trace import get_tracer

#: Largest decode micro-batch (one session, one step loop).  A module
#: constant, not an argument: the cut never changes an output, only how
#: many rows share a step loop.
MAX_BATCH_SIZE = 64


@dataclass
class EngineStats:
    """Counters from the most recent :meth:`GenerationEngine.generate`.

    Attributes:
        prompts: Prompts requested.
        decoded_rows: Rows actually decoded (post-dedupe).  Zero when
            the call fell back to a non-incremental model's own
            ``generate`` — the engine decoded nothing itself.
        chunks: Micro-batches scheduled — decode sessions opened, step
            loops run.
        steps: Total ``decode_step`` calls across all chunks.
        row_steps: Sum of live batch sizes over those steps — the number
            of per-row decode operations actually paid.  With compaction
            this is strictly less than ``decoded_rows * max_steps`` when
            rows finish early.
    """

    prompts: int = 0
    decoded_rows: int = 0
    chunks: int = 0
    steps: int = 0
    row_steps: int = 0

    @classmethod
    def merged(cls, stats: Sequence[EngineStats]) -> EngineStats:
        """Sum counters across jobs (an ensemble pass, a serve batch)."""
        total = cls()
        for item in stats:
            total.prompts += item.prompts
            total.decoded_rows += item.decoded_rows
            total.chunks += item.chunks
            total.steps += item.steps
            total.row_steps += item.row_steps
        return total


@dataclass
class _Workload:
    """One unique decode row and the request indices it fans out to."""

    token_ids: list[int]
    rows: list[int] = field(default_factory=list)


class GenerationEngine:
    """Schedules greedy auto-regressive decoding for one or more models.

    The engine has no configuration: decoding is argmax, identical
    prompts always decode once, and micro-batches are cut at
    :data:`MAX_BATCH_SIZE`.  Its outputs are therefore a pure function
    of ``(model, prompts)``, byte-identical to the model's full-prefix
    greedy decode, and every engine instance is interchangeable — an
    instance only carries its :attr:`last_stats` slot.
    """

    def __init__(self) -> None:
        self.last_stats = EngineStats()

    # -- scheduling entry points ------------------------------------------

    def run(
        self, jobs: Sequence[tuple[SequenceModel, Sequence[str]]]
    ) -> list[list[str]]:
        """Run every ``(model, prompts)`` job through one scheduled pass.

        The per-model workloads are planned independently (different
        models share no weights, so their decodes cannot be merged), but
        each incremental model's full prompt set — all trials at once —
        goes through dedupe, micro-batching, and compaction as one batch.

        Returns:
            One output list per job, aligned with the job's prompts.
        """
        return [self.generate(model, prompts) for model, prompts in jobs]

    def run_with_stats(
        self, jobs: Sequence[tuple[SequenceModel, Sequence[str]]]
    ) -> tuple[list[list[str]], list[EngineStats]]:
        """Like :meth:`run`, returning per-job stats alongside the outputs.

        Unlike :meth:`run`/:meth:`generate` — which publish counters
        through the shared :attr:`last_stats` slot — this entry point
        hands each job's :class:`EngineStats` straight back to the
        caller, so concurrent schedulers (the serving layer's batch
        executor, an eval run on another thread) never read each
        other's counters.  The engine holds no per-call mutable state
        beyond ``last_stats``, which this method does not touch, and the
        network beneath it is read-only during a decode — the encoder
        and the decode steps run the no-grad ``infer`` forward, which
        writes no module activation cache — so it is safe to re-enter
        from multiple threads with externally composed batches, also
        for jobs that share one model.
        """
        tracer = get_tracer()
        outputs: list[list[str]] = []
        stats: list[EngineStats] = []
        for model, prompts in jobs:
            span = tracer.start_span("engine.decode")
            try:
                job_outputs, job_stats = self.generate_with_stats(
                    model, prompts
                )
            except BaseException as error:
                span.set_error(repr(error))
                span.finish()
                raise
            span.set_attributes(
                {
                    "model": getattr(model, "name", type(model).__name__),
                    "prompts": job_stats.prompts,
                    "decoded_rows": job_stats.decoded_rows,
                    "chunks": job_stats.chunks,
                    "steps": job_stats.steps,
                    "row_steps": job_stats.row_steps,
                }
            )
            span.finish()
            outputs.append(job_outputs)
            stats.append(job_stats)
        return outputs, stats

    def generate(
        self, model: SequenceModel, prompts: Sequence[str]
    ) -> list[str]:
        """Generate one output per prompt with ``model``.

        Incremental models decode through the engine's scheduled loop;
        any other ``SequenceModel`` falls back to its own ``generate``.
        """
        outputs, stats = self.generate_with_stats(model, prompts)
        self.last_stats = stats
        return outputs

    def generate_with_stats(
        self, model: SequenceModel, prompts: Sequence[str]
    ) -> tuple[list[str], EngineStats]:
        """:meth:`generate` without publishing to :attr:`last_stats`.

        The re-entrant core of the engine: a pure function of
        ``(model, prompts)`` with no shared mutable state, so external
        schedulers can run it concurrently.
        """
        prompts = list(prompts)
        if not prompts:
            return [], EngineStats()
        if not isinstance(model, IncrementalSequenceModel):
            return model.generate(prompts), EngineStats(prompts=len(prompts))

        token_ids = model.tokenize_prompts(prompts)
        workloads = self._collect(token_ids)
        stats = EngineStats(prompts=len(prompts), decoded_rows=len(workloads))
        results: list[str | None] = [None] * len(prompts)
        for chunk in self._plan(workloads):
            outputs = self._decode_chunk(model, [w.token_ids for w in chunk], stats)
            stats.chunks += 1
            for workload, text in zip(chunk, outputs, strict=True):
                for row in workload.rows:
                    results[row] = text
        assert all(text is not None for text in results)
        return results, stats  # type: ignore[return-value]

    # -- planning ----------------------------------------------------------

    def _collect(self, token_ids: list[list[int]]) -> list[_Workload]:
        """Build unique decode rows, collapsing duplicate prompts."""
        groups: dict[tuple[int, ...], _Workload] = {}
        for row, ids in enumerate(token_ids):
            key = tuple(ids)
            workload = groups.get(key)
            if workload is None:
                workload = _Workload(ids)
                groups[key] = workload
            workload.rows.append(row)
        return list(groups.values())

    def _plan(self, workloads: list[_Workload]) -> list[list[_Workload]]:
        """Sort by prompt length and cut at the batch cap."""
        ordered = sorted(workloads, key=lambda w: len(w.token_ids))
        size = MAX_BATCH_SIZE
        return [ordered[i : i + size] for i in range(0, len(ordered), size)]

    # -- the decode loop ---------------------------------------------------

    def _decode_chunk(
        self,
        model: IncrementalSequenceModel,
        prompt_ids: list[list[int]],
        stats: EngineStats,
    ) -> list[str]:
        """Decode one micro-batch, compacting finished rows out live."""
        session = model.start_decode(prompt_ids)
        n_rows = len(prompt_ids)
        tokens: list[list[int]] = [[] for _ in range(n_rows)]
        live = np.arange(n_rows)
        current = np.full(n_rows, session.sos_id, dtype=np.int64)
        for _ in range(session.max_steps):
            logits = session.step(current)
            stats.steps += 1
            stats.row_steps += live.size
            next_ids = logits.argmax(axis=-1)
            for slot, row in enumerate(live):
                tokens[row].append(int(next_ids[slot]))
            finished = next_ids == session.eos_id
            if finished.any():
                keep = ~finished
                live = live[keep]
                if live.size == 0:
                    break
                session.compact(keep)
                current = next_ids[keep]
            else:
                current = next_ids
        return [session.decode_tokens(row_tokens) for row_tokens in tokens]
