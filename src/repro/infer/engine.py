"""The generation engine: batched, scheduled auto-regressive decoding.

:func:`generate` owns the decode loop that used to live inside
``ByteSeq2SeqModel.generate``.  Given a model and its prompts it
schedules the actual decoding work:

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
fall back to their own ``generate``, so one call serves every member of
a heterogeneous ensemble (:meth:`~repro.core.pipeline.DTTPipeline.predict`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from repro.core.interface import IncrementalSequenceModel, SequenceModel
from repro.obs.trace import get_tracer

#: Largest decode micro-batch (one session, one step loop).  A module
#: constant, not an argument: the cut never changes an output, only how
#: many rows share a step loop.
MAX_BATCH_SIZE = 64


@dataclass
class EngineStats:
    """Counters from one :func:`generate` call.

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


def generate(
    model: SequenceModel, prompts: Sequence[str]
) -> tuple[list[str], EngineStats]:
    """Generate one output per prompt with ``model``; one decode job.

    Incremental models decode through the scheduled loop (dedupe,
    length-sorted micro-batches, live compaction); any other
    ``SequenceModel`` falls back to its own ``generate``.  Greedy
    decoding has no configuration, so the outputs are a pure function
    of ``(model, prompts)``, byte-identical to the model's full-prefix
    decode.  The call shares no mutable state, and the network beneath
    it is read-only during a decode (the no-grad ``infer`` forward
    writes no activation cache), so concurrent callers may re-enter it,
    also with one model.  The job is one ``engine.decode`` span carrying
    the model name and the returned :class:`EngineStats`.
    """
    with get_tracer().span("engine.decode") as span:
        outputs, stats = _generate(model, list(prompts))
        span.set_attributes(
            {"model": getattr(model, "name", type(model).__name__), **asdict(stats)}
        )
    return outputs, stats


def _generate(
    model: SequenceModel, prompts: list[str]
) -> tuple[list[str], EngineStats]:
    if not prompts:
        return [], EngineStats()
    if not isinstance(model, IncrementalSequenceModel):
        return model.generate(prompts), EngineStats(prompts=len(prompts))

    workloads = _collect(model.tokenize_prompts(prompts))
    stats = EngineStats(prompts=len(prompts), decoded_rows=len(workloads))
    results: list[str | None] = [None] * len(prompts)
    for chunk in _plan(workloads):
        outputs = _decode_chunk(model, [w.token_ids for w in chunk], stats)
        stats.chunks += 1
        for workload, text in zip(chunk, outputs, strict=True):
            for row in workload.rows:
                results[row] = text
    assert all(text is not None for text in results)
    return results, stats  # type: ignore[return-value]


# -- planning ----------------------------------------------------------------


def _collect(token_ids: list[list[int]]) -> list[_Workload]:
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


def _plan(workloads: list[_Workload]) -> list[list[_Workload]]:
    """Sort by prompt length and cut at the batch cap."""
    ordered = sorted(workloads, key=lambda w: len(w.token_ids))
    size = MAX_BATCH_SIZE
    return [ordered[i : i + size] for i in range(0, len(ordered), size)]


# -- the decode loop ---------------------------------------------------------


def _decode_chunk(
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
