"""The inference subsystem: KV-cached generation with batched scheduling.

Generation used to re-decode the entire growing prefix at every step —
O(T²) per row in output length.  This package routes it through the
transformer's incremental path instead: per-block self-attention KV
caches, one-time cross-attention projections of the encoder memory, and
a greedy :func:`~repro.infer.engine.generate` that schedules one
model's prompts across micro-batches (prompt dedupe, one step loop per
micro-batch over length-slabbed encodes, live compaction of finished
rows) and returns the job's :class:`EngineStats` beside the outputs.
The engine's output is byte-identical to the full-prefix reference
decode (``ByteSeq2SeqModel.generate_full_prefix``), enforced by
``tests/test_generation.py`` — except zero-token prompts (impossible
via the §4.1 markup), which decode through the masked-softmax
degeneracy guard instead of the batch path's uniform-over-padding
fallback.
"""
