"""One incremental decode session over an encoded prompt micro-batch.

A :class:`DecodeSession` is the unit of work the generation engine
schedules: it encodes one micro-batch of tokenized prompts, holds the
decoder's incremental state (per-block self-attention KV caches plus the
one-time cross-attention projections of the encoder memory), and steps
the decoder one token per call.  Finished rows are compacted out of the
batch via :meth:`compact` so the remaining rows decode in a smaller
batch.

Padding is decided where it costs.  The encoder is quadratic in the
padded width, so a session encodes its rows in ``SLAB_WIDTH``-token
length slabs, each padded only to its own longest prompt; a decode step
is dominated by per-call dispatch, not by the memory's width, so the
slab memories are zero-padded to the longest and every row — whatever
its prompt length — rides **one** decoder state and one step loop.  A
padded memory column is masked to exactly zero attention weight.

The encode uses every core the process is granted.  Each slab is cut
into row tiles of at most ``TILE_CELLS`` rows x width² cells, which
bounds the ``(rows, heads, width, width)`` attention scores one tile
holds; the calling thread and one helper thread per extra core drain
the tiles from one shared counter, each writing its own rows of the
memory.  Every encoder op is a per-row GEMM slice, an elementwise op or
a reduction over the contiguous last axis, so a row's bytes do not
depend on which tile carried it.  The helpers live for one encode and
are joined before the session returns: no idle thread outlives it, so
a forked child inherits no executor whose threads it lacks, and the
fork-first policy of :func:`repro.serve.workers.pool_context` (never
fork a multi-threaded parent) still forks after a transform.  A
one-tile session starts no helper.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.nn.transformer import Seq2SeqTransformer
from repro.tokenizer.byte_tokenizer import ByteTokenizer

#: Prompt-length granularity of the encode, in tokens.
SLAB_WIDTH = 16

#: Largest encoder tile, in rows x padded-width² cells.
TILE_CELLS = 1 << 16

try:
    _CORES = len(os.sched_getaffinity(0))
except AttributeError:  # non-Linux
    _CORES = os.cpu_count() or 1


def _run_tiles(tiles: list[tuple], run_tile: Callable[..., None]) -> None:
    """``run_tile(*tile)`` for every tile, on the caller plus idle cores.

    The calling thread and one helper per extra granted core claim tiles
    from one counter until none is left; the helpers are joined before
    this returns, and one tile (or one core) starts none.
    """
    claim = itertools.count().__next__

    def drain() -> None:
        while (index := claim()) < len(tiles):
            run_tile(*tiles[index])

    n_helpers = min(_CORES, len(tiles)) - 1
    if n_helpers < 1:
        drain()
        return
    with ThreadPoolExecutor(n_helpers, thread_name_prefix="repro-encode") as pool:
        helpers = [pool.submit(drain) for _ in range(n_helpers)]
        drain()
    for helper in helpers:
        helper.result()


class DecodeSession:
    """Incremental decoding over one encoded micro-batch.

    Args:
        network: The transformer whose decoder is stepped.
        tokenizer: Tokenizer used to pad the batch and decode outputs.
        prompt_ids: Tokenized (pre-truncated) prompts of the micro-batch.
        max_steps: Decode-step budget (tokens generated per row).
    """

    def __init__(
        self,
        network: Seq2SeqTransformer,
        tokenizer: ByteTokenizer,
        prompt_ids: Sequence[Sequence[int]],
        max_steps: int,
    ) -> None:
        slabs: dict[int, list[int]] = {}
        for row, ids in enumerate(prompt_ids):
            slabs.setdefault(len(ids) // SLAB_WIDTH, []).append(row)
        width = max(1, max(len(ids) for ids in prompt_ids))
        memory = np.zeros((len(prompt_ids), width, network.dim))
        memory_mask = np.zeros((len(prompt_ids), width))
        tiles = []
        for rows in slabs.values():
            input_ids, input_mask = tokenizer.pad_batch(
                [list(prompt_ids[row]) for row in rows]
            )
            if input_ids.shape[1] == 0:
                # A slab of zero-token prompts (impossible via the §4.1
                # markup, reachable through the raw generate API): give
                # the encoder one padding column so shapes stay valid.
                # The all-zero mask routes cross-attention through the
                # degeneracy guard (zero context) instead of the batch
                # path's uniform-over-padding fallback, so such rows are
                # excluded from the byte-identical equivalence claim.
                input_ids = np.full(
                    (len(rows), 1), tokenizer.vocab.pad_id, dtype=np.int64
                )
                input_mask = np.zeros((len(rows), 1))
            slab_width = input_ids.shape[1]
            memory_mask[rows, :slab_width] = input_mask
            tile_rows = max(1, TILE_CELLS // slab_width**2)
            for start in range(0, len(rows), tile_rows):
                stop = start + tile_rows
                tiles.append(
                    (rows[start:stop], input_ids[start:stop], input_mask[start:stop])
                )

        def encode(rows, input_ids, input_mask) -> None:
            memory[rows, : input_ids.shape[1]] = network.infer_encode(
                input_ids, input_mask
            )

        _run_tiles(tiles, encode)
        self._network = network
        self._tokenizer = tokenizer
        self.state = network.start_decoder_state(
            memory, memory_mask, capacity=max_steps
        )
        self.max_steps = max_steps
        self.batch_size = len(prompt_ids)

    @property
    def sos_id(self) -> int:
        return self._tokenizer.vocab.sos_id

    @property
    def eos_id(self) -> int:
        return self._tokenizer.vocab.eos_id

    def step(self, token_ids: np.ndarray) -> np.ndarray:
        """Decode one token per live row; returns ``(batch, vocab)`` logits."""
        return self._network.decode_step(token_ids, self.state)

    def compact(self, keep: np.ndarray) -> None:
        """Drop finished rows; ``keep`` flags the rows that stay live."""
        self.state.select(keep)
        self.batch_size = int(np.count_nonzero(keep))

    def decode_tokens(self, token_ids: Sequence[int]) -> str:
        """Render generated token ids as text (stops at ``<eos>``)."""
        return self._tokenizer.decode(list(token_ids), strip_special=True)
