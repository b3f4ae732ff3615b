"""Myers' bit-parallel capped edit distance, vectorized over candidates.

One DP *column* of Myers' algorithm (the query runs down the pattern
axis) is two uint64 bit-vectors — ``VP``/``VN`` mark pattern rows whose
distance increases/decreases along the column — and one text character
advances the whole column in ~15 word operations.  Here the word
operations are numpy ufuncs over **all candidates at once**: state is
``(n_blocks, n_candidates)`` uint64 matrices, so a batch of ``n``
candidates costs the same number of numpy dispatches as one candidate
costs scalar word ops.

Queries longer than 64 characters chain blocks edlib-style: each block
consumes the horizontal delta (``hin`` in {-1, 0, +1}) the block below
produced this column and emits its own from bit 63.  Bits above a
query's last row hold garbage, which is safe because information only
flows *upward* within a column (shifts and adder carries), never down.

One call scores pairs whose queries have **any mix of lengths**.  No
running score is kept: ``D[0][j] = j`` and the bit-vectors *are* the
vertical deltas of column ``j``, so a pair's distance is read off its
last column as ``len + popcount(VP & rows) - popcount(VN & rows)`` under
a mask of its own ``m_i`` rows.  Pairs sweep together when their
queries span the same number of words (a rung's few long probes do not
drag every short pair onto a multi-block sweep), ordered longest
candidate first: the pairs still inside their candidate at column ``j``
are then a prefix, the column's word operations write preallocated
buffers through views of it, and a finished pair falls off the end with
its final column left in place.

The capped contract is that of the one function this module exports,
:func:`repro.index.kernel.edit_distance_pairs`: values ``<= cap`` are
exact, everything else reports ``cap + 1``.  Early exit uses the lower
bound ``D[m][len] >= D[m][j] - (len - j)``: the slack changes by 0 or
+2 per column, so once a candidate's bound exceeds the cap it is
settled for good and the batch compacts it away.

Preprocessing is per call and memoizes nothing: the ``Peq`` tables
(which pattern rows match each alphabet symbol) are one scatter-or over
the real (unpadded) cells of the query rows the call names — pad never
enters the alphabet — and the candidate chunk is mapped onto their
columns once, before the sweep.
"""

from __future__ import annotations

import numpy as np

_WORD = 64
_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)
_TOP = np.uint64(63)

# Columns between settled-candidate scans, and the fewest settled
# candidates worth a compaction.
_CHECK_EVERY = 16
_COMPACT_MIN = 256


def _build_peq(
    query_rows: np.ndarray, query_lengths: np.ndarray, n_blocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol match masks for ``p`` padded queries of ``n_blocks`` words.

    Returns ``(ucodes, peq)``: the sorted alphabet of the queries'
    *real* characters — pad cells must stay out of it, the symbol table
    is sized by its largest member — and ``peq`` of shape ``(n_blocks,
    p, len(ucodes) + 1)``, where ``peq[b, r, s]`` marks the rows of
    block ``b`` of query ``r`` that match ``ucodes[s]``; the last column
    is the all-zero mask for characters outside the alphabet.
    """
    width = min(query_rows.shape[1], n_blocks * _WORD)
    rows, cols = np.nonzero(np.arange(width) < query_lengths[:, None])
    ucodes, symbol = np.unique(query_rows[rows, cols], return_inverse=True)
    peq = np.zeros((n_blocks, query_rows.shape[0], ucodes.size + 1), dtype=np.uint64)
    bits = _ONE << (cols % _WORD).astype(np.uint64)
    np.bitwise_or.at(peq, (cols // _WORD, rows, symbol), bits)
    return ucodes, peq


def _distances(
    vp: np.ndarray, vn: np.ndarray, row_masks: np.ndarray, columns: np.ndarray
) -> np.ndarray:
    """``D[m_i][columns]`` from the vertical deltas of that DP column.

    ``D[0][j] = j``, so the bottom cell is ``j`` plus the up-steps minus
    the down-steps over each pair's own ``m_i`` rows (``row_masks``;
    the bits above them hold garbage).
    """
    ups = np.bitwise_count(vp & row_masks).sum(axis=0, dtype=np.int64)
    downs = np.bitwise_count(vn & row_masks).sum(axis=0, dtype=np.int64)
    return columns + ups - downs


def _sweep(
    query_rows: np.ndarray,
    query_lengths: np.ndarray,
    query_ids: np.ndarray,
    cand_codes: np.ndarray,
    cand_lengths: np.ndarray,
    cap: int,
    out: np.ndarray,
    active: np.ndarray,
    n_blocks: int,
) -> None:
    """Score the ``active`` pairs, all ``n_blocks`` words deep, into ``out``.

    ``active`` indexes the call's pairs longest candidate first: the
    pairs still inside their candidate at DP column ``j`` are a prefix,
    and a finished pair falls off it with its final column left in
    ``vp``/``vn``.  ``out`` is pre-filled with ``cap + 1``; settled
    pairs keep it.
    """
    # Only the rows the active pairs name get tables.
    rows, ids = np.unique(query_ids[active], return_inverse=True)
    ucodes, peq = _build_peq(query_rows[rows], query_lengths[rows], n_blocks)
    lengths = cand_lengths[active]
    longest = int(lengths[0])
    # The whole chunk maps to flat ``peq`` offsets once — symbol column
    # plus the candidate's query row — transposed so column j of the DP
    # is one contiguous 1-D gather per block.  Symbols come from a
    # lookup table over [0, largest query character + 1]; anything
    # larger (pad included) clips onto its last entry, the all-zero
    # column.
    top = int(ucodes[-1])
    table = np.full(top + 2, ucodes.size, dtype=np.int32)
    table[ucodes] = np.arange(ucodes.size, dtype=np.int32)
    chars = np.ascontiguousarray(cand_codes[active, :longest].T)
    flat_t = table[np.minimum(chars, top + 1, out=chars)]
    flat_t += (ids * peq.shape[2]).astype(np.int32)
    peq = peq.reshape(n_blocks, -1)
    # Bit i of block b is pattern row 64 b + i: all ones below the last
    # block, the low ``m_i - 64 (n_blocks - 1)`` bits within it.
    row_masks = np.full((n_blocks, active.size), _ONES, dtype=np.uint64)
    spare = (n_blocks * _WORD - query_lengths[rows][ids]).astype(np.uint64)
    row_masks[-1] >>= spare
    vp = np.full((n_blocks, active.size), _ONES, dtype=np.uint64)
    vn = np.zeros((n_blocks, active.size), dtype=np.uint64)
    eq, xv, xh, ph, mh, hin_p, hin_n = np.empty((7, active.size), dtype=np.uint64)
    # live[j]: pairs whose candidate reaches past column j — a prefix.
    columns = -np.arange(1, longest + 1)
    live = np.searchsorted(-lengths, columns, side="right")
    base = 0  # the DP column row 0 of ``flat_t`` holds
    for j in range(longest):
        c = int(live[j])
        if not c:
            break
        flat = flat_t[j - base, :c]
        for b in range(n_blocks):
            pv, mv = vp[b, :c], vn[b, :c]
            e, v, h, p, m = eq[:c], xv[:c], xh[:c], ph[:c], mh[:c]
            peq[b].take(flat, out=e, mode="clip")
            np.bitwise_or(e, mv, out=v)
            if b:
                np.bitwise_or(e, hin_n[:c], out=e)
            np.bitwise_and(e, pv, out=h)
            np.add(h, pv, out=h)
            np.bitwise_xor(h, pv, out=h)
            np.bitwise_or(h, e, out=h)
            np.bitwise_or(h, pv, out=p)
            np.invert(p, out=p)
            np.bitwise_or(p, mv, out=p)
            np.bitwise_and(pv, h, out=m)
            if b + 1 < n_blocks:
                # This block's bottom horizontal delta feeds the next
                # (``e`` and ``h`` are free again to carry ours in).
                np.right_shift(p, _TOP, out=e)
                np.right_shift(m, _TOP, out=h)
            np.left_shift(p, _ONE, out=p)
            np.left_shift(m, _ONE, out=m)
            if b:
                np.bitwise_or(p, hin_p[:c], out=p)
                np.bitwise_or(m, hin_n[:c], out=m)
            else:
                np.bitwise_or(p, _ONE, out=p)
            if b + 1 < n_blocks:
                hin_p[:c] = e
                hin_n[:c] = h
            np.bitwise_or(v, p, out=pv)
            np.invert(pv, out=pv)
            np.bitwise_or(pv, m, out=pv)
            np.bitwise_and(p, v, out=mv)
        done = j + 1
        if done % _CHECK_EVERY or done == longest:
            continue
        # D[m][len] >= D[m][done] - (len - done): every remaining column
        # can lower the bottom cell by at most 1.  The slack is
        # monotone, so a settled candidate stays settled: it leaves the
        # batch and keeps the ``big`` that ``out`` was filled with.
        floor = _distances(vp[:, :c], vn[:, :c], row_masks[:, :c], done)
        floor -= lengths[:c] - done
        keep = np.ones(active.size, dtype=bool)
        keep[:c] = floor <= cap
        settled = active.size - int(np.count_nonzero(keep))
        if settled >= _COMPACT_MIN and settled * 4 >= c:
            flat_t = flat_t[done - base :, :c][:, keep[:c]]
            base = done
            active, lengths = active[keep], lengths[keep]
            vp, vn, row_masks = vp[:, keep], vn[:, keep], row_masks[:, keep]
            live = np.searchsorted(-lengths, columns, side="right")
    out[active] = np.minimum(_distances(vp, vn, row_masks, lengths), cap + 1)


def edit_distance_pairs(
    query_rows: np.ndarray,
    query_lengths: np.ndarray,
    query_ids: np.ndarray,
    cand_codes: np.ndarray,
    cand_lengths: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Bit-parallel analogue of :func:`repro.index.kernel.edit_distance_pairs`.

    ``Peq`` tables are built straight from the query table — once per
    distinct probe, never per pair — and each pair indexes them through
    ``query_ids``; one sweep per word count among the queries.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    n = cand_codes.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    big = cap + 1
    pair_lengths = query_lengths[query_ids]
    out = np.full(n, big, dtype=np.int64)
    # Against an empty string the distance is the other side's length.
    trivial = (pair_lengths == 0) | (cand_lengths == 0)
    out[trivial] = np.minimum(np.maximum(pair_lengths, cand_lengths), big)[trivial]
    # |len - m_i| is a lower bound on the distance: candidates outside
    # the window are settled before the sweep starts.
    window = np.abs(cand_lengths - pair_lengths) <= cap
    active = np.nonzero(window & ~trivial)[0]
    # Longest candidate first (see :func:`_sweep`).
    active = active[np.argsort(-cand_lengths[active], kind="stable")]
    words = (pair_lengths[active] + _WORD - 1) // _WORD
    for n_blocks in np.unique(words).tolist():
        _sweep(
            query_rows,
            query_lengths,
            query_ids,
            cand_codes,
            cand_lengths,
            cap,
            out,
            active[words == n_blocks],
            n_blocks,
        )
    return out


__all__ = ["edit_distance_pairs"]
