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
produced this column and emits its own from bit 63.  The running
distance ``score = D[m][j]`` is tracked at bit ``(m - 1) % 64`` of the
last block — bits above it hold garbage, which is safe because
information only flows *upward* within a column (shifts and adder
carries), never down.

The capped contract is that of the one function this module exports,
:func:`repro.index.kernel.edit_distance_pairs`: values ``<= cap`` are
exact, everything else reports ``cap + 1``.  Early exit uses the lower
bound ``D[m][len] >= score_j - (len - j)``: the slack ``score_j - (len
- j)`` changes by 0 or +2 per column, so once a candidate's bound
exceeds the cap it is settled for good and the batch compacts it away.

Preprocessing is per call and memoizes nothing: the ``Peq`` tables
(which pattern rows match each alphabet symbol) are ``m`` small
scatter-ors over the caller's table of distinct queries, and the
candidate chunk is mapped onto their columns once, before the sweep.
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


def _build_peq(query_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-symbol match masks for a batch of equal-length queries.

    Args:
        query_rows: ``(p, m)`` uint32 code matrix, one row per distinct
            query.

    Returns:
        ``(ucodes, peq)`` where ``ucodes`` is the sorted alphabet of
        the queries and ``peq`` has shape ``(n_blocks, p, len(ucodes)
        + 1)`` — ``peq[b, r, s]`` marks which rows of block ``b`` of
        query ``r`` match symbol ``ucodes[s]``; the last column is the
        all-zero mask for characters outside the alphabet.
    """
    p, m = query_rows.shape
    n_blocks = (m + _WORD - 1) // _WORD
    ucodes = np.unique(query_rows)
    peq = np.zeros((n_blocks, p, ucodes.size + 1), dtype=np.uint64)
    rows = np.arange(p)
    symbol = np.searchsorted(ucodes, query_rows)
    for k in range(m):
        bit = np.uint64(1 << (k % _WORD))
        peq[k // _WORD][rows, symbol[:, k]] |= bit
    return ucodes, peq


def _symbol_ids(ucodes: np.ndarray, chars: np.ndarray) -> np.ndarray:
    """Map candidate characters (any shape) into ``peq`` columns.

    Characters outside the query alphabet (pad included) land on the
    sentinel all-zero column ``len(ucodes)``.  A lookup table over
    ``[0, largest query character + 1]`` makes that one gather per cell
    where ``searchsorted`` pays a binary search per cell; every larger
    character clips onto the table's last, sentinel entry.
    """
    top = int(ucodes[-1])
    table = np.full(top + 2, ucodes.size, dtype=np.intp)
    table[ucodes] = np.arange(ucodes.size)
    return table[np.minimum(chars, top + 1)]


def _sweep(
    peq: np.ndarray,
    query_ids: np.ndarray,
    ucodes: np.ndarray,
    m: int,
    cand_codes: np.ndarray,
    cand_lengths: np.ndarray,
    cap: int,
    out: np.ndarray,
    active: np.ndarray,
) -> np.ndarray:
    """Run the bit-parallel column sweep over the active candidates.

    ``query_ids`` selects each active candidate's query row of ``peq``;
    ``out`` is pre-filled with ``big`` and settled candidates keep it.
    """
    big = cap + 1
    n_blocks = peq.shape[0]
    score_bit = np.uint64((m - 1) % _WORD)
    # The whole chunk maps to flat ``peq`` offsets once — symbol column
    # plus the candidate's query row — transposed so column j of the DP
    # is one contiguous 1-D gather per block.
    flat_t = _symbol_ids(ucodes, np.ascontiguousarray(cand_codes.T))
    flat_t += query_ids * peq.shape[2]
    peq = peq.reshape(n_blocks, -1)
    n_cols = flat_t.shape[0]
    vp = np.full((n_blocks, active.size), _ONES, dtype=np.uint64)
    vn = np.zeros((n_blocks, active.size), dtype=np.uint64)
    score = np.full(active.size, m, dtype=np.int64)
    lengths = cand_lengths
    since_check = 0
    for j in range(n_cols):
        flat = flat_t[j]
        hin_p = np.full(flat.shape, _ONE, dtype=np.uint64)
        hin_n = np.zeros(flat.shape, dtype=np.uint64)
        for b in range(n_blocks):
            eq = peq[b].take(flat)
            pv = vp[b]
            mv = vn[b]
            xv = eq | mv
            eq = eq | hin_n
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            if b == n_blocks - 1:
                score += ((ph >> score_bit) & _ONE).astype(np.int64)
                score -= ((mh >> score_bit) & _ONE).astype(np.int64)
            else:
                hout_p = (ph >> _TOP) & _ONE
                hout_n = (mh >> _TOP) & _ONE
            ph = (ph << _ONE) | hin_p
            mh = (mh << _ONE) | hin_n
            vp[b] = mh | ~(xv | ph)
            vn[b] = ph & xv
            if b != n_blocks - 1:
                hin_p = hout_p
                hin_n = hout_n
        finished = lengths == j + 1
        if finished.any():
            out[active[finished]] = np.minimum(score[finished], big)
        since_check += 1
        if since_check < _CHECK_EVERY or j + 1 == n_cols:
            continue
        since_check = 0
        # D[m][len] >= score - (len - (j + 1)): every remaining column
        # can lower the score by at most 1.  The slack is monotone, so
        # a settled candidate stays settled.
        alive = lengths > j + 1
        settled = score - (lengths - (j + 1)) > cap
        pending = int(np.count_nonzero(alive & ~settled))
        done = active.size - pending
        if pending == 0:
            return out
        if done >= _COMPACT_MIN and done * 4 >= active.size:
            keep = alive & ~settled
            active = active[keep]
            lengths = lengths[keep]
            score = score[keep]
            vp = np.ascontiguousarray(vp[:, keep])
            vn = np.ascontiguousarray(vn[:, keep])
            flat_t = flat_t[:, keep]
    return out


def edit_distance_pairs(
    query_rows: np.ndarray,
    query_ids: np.ndarray,
    cand_codes: np.ndarray,
    cand_lengths: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Bit-parallel analogue of :func:`repro.index.kernel.edit_distance_pairs`.

    ``Peq`` tables are built straight from the ``(p, m)`` query table —
    once per distinct probe, never per pair — and each pair indexes
    them through ``query_ids``.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    n = cand_codes.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    big = cap + 1
    m = query_rows.shape[1]
    if m == 0:
        return np.minimum(cand_lengths, big)
    out = np.full(n, big, dtype=np.int64)
    # |len - m| is a lower bound on the distance: candidates outside
    # the window are settled before the sweep starts.
    window = np.abs(cand_lengths - m) <= cap
    active = np.nonzero(window)[0]
    if not active.size:
        return out
    alens = cand_lengths[active]
    empty = alens == 0
    if empty.any():
        out[active[empty]] = min(m, big)
        active = active[~empty]
        alens = alens[~empty]
    if not active.size:
        return out
    # Only the span of rows the active pairs name gets tables: a chunk
    # of a large bucket touches a few adjacent probes, not all ``p``.
    ids = query_ids[active]
    first = int(ids.min())
    ucodes, peq = _build_peq(query_rows[first : int(ids.max()) + 1])
    longest = int(alens.max())
    acodes = cand_codes[active][:, :longest]
    return _sweep(peq, ids - first, ucodes, m, acodes, alens, cap, out, active)


__all__ = ["edit_distance_pairs"]
