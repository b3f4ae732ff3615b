"""Ukkonen's banded DP: sweep only the ``2*cap + 1`` diagonal band.

The capped contract makes most of the DP matrix irrelevant: a cell
``D[i][j]`` with ``|i - j| > cap`` can never feed a result ``<= cap``
(each step changes ``i - j`` by at most one, and ``D[i][j] >= |i -
j|``).  This backend stores only the band, re-indexed so row ``i``
holds ``B[i][d] = D[i][i + d - cap]`` for ``d`` in ``[0, 2*cap]`` —
``(n_candidates, 2*cap + 1)`` per DP row instead of ``(n_candidates,
longest + 1)``.  In band coordinates the recurrence reads

* substitution from ``B[i-1][d]`` (same ``d``: ``j`` shifts with ``i``),
* deletion from ``B[i-1][d+1]``,
* insertion from ``B[i][d-1]`` — resolved with the same prefix-min
  trick as the reference kernel, but along an axis of ``2*cap + 1``
  cells instead of the whole candidate length.

Each row's character window ``candidate[i - cap - 1 .. i + cap - 1]``
is a contiguous view into a pad-framed code matrix, so no per-row
gather is needed.  Out-of-range cells carry a poison value larger than
any in-band distance can reach; they decay by at most one per step and
start ``> cap + longest`` above the band, so they can never leak into a
valid final read.

One call scores pairs whose queries have any mix of lengths: the sweep
runs to the longest query an active pair names, and each pair's window
and final cell use its own ``m_i`` — ``D[m_i][len]`` sits at band index
``len - m_i + cap`` of row ``m_i`` and is read the moment that row is done.

The sweep is exact at any cap, including one that makes the band wider
than the strings (it then touches more cells than a full-matrix DP
would, never wrong ones), so the one function this module exports,
:func:`edit_distance_pairs`, never falls back on the reference kernel.
"""

from __future__ import annotations

import numpy as np

from repro.index.kernel import _PAD

# Fewest settled candidates worth compacting the batch for.
_COMPACT_MIN = 256


def _band_sweep(
    query_rows: np.ndarray,
    pair_lengths: np.ndarray,
    query_ids: np.ndarray,
    cand_codes: np.ndarray,
    cand_lengths: np.ndarray,
    cap: int,
    out: np.ndarray,
    active: np.ndarray,
) -> np.ndarray:
    """Run the banded sweep over the active candidates.

    ``query_ids`` selects each active candidate's row of ``query_rows``
    and ``pair_lengths`` is that row's true length.  ``out`` is
    pre-filled with ``big``; each surviving candidate's band cell on the
    row its own query ends on overwrites it.
    """
    big = cap + 1
    # Rows to sweep: the longest query an active pair names.
    m = int(pair_lengths.max())
    band = 2 * cap + 1
    lengths = cand_lengths
    longest = int(lengths.max())
    # Poison for cells outside the matrix: decays by at most 1 per row
    # across m rows, so it stays above ``cap`` (and above any real
    # in-band value) for the whole sweep.
    poison = big + m + longest
    # Pad-framed codes: row i's window is columns [i-1, i-1+band) —
    # j = i + d - cap maps the band cell to candidate char j - 1 at
    # frame column (j - 1) + cap = i + d - 1.
    frame = np.full(
        (active.size, max(longest, m) + 2 * cap), _PAD, dtype=np.uint32
    )
    frame[:, cap : cap + longest] = cand_codes[:, :longest]
    col_d = np.arange(band, dtype=np.int64)
    # Row 0: D[0][j] = j at d = j + cap, out-of-matrix cells poisoned.
    previous = np.where(col_d >= cap, col_d - cap, poison)
    previous = np.repeat(previous[None, :], active.size, axis=0)
    current = np.empty_like(previous)
    for i in range(1, m + 1):
        qc = query_rows[:, i - 1][query_ids][:, None]
        window = frame[:, i - 1 : i - 1 + band]
        np.add(previous, window != qc, out=current)
        deletion = previous[:, 1:] + 1
        np.minimum(current[:, :-1], deletion, out=current[:, :-1])
        # Insertion closure via prefix-min of (value - band index).
        current -= col_d
        np.minimum.accumulate(current, axis=1, out=current)
        current += col_d
        # Cells below the matrix (j = i + d - cap < 0) must stay
        # poisoned; without this a poisoned cell could be rewritten
        # from a real neighbour and alias D[i][j<0] as a cheap path.
        low = cap - i
        if low > 0:
            current[:, :low] = poison
        previous, current = current, previous
        # A pair's answer is the cell D[m_i][len] on the row its own
        # query ends on; later rows (pad against pad) are never read.
        ended = np.nonzero(pair_lengths == i)[0]
        if ended.size:
            final = previous[ended, lengths[ended] - i + cap]
            out[active[ended]] = np.minimum(final, big)
        if i == m:
            break
        if i & 1:
            continue
        keep = (previous.min(axis=1) <= cap) & (pair_lengths > i)
        dropped = active.size - int(np.count_nonzero(keep))
        if dropped == active.size:
            break
        if dropped >= _COMPACT_MIN and dropped * 4 >= active.size:
            active = active[keep]
            lengths = lengths[keep]
            pair_lengths = pair_lengths[keep]
            previous = previous[keep]
            frame = frame[keep]
            query_ids = query_ids[keep]
            current = np.empty_like(previous)
    return out


def edit_distance_pairs(
    query_rows: np.ndarray,
    query_lengths: np.ndarray,
    query_ids: np.ndarray,
    cand_codes: np.ndarray,
    cand_lengths: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Banded analogue of :func:`repro.index.kernel.edit_distance_pairs`.

    Per-pair length-window filter and trivial cases, then the band sweep.
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
    # |len - m_i| > cap settles a candidate before the sweep; it also
    # guarantees the final band read ``len - m_i + cap`` is in range.
    window = np.abs(cand_lengths - pair_lengths) <= cap
    active = np.nonzero(window & ~trivial)[0]
    if not active.size:
        return out
    return _band_sweep(
        query_rows,
        pair_lengths[active],
        query_ids[active],
        cand_codes[active],
        cand_lengths[active],
        cap,
        out,
        active,
    )


__all__ = ["edit_distance_pairs"]
