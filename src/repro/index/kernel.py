"""The reference kernel: capped edit distance for a batch of pairs.

The blocked joiner scores whole candidate sets at once instead of
calling the scalar DP per target.  The kernel contract is **one
function**, :func:`edit_distance_pairs`: a ``(p, m_max)`` table of
distinct queries padded to the longest (:func:`encode_strings`), each
row's true length, one table row id per pair, and a padded candidate
code matrix.  Queries of every length ride one call, each pair scored
at its own ``m_i``; one query against many candidates is its ``p = 1``
case.  Neither has an entry point of its own.

This is the oracle every backend in :mod:`repro.index.kernels` must
match byte-for-byte, so it is the plainest code that states the answer:
one exact DP row per column of the query table, vectorized over all
pairs, each pair's answer read at the row its query ends on, with no
early exit, length window, grouping or compaction.  It is nobody's fast
path — the other backends own their speed — so nothing here is tuned.

Distances are capped on output: any value above ``cap`` is reported as
``cap + 1``, matching the contract of
:func:`repro.text.edit_distance.edit_distance_capped`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

# Pad value for the code matrix.  Unicode code points stop at 0x10FFFF,
# so padding can never spuriously match a query character.
_PAD = np.uint32(0xFFFFFFFF)


def encode_strings(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Encode strings into a padded uint32 code-point matrix.

    Returns:
        ``(codes, lengths)`` where ``codes`` has shape
        ``(len(strings), max_len)`` padded with a non-code-point value
        and ``lengths[i]`` is ``len(strings[i])``.
    """
    lengths = np.fromiter(
        (len(s) for s in strings), dtype=np.int64, count=len(strings)
    )
    max_len = int(lengths.max()) if lengths.size else 0
    codes = np.full((len(strings), max_len), _PAD, dtype=np.uint32)
    if max_len == 0:
        return codes, lengths
    # One join + one frombuffer instead of a Python-level loop per
    # string: utf-32-le yields exactly one uint32 per code point
    # (``surrogatepass`` keeps lone surrogates as their own code points,
    # as the scalar DP compares them), and a ragged boolean mask
    # scatters the flat buffer into the padded rows.
    flat = np.frombuffer(
        "".join(strings).encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    )
    mask = np.arange(max_len) < lengths[:, None]
    codes[mask] = flat
    return codes, lengths


def edit_distance_pairs(
    query_rows: np.ndarray,
    query_lengths: np.ndarray,
    query_ids: np.ndarray,
    cand_codes: np.ndarray,
    cand_lengths: np.ndarray,
    cap: int,
) -> np.ndarray:
    """Capped distances for ``n`` independent (query, candidate) pairs.

    Pair ``i`` scores query ``query_ids[i]`` against ``candidate_i``,
    and the DP is vectorized across *all pairs of all probes at once* —
    one numpy sweep per query character instead of one kernel launch
    per probe.  The queries may have any mix of lengths: the sweep runs
    one row per column of the table and each pair's answer is read off
    the row its own query ends on, so one call scores a whole ladder
    rung however its probes' lengths spread.  Which probe a pair belongs
    to is an argument because the caller already knows it: a backend
    handed one repeated query row per pair has to sort the rows to get
    it back.

    Args:
        query_rows: ``(p, m_max)`` code matrix, one row per distinct
            query, padded past each query's end (:func:`encode_strings`).
        query_lengths: ``(p,)`` true length ``m_i`` of each query row.
        query_ids: ``(n,)`` row of ``query_rows`` each pair scores
            against (any order, repeats allowed, need not cover every
            row).
        cand_codes: ``(n, max_cand_len)`` padded candidate code matrix
            (rows may be a fancy-indexed subset of an index matrix).
        cand_lengths: True length of each candidate row.
        cap: Distances above this are clamped to ``cap + 1``.

    Returns:
        ``int64`` array of shape ``(n,)``; entry ``i`` is
        ``edit_distance(query_rows[query_ids[i]], candidate_i)`` when
        that is ``<= cap`` and ``cap + 1`` otherwise.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    n = cand_codes.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    # The rows are often a fancy-indexed subset of a wider index matrix;
    # trim the pad columns past the longest *present* candidate.
    longest = int(cand_lengths.max())
    cand_codes = cand_codes[:, :longest]
    # The sweep runs the *exact* (unclamped) DP in int32 — distances
    # are bounded by the longest string — in **reduced space**
    # ``E[i][j] = D[i][j] - j``, where the row-serial insertion
    # recurrence collapses to a plain prefix-min (``D[i][j] =
    # min(D'[i][j], D[i][j-1] + 1)`` becomes ``E[i][j] = min(E'[i][j],
    # E[i][j-1])``) and the initial row is all zeros.  State is stored
    # **transposed** — ``(width, n)`` with pairs along the contiguous
    # axis — so the prefix-min's data-dependent loop runs across rows
    # while its inner loop stays a vectorized sweep over all pairs.
    # Distances clamp to ``cap + 1`` only on output.
    cand_codes = np.ascontiguousarray(cand_codes.T)
    previous = np.zeros((longest + 1, n), dtype=np.int32)
    current = np.empty_like(previous)
    unequal = np.empty(cand_codes.shape, dtype=np.int32)
    scratch = np.empty(cand_codes.shape, dtype=np.int32)
    pair_lengths = query_lengths[query_ids]
    pairs = np.arange(n)
    # Row 0 answers the empty queries: D[0][len] = len.
    final = cand_lengths.astype(np.int64)
    for i in range(1, query_rows.shape[1] + 1):
        current[0, :] = i
        # Each pair substitutes against its own query character:
        # E-substitution = E_prev[j-1] + (mismatch) - 1.
        query_chars = query_rows[:, i - 1][query_ids]
        np.not_equal(cand_codes, query_chars, out=unequal, casting="unsafe")
        np.add(previous[:-1, :], unequal, out=unequal)
        unequal -= 1
        # E-deletion = E_prev[j] + 1.
        np.add(previous[1:, :], 1, out=scratch)
        np.minimum(unequal, scratch, out=current[1:, :])
        # Insertion closure: prefix-min along the (row) width axis.
        np.minimum.accumulate(current, axis=0, out=current)
        previous, current = current, previous
        # A pair's answer is the cell at the end of its own query; the
        # rows past it compare pad against candidate and are never read.
        row_answer = previous[cand_lengths, pairs] + cand_lengths
        final = np.where(pair_lengths == i, row_answer, final)
    return np.minimum(final, cap + 1)
