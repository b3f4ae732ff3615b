"""Q-gram inverted index with length and count filtering.

Blocking for the edit-distance join (Eq. 5): given a probe string and a
distance cap ``k``, return a **provably complete** candidate set — every
target within edit distance ``k`` is in the set — without scanning the
whole column.  Two classic filters (Gravano et al., *Approximate String
Joins in a Database (Almost) for Free*, VLDB 2001) make the set small:

* **Length filter** — an edit operation changes the length by at most 1,
  so ``|len(t) - len(p)| <= k`` for any match ``t``.
* **Count filter** — one edit operation destroys at most ``q``
  overlapping q-grams, so ``p`` and ``t`` must share at least
  ``(len(p) - q + 1) - k*q`` q-grams.  When that bound is not positive
  the filter is vacuous and every length-compatible target is returned,
  preserving completeness.

The shared-gram count used here sums target-side multiplicities over the
*distinct* grams of the probe, which can only over-count the true
multiset intersection — the filter only ever admits extra candidates,
never drops a true match.

Duplicated column values are indexed once: candidates are unique-value
ids, and ``QGramIndex.first_rows`` holds each value's earliest row for
row-level semantics such as tie-breaking.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.index.kernel import encode_strings


def adaptive_q(targets: Sequence[str]) -> int:
    """Pick a gram size from the column's length statistics.

    Longer grams are more selective on long strings (each gram carries
    more context, so posting lists shrink) but make the count bound
    ``(len(p) - q + 1) - k*q`` go vacuous sooner on short ones.  The
    median value length balances the two: table-cell columns keep
    ``q = 2`` — measured faster than ``q = 3`` even at 12-18 char
    cells, because the count bound surviving deeper caps beats the
    smaller posting lists — while columns of sentence-like values step
    up.  Any choice is correctness-neutral — the filters stay provably
    complete for every ``q`` — so this only tunes candidate-set size.
    """
    if not targets:
        return 2
    lengths = sorted(len(value) for value in targets)
    median = lengths[len(lengths) // 2]
    if median >= 40:
        return 4
    if median >= 20:
        return 3
    return 2


class QGramIndex:
    """Inverted q-gram index over a target column.

    Args:
        targets: The target-column values (duplicates allowed).
        q: Gram size; 2 suits the short cell values of the benchmarks
            (longer grams filter better on long strings but make the
            count bound vacuous sooner).
    """

    def __init__(self, targets: Sequence[str], q: int = 2) -> None:
        if q <= 0:
            raise ValueError(f"q must be positive, got {q}")
        self.q = q
        first_row: dict[str, int] = {}
        for row, value in enumerate(targets):
            first_row.setdefault(value, row)
        self.values: list[str] = list(first_row)
        self._value_ids = {value: vid for vid, value in enumerate(self.values)}
        self.first_rows = np.fromiter(
            first_row.values(), dtype=np.int64, count=len(first_row)
        )
        self.lengths = np.fromiter(
            (len(v) for v in self.values), dtype=np.int64, count=len(self.values)
        )
        self.max_length = int(self.lengths.max()) if self.lengths.size else 0
        # Pre-encode the whole column only while the dense matrix stays
        # modest: one pathologically long cell would otherwise inflate
        # every row to its width (n * max_len uint32 cells).  Past the
        # budget, candidate batches are encoded on demand instead —
        # padded only to the batch's own maximum.
        if len(self.values) * self.max_length <= self._DENSE_BUDGET:
            self._codes, _ = encode_strings(self.values)
        else:
            self._codes = None
        postings: dict[str, list[int]] = {}
        for vid, value in enumerate(self.values):
            for i in range(len(value) - q + 1):
                postings.setdefault(value[i : i + q], []).append(vid)
        self._postings = {
            gram: np.asarray(vids, dtype=np.int64)
            for gram, vids in postings.items()
        }

    # Cells (uint32) allowed for the precomputed code matrix: 1 << 26
    # cells = 256 MB.  Way above any benchmark column, low enough that a
    # single corrupt mega-cell cannot balloon index construction.
    _DENSE_BUDGET = 1 << 26

    def __len__(self) -> int:
        """Number of distinct values in the index."""
        return len(self.values)

    @property
    def nbytes(self) -> int:
        """Approximate bytes retained by the index's numpy state.

        Covers the dense code matrix (the dominant term when present),
        the posting lists, and the per-value arrays; the value strings
        themselves are shared with the caller's column and not counted.
        Used by :class:`~repro.index.cache.IndexCache` for its byte
        budget.
        """
        total = self.first_rows.nbytes + self.lengths.nbytes
        if self._codes is not None:
            total += self._codes.nbytes
        for array in self._postings.values():
            total += array.nbytes
        return total

    def batch_codes(self, value_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(codes, lengths)`` for a candidate batch, kernel-ready.

        One gather out of the precomputed matrix when it exists — only
        the columns the batch's longest value reaches, never the
        column-wide pad — otherwise the batch is encoded on demand.
        """
        if self._codes is not None:
            lengths = self.lengths[value_ids]
            longest = int(lengths.max()) if lengths.size else 0
            return self._codes[value_ids, :longest], lengths
        return encode_strings([self.values[int(v)] for v in value_ids])

    def value_id(self, value: str) -> int | None:
        """Exact-match lookup: the value id, or ``None`` if absent."""
        return self._value_ids.get(value)

    def _gram_postings(self, query: str) -> list[np.ndarray]:
        """Posting arrays for the distinct q-grams of ``query``."""
        grams = {
            query[i : i + self.q] for i in range(len(query) - self.q + 1)
        }
        return [
            self._postings[gram] for gram in grams if gram in self._postings
        ]

    def overlap_best(self, queries: Sequence[str], k: int = 8) -> list[np.ndarray]:
        """Plausible near-neighbour value ids for each query.

        Returns, per query, up to ``k`` ids of the indexed values
        sharing the most q-grams with it (target-side multiplicities
        included), falling back to the value closest to the query's own
        length when no gram is shared.  The returned targets are *not*
        guaranteed to contain the argmin — the minimum of their exact
        distances is an **upper bound** on the query's best distance,
        which the batch engine uses to jump cap deepening straight to a
        provably sufficient candidate set.

        Args:
            queries: Probe strings, of any mix of lengths.
            k: Neighbour candidates per query.
        """
        out: list[np.ndarray] = []
        for query in queries:
            arrays = self._gram_postings(query)
            if not arrays:
                nearest = int(np.argmin(np.abs(self.lengths - len(query))))
                out.append(np.asarray([nearest], dtype=np.int64))
                continue
            counts = np.bincount(np.concatenate(arrays))
            if counts.size > k:
                top = np.argpartition(counts, -k)[-k:]
                out.append(top[counts[top] > 0])
            else:
                out.append(np.nonzero(counts)[0])
        return out

    def candidates_many(self, queries: Sequence[str], cap: int) -> list[np.ndarray]:
        """Per-query candidate ids for queries of any mix of lengths.

        Completeness guarantee: any indexed value ``t`` with
        ``edit_distance(query, t) <= cap`` is in that query's array,
        which is ascending (so candidate order is deterministic).  Both
        filters are evaluated at each query's own length; when its
        count bound is vacuous every length-compatible value is
        admitted.  This is the engine's one candidate generator.

        Args:
            queries: Probe strings.
            cap: Distances above this need not be admitted.
        """
        if cap < 0:
            raise ValueError(f"cap must be >= 0, got {cap}")
        out: list[np.ndarray] = []
        for query in queries:
            admitted = np.abs(self.lengths - len(query)) <= cap
            bound = (len(query) - self.q + 1) - cap * self.q
            if bound > 0:
                arrays = self._gram_postings(query)
                if not arrays:
                    out.append(np.empty(0, dtype=np.int64))
                    continue
                counts = np.bincount(
                    np.concatenate(arrays), minlength=len(self.values)
                )
                admitted &= counts >= bound
            out.append(np.nonzero(admitted)[0])
        return out
