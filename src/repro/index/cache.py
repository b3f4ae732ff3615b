"""Process-level q-gram index cache keyed by column content.

Index construction is linear in the target column with a noticeable
constant (dedup, postings, dense code matrix), so rebuilding the index
for a column that was already indexed — a fresh ``list(...)`` copy in
:mod:`repro.eval.runner`, a second :class:`~repro.core.pipeline.DTTPipeline`
over the same table, a re-run of a benchmark sweep — is pure waste.
:class:`IndexCache` shares one :class:`~repro.index.qgram.QGramIndex`
per *column content* across every joiner in the process.

Keys are the column contents themselves (as tuples), not object
identities: two equal columns hit the same entry no matter which
sequence object carries them, and *any* edit to a cached column —
including a same-length in-place cell overwrite, the staleness hole of
the old identity+length guard — misses and forces a rebuild.  Using the
values as the key (rather than a hash of them) keeps lookups exact: a
hash collision degrades to a dict-bucket equality walk, never to serving
the wrong index.

A lookup is O(column) — one tuple build plus its hash (CPython caches
each ``str`` hash, so repeats mostly combine cached hashes; when the
caller already holds a tuple, e.g. :attr:`repro.types.TablePair.targets`,
the key build is a zero-copy pass-through).  Scalar ``match`` loops pay
it per probe; the batch API
(:meth:`~repro.index.joiner.IndexedJoiner.join_many`) pays it once per
column, which is one of the reasons batching wins.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from collections.abc import Sequence

from repro.index.qgram import QGramIndex, adaptive_q

#: Cache key: ``(gram_size, column_values)``; gram size 0 marks entries
#: whose q was chosen adaptively (so hits skip re-deriving it).
CacheKey = tuple[int, tuple[str, ...]]

_ADAPTIVE = 0


def column_fingerprint(targets: Sequence[str], q: int) -> str:
    """Content fingerprint of a target column at a given gram size.

    SHA-256 over the gram size, the row count, and every value as a
    length-prefixed UTF-8 blob (``surrogatepass``, so lone surrogates
    hash too).  Length prefixes make the encoding injective — no two
    distinct columns produce the same byte stream — so same-length
    in-place cell edits, row reorders, and boundary shifts between
    adjacent values all change the fingerprint.
    """
    digest = hashlib.sha256()
    digest.update(b"repro.qgram.index")
    digest.update(struct.pack("<qq", q, len(targets)))
    for value in targets:
        blob = value.encode("utf-8", "surrogatepass")
        digest.update(struct.pack("<q", len(blob)))
        digest.update(blob)
    return digest.hexdigest()


class IndexCache:
    """LRU cache of :class:`QGramIndex` instances, content-keyed.

    Entries are bounded both by count and by total retained bytes
    (dense code matrices can reach hundreds of MB for huge columns), so
    a long-lived process cycling through many large target columns
    cannot accumulate unbounded index memory.  Thread-safe for lookups
    and insertions; concurrent misses on the same key may build the
    index twice, with one build winning the slot (both results are
    equivalent, so this is benign).

    Args:
        capacity: Maximum number of cached indexes.
        max_bytes: Maximum total :attr:`QGramIndex.nbytes` across
            entries; least recently used entries are evicted beyond
            either bound (the most recent entry is always kept).
    """

    def __init__(
        self,
        capacity: int = 8,
        max_bytes: int = 1 << 29,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._entries: OrderedDict[CacheKey, QGramIndex] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        """Number of cached indexes."""
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Approximate bytes retained by all cached indexes."""
        return self._bytes

    def get(self, targets: Sequence[str], q: int | None = None) -> QGramIndex:
        """Return the index for ``targets``, building it on a miss.

        Args:
            targets: The target column (non-empty).
            q: Gram size; ``None`` picks it adaptively from the column's
                length statistics (:func:`~repro.index.qgram.adaptive_q`),
                resolved only on a miss — adaptive q is a pure function
                of the column content, so adaptive entries cache under
                their own key and hits skip the derivation.  Distinct
                gram sizes for the same column cache separately (an
                adaptive entry is distinct from an explicit one even
                when both resolve to the same q).
        """
        key = (_ADAPTIVE if q is None else q, tuple(targets))
        with self._lock:
            index = self._entries.get(key)
            if index is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return index
            self.misses += 1
        index = QGramIndex(key[1], q=adaptive_q(targets) if q is None else q)
        with self._lock:
            if key not in self._entries:
                self._entries[key] = index
                self._bytes += index.nbytes
            self._entries.move_to_end(key)
            while len(self._entries) > 1 and (
                len(self._entries) > self.capacity
                or self._bytes > self.max_bytes
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1
        return index

    def clear(self) -> None:
        """Drop every cached index (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0


_DEFAULT_CACHE = IndexCache()


def default_index_cache() -> IndexCache:
    """The process-wide cache shared by joiners that were given none."""
    return _DEFAULT_CACHE
