"""The memoized result caches behind the serving layer.

Two cache tiers share one engine (:class:`TTLLRUCache`, a thread-safe
TTL + LRU + byte-bounded map from content-fingerprint keys to finished
payloads):

* :class:`ResultCache` — **transform** results.  Keys are built by the
  service from the **pipeline fingerprint** (models + weights +
  decomposition configuration), the **example-pool fingerprint**, and the
  value being transformed (plus its row position, whose context
  sampling it pins), so a hit is guaranteed to be byte-identical to
  recomputing — the cache can change latency, never answers.
* :class:`JoinResultCache` — **join** results.  Transforms memoized
  alone still leave the Eq. 5 resolution (candidate generation,
  edit-distance scoring, selection) re-running per request; this tier
  memoizes the *whole* join — keys add the target column, the query
  mode, ``k``, and ``margin`` (see :func:`join_cache_key`), so a
  repeated join request is served without touching the engine **or**
  the joiner.

Entries in either tier are bounded three ways:

* **count** (``max_entries``) and **bytes** (``max_bytes``) — LRU
  eviction beyond either bound, with the newest entry always kept;
* **time** (``ttl_seconds``) — entries older than the TTL are treated
  as misses and dropped on access (and swept opportunistically), so a
  service whose model is retrained or whose upstream data drifts can
  bound staleness even though fingerprints already catch any *visible*
  configuration change.

Hit / miss / eviction / expiry counters feed the service's
:class:`~repro.serve.service.ServeStats`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.types import ExamplePair, JoinResult, Prediction, TopKJoinResult

#: A cache key: an opaque tuple of fingerprint strings and positions.
CacheKey = tuple[object, ...]


def examples_fingerprint(examples: Sequence[ExamplePair]) -> str:
    """Content fingerprint of an example pool.

    Length-prefixed UTF-8 over every (source, target) pair, order
    included — context sampling draws by position, so reordering the
    pool changes the sampled contexts and must change the key.
    """
    digest = hashlib.sha256()
    digest.update(b"repro.serve.examples")
    for pair in examples:
        for text in (pair.source, pair.target):
            blob = text.encode("utf-8", "surrogatepass")
            digest.update(len(blob).to_bytes(8, "little"))
            digest.update(blob)
    return digest.hexdigest()


def column_key(values: Sequence[str]) -> str:
    """Content fingerprint of a string column, for join-cache keys.

    Same length-prefixed framing as :func:`examples_fingerprint`, so a
    target column never hashes equal to a reordering or a re-chunking
    of itself.
    """
    digest = hashlib.sha256()
    digest.update(b"repro.serve.column")
    for value in values:
        blob = value.encode("utf-8", "surrogatepass")
        digest.update(len(blob).to_bytes(8, "little"))
        digest.update(blob)
    return digest.hexdigest()


def join_cache_key(
    pipeline_fingerprint: str,
    pool_fingerprint: str,
    sources: Sequence[str],
    targets: Sequence[str],
    mode: str,
    k: int,
    margin: float | None,
) -> CacheKey:
    """The join-result cache key: everything a join's output depends on.

    The target column enters as a content fingerprint (columns are
    often wide; the key should not retain them), the sources as the
    tuple itself (they are already part of the request and pin row
    positions), and the query surface (``mode``/``k``/``margin``)
    verbatim — two requests differing only in ``k`` must never share an
    entry.
    """
    return (
        "join",
        pipeline_fingerprint,
        pool_fingerprint,
        tuple(sources),
        column_key(targets),
        mode,
        k,
        margin,
    )


def _prediction_nbytes(prediction: Prediction) -> int:
    """Rough retained size of one prediction (UTF-8-ish accounting)."""
    return (
        len(prediction.source)
        + len(prediction.value)
        + sum(len(c) for c in prediction.candidates)
        + 64  # object overhead
    )


def _join_result_nbytes(result: object) -> int:
    """Rough retained size of one join-shaped result.

    Handles the three shapes the join cache stores: argmin
    :class:`~repro.types.JoinResult` rows, :class:`~repro.types.
    TopKJoinResult` rows with their ranked candidate lists, and the
    reverse mode's plain ``list[int]`` groups.
    """
    if isinstance(result, TopKJoinResult):
        return (
            len(result.source)
            + len(result.predicted)
            + (len(result.matched) if result.matched else 0)
            + sum(len(c.value) + 16 for c in result.candidates)
            + 96
        )
    if isinstance(result, JoinResult):
        return (
            len(result.source)
            + len(result.predicted)
            + (len(result.matched) if result.matched else 0)
            + 96
        )
    if isinstance(result, (list, tuple)):
        return 8 * len(result) + 64
    return 96


@dataclass
class _Entry:
    payload: tuple
    nbytes: int
    stored_at: float


class TTLLRUCache:
    """A thread-safe TTL + LRU + byte-bounded map of finished payloads.

    The shared engine behind :class:`ResultCache` and
    :class:`JoinResultCache`; subclasses only choose the byte
    estimator.  Payloads are stored as tuples (immutable by
    convention), so a hit can be handed to concurrent callers without
    copying.

    Args:
        max_entries: Maximum cached results.
        max_bytes: Maximum total retained bytes across entries
            (estimated from the strings held).
        ttl_seconds: Entry lifetime; ``None`` disables expiry.
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        max_entries: int = 4096,
        max_bytes: int = 64 << 20,
        ttl_seconds: float | None = None,
        clock=time.monotonic,
    ) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive, got {ttl_seconds}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    @staticmethod
    def _item_nbytes(item: object) -> int:
        """Rough retained size of one payload item; subclasses override."""
        return 96

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Approximate bytes retained across all entries."""
        return self._bytes

    def get(self, key: CacheKey) -> tuple | None:
        """Return the cached payload for ``key``, or ``None``.

        An entry past its TTL counts as a miss (and an expiry) and is
        dropped; a live hit moves the entry to most-recently-used.
        """
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            if (
                self.ttl_seconds is not None
                and now - entry.stored_at > self.ttl_seconds
            ):
                del self._entries[key]
                self._bytes -= entry.nbytes
                self.expirations += 1
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry.payload

    def put(self, key: CacheKey, payload: Iterable) -> None:
        """Store one payload, evicting LRU entries beyond the bounds."""
        stored = tuple(payload)
        nbytes = sum(self._item_nbytes(item) for item in stored)
        now = self._clock()
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = _Entry(stored, nbytes, now)
            self._bytes += nbytes
            while len(self._entries) > 1 and (
                len(self._entries) > self.max_entries
                or self._bytes > self.max_bytes
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1

    def sweep(self) -> int:
        """Drop every expired entry now; returns how many were dropped.

        The service calls this between batches so a long-idle cache
        does not hold expired entries' memory until they happen to be
        probed.
        """
        if self.ttl_seconds is None:
            return 0
        now = self._clock()
        dropped = 0
        with self._lock:
            for key in list(self._entries):
                entry = self._entries[key]
                if now - entry.stored_at > self.ttl_seconds:
                    del self._entries[key]
                    self._bytes -= entry.nbytes
                    self.expirations += 1
                    dropped += 1
        return dropped

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0


class ResultCache(TTLLRUCache):
    """TTL + LRU + byte-bounded map of finished *transform* results.

    Payloads are tuples of :class:`~repro.types.Prediction` (one per
    row for row-granular keys, the whole request otherwise); sizes are
    estimated from the strings each prediction retains.
    """

    @staticmethod
    def _item_nbytes(item: object) -> int:
        """Retained size of one cached prediction."""
        return _prediction_nbytes(item)  # type: ignore[arg-type]


class JoinResultCache(TTLLRUCache):
    """TTL + LRU + byte-bounded map of finished *join* results.

    Payloads are whole-request result tuples — argmin
    :class:`~repro.types.JoinResult` rows, ranked
    :class:`~repro.types.TopKJoinResult` rows, or the reverse mode's
    per-target index groups — keyed by :func:`join_cache_key`.  A hit
    skips the transform *and* the Eq. 5 resolution.
    """

    @staticmethod
    def _item_nbytes(item: object) -> int:
        """Retained size of one cached join-shaped result."""
        return _join_result_nbytes(item)
