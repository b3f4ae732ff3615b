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

On top of the in-memory LRU sits an optional **on-disk tier**: with a
``cache_dir`` (or the ``REPRO_INDEX_CACHE_DIR`` environment variable for
the process-wide default cache), built indexes are persisted as
``qgram-<sha256>.npz`` snapshots keyed by :func:`column_fingerprint` —
a content hash of the column plus gram size — and reloaded by any later
process that misses in memory.  Writes are atomic (temp file +
``os.replace``), files carry a format-version stamp, and loads fall
back to a rebuild on any corruption, so the disk tier can be shared by
concurrent workers without coordination.

The tier is **garbage collected**: with ``max_disk_bytes`` (or the
``REPRO_INDEX_CACHE_MAX_BYTES`` environment variable for the default
cache) and/or ``max_disk_age_seconds`` set, every snapshot write prunes
the directory — age-expired files first, then least-recently-used files
(by mtime; loads refresh it) until the tier fits the byte budget — so a
long-lived serving deployment cycling through many target columns
cannot fill the disk.  Ages are clamped against clock skew (negative
ages read as zero), so a stepped clock or a peer host's future-dated
mtimes in a shared directory can neither mass-evict fresh snapshots nor
pin stale ones at the head of the LRU order.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import threading
import time
import zipfile
from collections import OrderedDict
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from repro.index.qgram import QGramIndex, adaptive_q

#: Cache key: ``(gram_size, column_values)``; gram size 0 marks entries
#: whose q was chosen adaptively (so hits skip re-deriving it).
CacheKey = tuple[int, tuple[str, ...]]

_ADAPTIVE = 0

#: Environment variable naming the on-disk tier's directory for the
#: process-wide default cache (read lazily, on the first
#: :func:`default_index_cache` call).
CACHE_DIR_ENV = "REPRO_INDEX_CACHE_DIR"

#: Environment variable bounding the on-disk tier's total bytes for the
#: process-wide default cache (read alongside :data:`CACHE_DIR_ENV`).
CACHE_MAX_BYTES_ENV = "REPRO_INDEX_CACHE_MAX_BYTES"

#: Bump when the :meth:`QGramIndex.to_state` layout changes; files
#: stamped with any other version are ignored and rebuilt in place.
#: Version 2 carries ``first_rows`` where version 1 carried every row
#: of every value (``rows_flat`` / ``rows_offsets``).
DISK_FORMAT_VERSION = 2


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

    An optional **on-disk tier** (``cache_dir``) persists indexes as
    content-fingerprint-keyed ``.npz`` files so they survive across
    processes — parallel join workers, repeated CLI invocations,
    successive ``eval/runner.py`` runs.  A memory miss first tries the
    disk file for the column's fingerprint; a disk miss builds the index
    and writes it back (atomic ``os.replace`` of a same-directory temp
    file, so concurrent readers never observe a torn write).  Disk loads
    are corruption-tolerant: a truncated, garbled, or version-mismatched
    file is ignored (and overwritten by the rebuild), never trusted.

    Args:
        capacity: Maximum number of cached indexes.
        max_bytes: Maximum total :attr:`QGramIndex.nbytes` across
            entries; least recently used entries are evicted beyond
            either bound (the most recent entry is always kept).
        cache_dir: Directory for the on-disk tier; ``None`` (the
            default) keeps the cache memory-only.  The process-wide
            default cache reads the ``REPRO_INDEX_CACHE_DIR``
            environment variable instead.
        max_disk_bytes: Total-size bound for the on-disk tier; when the
            ``qgram-*.npz`` snapshots exceed it, the least recently
            used files (by mtime — loads refresh it) are deleted until
            the tier fits.  ``None`` leaves the tier unbounded.  The
            process-wide default cache reads the
            ``REPRO_INDEX_CACHE_MAX_BYTES`` environment variable.
        max_disk_age_seconds: Age bound for the on-disk tier; snapshots
            whose mtime is older are deleted during garbage collection.
            ``None`` (the default) disables the age bound.
        clock: Wall-clock source for disk GC age computation
            (injectable for tests).  Ages are **skew-guarded**: a
            negative age — the clock stepped backwards, or another
            host wrote a future-dated mtime into a shared directory —
            clamps to zero, so fresh snapshots are never mass-evicted
            by a clock step and future-dated files neither pin
            themselves past the age bound's intent nor jump the LRU
            queue (they sort as written-just-now, then age normally).
    """

    def __init__(
        self,
        capacity: int = 8,
        max_bytes: int = 1 << 29,
        cache_dir: str | os.PathLike[str] | None = None,
        max_disk_bytes: int | None = None,
        max_disk_age_seconds: float | None = None,
        clock=time.time,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        if max_disk_bytes is not None and max_disk_bytes <= 0:
            raise ValueError(
                f"max_disk_bytes must be positive, got {max_disk_bytes}"
            )
        if max_disk_age_seconds is not None and max_disk_age_seconds <= 0:
            raise ValueError(
                "max_disk_age_seconds must be positive, got "
                f"{max_disk_age_seconds}"
            )
        self.capacity = capacity
        self.max_bytes = max_bytes
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.max_disk_bytes = max_disk_bytes
        self.max_disk_age_seconds = max_disk_age_seconds
        self._clock = clock
        self._entries: OrderedDict[CacheKey, QGramIndex] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_evictions = 0

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
        resolved_q = adaptive_q(targets) if q is None else q
        index = None
        path = None
        if self.cache_dir is not None:
            path = self.disk_path(key[1], resolved_q)
            index = self._load_disk(path)
            with self._lock:
                if index is not None:
                    self.disk_hits += 1
                else:
                    self.disk_misses += 1
            if index is not None:
                # Refresh the snapshot's mtime: disk GC evicts in LRU
                # order, and a load is a use.
                try:
                    os.utime(path)
                except OSError:
                    pass
        if index is None:
            index = QGramIndex(key[1], q=resolved_q)
            if path is not None:
                self._save_disk(path, index)
                self._collect_disk_garbage(keep=path)
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

    def disk_path(self, targets: Sequence[str], q: int) -> Path:
        """On-disk file for a column at a resolved gram size.

        The fingerprint covers the gram size, so adaptive and explicit
        lookups that resolve to the same ``q`` share one file.
        """
        if self.cache_dir is None:
            raise ValueError("cache has no on-disk tier (cache_dir is None)")
        return self.cache_dir / f"qgram-{column_fingerprint(targets, q)}.npz"

    def _load_disk(self, path: Path) -> QGramIndex | None:
        """Load an index snapshot, or ``None`` when absent or unusable.

        Treats *every* failure mode — missing file, truncated zip,
        mangled member arrays, a stamp from another format version,
        state that fails :meth:`QGramIndex.from_state` validation — as
        a plain miss: the caller rebuilds from the column and the
        rewrite replaces the bad file.  A cache must never be able to
        make a join fail.
        """
        try:
            with np.load(path, allow_pickle=False) as data:
                if int(data["version"]) != DISK_FORMAT_VERSION:
                    return None
                state = {name: data[name] for name in data.files}
            return QGramIndex.from_state(state)
        except FileNotFoundError:
            return None
        except (OSError, KeyError, ValueError, IndexError, zipfile.BadZipFile):
            return None

    def _save_disk(self, path: Path, index: QGramIndex) -> None:
        """Atomically persist an index snapshot; failures are non-fatal.

        Writes to a temp file in the target directory and ``os.replace``s
        it into place, so a concurrent reader sees either the old file or
        the complete new one — never a partial write.
        """
        state = index.to_state()
        state["version"] = np.int64(DISK_FORMAT_VERSION)
        tmp_path = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=path.parent, prefix=".qgram-", suffix=".tmp"
            )
            with os.fdopen(fd, "wb") as handle:
                np.savez(handle, **state)
            os.replace(tmp_path, path)
            tmp_path = None
        except OSError:
            if tmp_path is not None:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass

    def _collect_disk_garbage(self, keep: Path) -> None:
        """Age- and size-bound the on-disk tier, LRU by clamped age.

        Runs after every snapshot write (the only operation that grows
        the tier).  Files older than ``max_disk_age_seconds`` are
        deleted outright; if the survivors still exceed
        ``max_disk_bytes``, the least recently used are deleted until
        the tier fits.  ``keep`` — the snapshot just written — is never
        deleted, so the cache always holds at least the current column
        even under a budget smaller than one file.

        Ages are **clock-skew guarded**: ``age = max(0, now - mtime)``.
        Raw mtime arithmetic breaks on shared directories and stepped
        clocks — a future-dated mtime (a peer host's fast clock, or a
        local backwards step landing every pre-step file "in the
        future") makes ``now - mtime`` negative, which a naive age
        check never expires and a naive mtime sort ranks permanently
        most-recent, pinning the file at the head of the LRU order
        while genuinely fresh snapshots are evicted around it.  A
        future-dated file is instead treated as written *now*: its age
        clamps to zero for this pass **and its mtime is rewritten to
        ``now``** (best-effort), so from this GC onward it ages
        normally — it can expire and it competes in LRU order like
        everything else, instead of being pinned until the local clock
        catches up to its timestamp.

        Every filesystem failure is swallowed: concurrent processes GC
        the same directory without coordination, so files may vanish
        mid-scan, and a cache must never be able to make a join fail.
        """
        if self.max_disk_bytes is None and self.max_disk_age_seconds is None:
            return
        assert self.cache_dir is not None
        try:
            candidates = list(self.cache_dir.glob("qgram-*.npz"))
        except OSError:
            return
        now = self._clock()
        entries: list[tuple[float, int, Path]] = []
        for path in candidates:
            try:
                stat = path.stat()
            except OSError:
                continue
            if stat.st_mtime > now:
                # De-pin: restamp the future-dated file as written now
                # so it ages (and can expire) from this point on.
                try:
                    os.utime(path, (now, now))
                except OSError:
                    pass
            age = max(0.0, now - stat.st_mtime)
            entries.append((age, stat.st_size, path))
        # Largest clamped age first == least recently used.  Ties (all
        # future-dated files clamp to age zero) break by path name, so
        # concurrent GCs walk one deterministic order.
        entries.sort(key=lambda entry: (-entry[0], entry[2].name))
        survivors: list[tuple[float, int, Path]] = []
        for age, size, path in entries:
            if path == keep:
                survivors.append((age, size, path))
                continue
            if (
                self.max_disk_age_seconds is not None
                and age > self.max_disk_age_seconds
            ):
                self._evict_disk(path)
            else:
                survivors.append((age, size, path))
        if self.max_disk_bytes is None:
            return
        total = sum(size for _, size, _ in survivors)
        for _, size, path in survivors:
            if total <= self.max_disk_bytes:
                break
            if path == keep:
                continue
            self._evict_disk(path)
            total -= size

    def _evict_disk(self, path: Path) -> None:
        """Delete one snapshot; missing or busy files are not an error."""
        try:
            os.unlink(path)
        except OSError:
            return
        with self._lock:
            self.disk_evictions += 1

    def clear(self) -> None:
        """Drop every cached index (counters are kept).

        Only the in-memory tier is dropped; on-disk files persist (they
        are the cross-process tier — remove ``cache_dir`` contents to
        invalidate them).
        """
        with self._lock:
            self._entries.clear()
            self._bytes = 0


_DEFAULT_CACHE: IndexCache | None = None
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_index_cache() -> IndexCache:
    """The process-wide cache shared by joiners that were given none.

    Created lazily so the ``REPRO_INDEX_CACHE_DIR`` environment variable
    is read at first use, not at import: when set, the default cache
    gains an on-disk tier rooted there and q-gram indexes survive across
    processes and runner invocations.
    """
    global _DEFAULT_CACHE
    with _DEFAULT_CACHE_LOCK:
        if _DEFAULT_CACHE is None:
            max_disk = os.environ.get(CACHE_MAX_BYTES_ENV)
            try:
                max_disk_bytes = int(max_disk) if max_disk else None
            except ValueError as error:
                raise ValueError(
                    f"{CACHE_MAX_BYTES_ENV}={max_disk!r} is not a valid "
                    "byte count: expected a plain integer (e.g. 536870912)"
                ) from error
            _DEFAULT_CACHE = IndexCache(
                cache_dir=os.environ.get(CACHE_DIR_ENV) or None,
                max_disk_bytes=max_disk_bytes,
            )
        return _DEFAULT_CACHE
