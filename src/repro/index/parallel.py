"""Parallel sharded execution for the batched join.

:class:`JoinWorkerPool` owns a :class:`~concurrent.futures.ProcessPoolExecutor`
that **persists across** the joiner's batch calls (``join_many`` and
``topk_many`` alike) — the pool is created on the first parallel batch
and reused until :meth:`JoinWorkerPool.close` (the serving layer closes
it on shutdown; a garbage-collected joiner releases it through the
executor's own finalization).  There is **one shard protocol**: every
call fans its pending probes out through :meth:`JoinWorkerPool.run_probes`,
a shard is a list of probes, every shard runs :func:`_score_shard` —
the serial :meth:`~repro.index.joiner.IndexedJoiner._resolve_probes` at
the call's ``k`` — and every payload has the same shape (per-probe rank
counts plus flat value-id / distance arrays), merged deterministically.
The argmin is simply ``k = 1``.  The contract is the engine-wide one:
**byte-identical results to the serial scan**, which the sharding
preserves by construction —

* a probe's ranking depends only on ``(index, probe, k)``, never on
  which other probes share its call, so the probes can split anywhere;
* every worker scores against an equal-content index — resolved from
  its own content-keyed cache (seeded with the parent's cache under the
  ``fork`` start method, or rebuilt from the column shipped with the
  shard; both construct the identical structure); and
* the merge keys results by probe value, so completion order is
  irrelevant.

Because the pool outlives any single call, shards are addressed by
**column fingerprint**: a column's bytes ship with its shards only the
first time the pool sees it, after which shards go fingerprint-only
and resolve through each worker's fingerprint memo (a worker that
still misses — freshly spawned, or its memo evicted the entry — raises
for a one-shot resend with the column attached).  That is what makes
reuse pay in a serving deployment: repeated joins against the same hot
target columns stop paying worker startup, index resolution, *and*
column serialization.

Shards are planned by **candidate mass**, not probe count: a probe's
cost scales with how many targets sit within its near-length window,
so a skewed workload (thousands of probes at the column's modal
length) is split into more pieces than its probe share alone would
suggest, cut in length order so a shard's rungs pad little.  Workers
return value ids and distances as reduced ``int32`` arrays — the
parent maps ids back to strings through its own index — so result
pickling stays cheap even for very wide batches.

Worker startup prefers the ``fork`` start method where the platform
offers it and no other threads are alive (forking a multi-threaded
process is a deadlock hazard): the parent's index cache arrives by
copy-on-write, so workers usually begin scoring without building
anything.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import OrderedDict
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass

import numpy as np

from repro.index.cache import IndexCache, column_fingerprint
from repro.index.qgram import QGramIndex


@dataclass(frozen=True)
class JoinStats:
    """Counters from one blocked ``join_many`` / ``topk_many`` call.

    Attributes:
        probes: Probe rows requested (duplicates included).
        unique_probes: Distinct probe values after deduplication.
        exact_matches: Unique probes resolved by exact-match lookup
            (always 0 for top-k, which takes no shortcut).
        empty_probes: Unique probes that were abstentions (``""``).
        pending: Unique probes that went through the scoring ladder.
        n_workers: Worker processes the pool could run for this call
            (capped by the shard count; 1 = serial execution).
        shards: Probe shards dispatched to the pool (0 when serial).
        shard_sizes: Probe count of each shard, in dispatch order.
        cache_hits: In-memory index-cache hits during the call.
        cache_misses: In-memory index-cache misses during the call.
        kernel_backend: Resolved kernel backend the joiner scored with
            (``"auto"`` means per-call dispatch; the per-backend pairs
            show what actually ran).
        kernel_pairs: ``(backend_name, pairs_scored)`` tuples — how
            many (probe, candidate) pairs each concrete kernel backend
            scored during this call, parent process plus per-shard
            worker deltas.  Zero-count backends are omitted.  Parent
            counts come from the process-wide tally, so concurrent
            joins from other threads of the same process would be
            attributed to whichever call snapshots last — the engines
            serialize joins (the serving layer through its batch
            executor), which keeps the accounting exact.
    """

    probes: int = 0
    unique_probes: int = 0
    exact_matches: int = 0
    empty_probes: int = 0
    pending: int = 0
    n_workers: int = 1
    shards: int = 0
    shard_sizes: tuple[int, ...] = ()
    cache_hits: int = 0
    cache_misses: int = 0
    kernel_backend: str = "auto"
    kernel_pairs: tuple[tuple[str, int], ...] = ()

    def as_dict(self) -> dict:
        """JSON-friendly dict form (tuples become lists/mappings)."""
        out = asdict(self)
        out["shard_sizes"] = list(out["shard_sizes"])
        out["kernel_pairs"] = dict(out["kernel_pairs"])
        return out


@dataclass(frozen=True)
class PoolStats:
    """What one pool run reports back to the joiner's call frame.

    The defaults describe serial execution (no pool involved).
    """

    workers: int = 1
    shards: int = 0
    shard_sizes: tuple[int, ...] = ()
    #: Summed per-shard ``(backend, pairs)`` deltas from the workers.
    kernel_pairs: tuple[tuple[str, int], ...] = ()


# Target shards per worker: a few pieces of slack per process so one
# slow shard (a dense region of the column) doesn't leave the rest of
# the pool idle at the tail of the batch.
_OVERSPLIT = 4

# Worker-process state, set once per worker by :func:`_init_worker`.
_WORKER_CACHE: IndexCache | None = None
# Fingerprint -> resolved index, so warm shards carry no column at all.
_WORKER_INDEXES: OrderedDict[str, QGramIndex] = OrderedDict()
_WORKER_INDEX_CAP = 8


class _ColumnNeeded(Exception):
    """A worker lacks the index behind a column fingerprint.

    Raised by :func:`_score_shard` when a shard arrives fingerprint-only
    (the warm path) but this worker has never resolved that column — a
    freshly spawned worker, or one whose small fingerprint memo evicted
    it.  The parent catches it and resubmits the shard with the column
    attached, so the protocol is self-healing at the cost of one extra
    round trip on the cold path.
    """

    @property
    def shard_id(self) -> int:
        return self.args[0]


def plan_shards(
    index: QGramIndex, probes: Sequence[str], n_workers: int
) -> list[list[str]]:
    """Split pending probes into pool shards balanced by candidate mass.

    A probe's scoring cost is dominated by how many targets sit near its
    length, so its mass is the size of its near-length window.  Probes
    are ordered by length (stably: a shard holds neighbouring lengths,
    so its rungs pad little) and cut into runs of the per-shard target,
    total mass over ``n_workers x oversplit`` shards.  The plan is a
    pure function of the inputs, so tests can reproduce it exactly.
    """
    # Imported lazily: joiner imports this module for the pool, so a
    # module-level import here would cycle.
    from repro.index.joiner import IndexedJoiner

    if not probes:
        return []
    ordered = sorted(probes, key=len)
    lengths = np.fromiter(map(len, ordered), dtype=np.int64, count=len(ordered))
    sorted_lengths = np.sort(index.lengths)
    window = IndexedJoiner._NEAR_LENGTHS
    lo = np.searchsorted(sorted_lengths, lengths - window, side="left")
    hi = np.searchsorted(sorted_lengths, lengths + window, side="right")
    mass = np.maximum(hi - lo, 1)
    shard_target = max(1, -(-int(mass.sum()) // (n_workers * _OVERSPLIT)))
    # A probe joins the shard the mass ahead of it falls in, so a shard
    # closes with the probe that carries it past the target.
    shard_of = (np.cumsum(mass) - mass) // shard_target
    cuts = (np.flatnonzero(np.diff(shard_of)) + 1).tolist()
    return [
        ordered[start:stop]
        for start, stop in zip([0, *cuts], [*cuts, len(ordered)], strict=True)
    ]


def pool_context() -> multiprocessing.context.BaseContext:
    """Pick a start method: ``fork`` when it is safe, else a fresh start.

    ``fork`` is preferred — cheap startup, and the parent's built state
    (index caches, model weights) arrives copy-on-write — but forking a
    multi-threaded process is a deadlock hazard: any lock held by
    another thread at fork time (the index cache's own lock included)
    stays held forever in the child.  With other threads alive (the
    serving layer's scheduler, a caller's thread pool), fall back to
    ``forkserver``/``spawn``, which start workers from a clean
    interpreter.

    This policy is shared process-spawning machinery: the join engine's
    :class:`JoinWorkerPool` and the serving tier's
    :class:`~repro.serve.workers.ServeWorkerPool` both decide fork
    safety through it, so "fork-first, but never fork a threaded
    parent" holds everywhere worker processes are started.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and threading.active_count() == 1:
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        return multiprocessing.get_context("forkserver")
    return multiprocessing.get_context("spawn")


def _init_worker(inherited_cache: IndexCache | None) -> None:
    """Set up this worker's index cache, once per worker process.

    Under the ``fork`` start method the parent's cache object rides in
    directly (initargs are inherited memory, never pickled), so the
    worker starts with every index the parent had already built.
    Fresh-start workers begin with an empty cache and build from the
    column their first shard ships.
    """
    global _WORKER_CACHE
    _WORKER_CACHE = IndexCache() if inherited_cache is None else inherited_cache


def _score_shard(
    shard_id: int,
    probes: list[str],
    fingerprint: str,
    column: tuple[str, ...] | None,
    kernel_backend: str = "auto",
    k: int = 1,
) -> tuple:
    """Rank one shard's probes; ship the results as reduced int32 arrays.

    Shards are addressed by column *fingerprint*: warm shards (the
    persistent pool's steady state) carry no column bytes at all and
    resolve through this worker's fingerprint memo; a miss with no
    column attached raises :class:`_ColumnNeeded` so the parent can
    resubmit with the column, which the worker then resolves through
    its content-keyed cache (a hit, or a build).

    ``kernel_backend`` is the parent joiner's *resolved* backend name,
    so workers score with the same kernel whatever their environment
    says (``"auto"`` stays per-call dispatch, which resolves the same
    way in every process).

    The payload is ``(shard_id, kernel_pairs, counts, vids,
    distances)``: a ragged triple of per-probe rank counts plus flat
    value ids and distances in rank order (one entry per probe at
    ``k = 1``), which the parent slices back per probe.  It carries
    value ids, not matched strings — the parent owns an equal-content
    index and maps ids back — plus this shard's per-backend
    kernel-pairs delta (snapshotted around the scoring, so persistent
    workers never double-report across shards or calls).
    """
    # Imported lazily: joiner imports this module for the pool.
    from repro.core.join_config import JoinConfig
    from repro.index.joiner import IndexedJoiner
    from repro.index.kernels import pairs_scored_snapshot

    cache = _WORKER_CACHE
    assert cache is not None, "worker initialized without a cache"
    index = _WORKER_INDEXES.get(fingerprint)
    if index is None:
        if column is None:
            raise _ColumnNeeded(shard_id)
        index = cache.get(column)
        _WORKER_INDEXES[fingerprint] = index
        while len(_WORKER_INDEXES) > _WORKER_INDEX_CAP:
            _WORKER_INDEXES.popitem(last=False)
    else:
        _WORKER_INDEXES.move_to_end(fingerprint)
    scorer = IndexedJoiner(
        JoinConfig(n_workers=1, kernel_backend=kernel_backend),
        cache=cache,
    )
    pairs_before = pairs_scored_snapshot()
    ranked = scorer._resolve_probes(index, probes, k)
    counts = np.fromiter(
        (ranked[probe][0].size for probe in probes),
        dtype=np.int32,
        count=len(probes),
    )
    vids = np.concatenate([ranked[probe][0] for probe in probes])
    distances = np.concatenate([ranked[probe][1] for probe in probes])
    kernel_pairs = tuple(
        (name, count - pairs_before.get(name, 0))
        for name, count in pairs_scored_snapshot().items()
        if count - pairs_before.get(name, 0)
    )
    return (
        shard_id,
        kernel_pairs,
        counts,
        vids.astype(np.int32),
        distances.astype(np.int32),
    )


class JoinWorkerPool:
    """A process pool reused across the joiner's batch calls.

    Args:
        n_workers: Maximum worker processes (the executor spawns them
            on demand, so a pool sized for peak load costs nothing
            while idle).
        cache: The owning joiner's index cache; under the ``fork``
            start method it is inherited by workers copy-on-write
            (fresh-start workers begin with an empty one).
        kernel_backend: The owning joiner's *resolved* kernel-backend
            name, forwarded to workers with every shard so sharded
            scoring runs the exact kernel the serial path would.

    The pool is not itself thread-safe — it executes one batch call
    at a time, which is how :class:`~repro.index.joiner.IndexedJoiner`
    drives it (the serving layer serializes joins through its batch
    executor).  ``close()`` is idempotent; a closed pool refuses new
    work.
    """

    def __init__(
        self,
        n_workers: int,
        cache: IndexCache,
        kernel_backend: str = "auto",
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self.kernel_backend = kernel_backend
        self._cache = cache
        self._executor: ProcessPoolExecutor | None = None
        self._fork_started = False
        self._closed = False
        # Column fingerprints whose columns have already been shipped to
        # this executor's workers (warm shards go fingerprint-only).
        self._shipped_fps: set[str] = set()

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if (
            self._executor is not None
            and self._fork_started
            and threading.active_count() > 1
        ):
            # The fork decision was made while single-threaded, but the
            # executor forks workers lazily at submit time — doing that
            # now, with other threads alive, risks inheriting a held
            # lock forever.  Rebuild from a fresh-start context before
            # accepting more work (the per-call re-check PR4's one-shot
            # pools performed implicitly).
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._executor is None:
            context = pool_context()
            self._fork_started = context.get_start_method() == "fork"
            self._shipped_fps.clear()
            self._executor = ProcessPoolExecutor(
                max_workers=self.n_workers,
                mp_context=context,
                initializer=_init_worker,
                # Initargs are inherited through fork, not pickled, so
                # the cache object (locks and all) rides in directly.
                initargs=(self._cache if self._fork_started else None,),
            )
        return self._executor

    def run_probes(
        self,
        index: QGramIndex,
        probes: Sequence[str],
        targets: Sequence[str],
        k: int,
    ) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], PoolStats]:
        """Rank the pending probes through the pool.

        Returns the merged ``probe -> (value_ids, distances)`` mapping
        in rank order — byte-identical to one serial
        :meth:`IndexedJoiner._resolve_probes` over all of them at the
        same ``k`` — plus the pool counters for :class:`JoinStats`.
        """
        shards = plan_shards(index, probes, self.n_workers)
        executor = self._ensure_executor()
        column = tuple(targets)
        fingerprint = column_fingerprint(column, index.q)

        def submit(shard_id: int, shipped: tuple[str, ...] | None):
            return executor.submit(
                _score_shard,
                shard_id,
                shards[shard_id],
                fingerprint,
                shipped,
                self.kernel_backend,
                k,
            )

        # First sighting of a column ships its bytes with every shard;
        # after that, shards go fingerprint-only and a worker that
        # still misses (fresh process, evicted memo) asks for a resend.
        shipped = None if fingerprint in self._shipped_fps else column
        self._shipped_fps.add(fingerprint)
        ranked: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        call_pairs: dict[str, int] = {}
        try:
            futures = [submit(shard_id, shipped) for shard_id in range(len(shards))]
            for future in futures:
                try:
                    result = future.result()
                except _ColumnNeeded as missing:
                    result = submit(missing.shard_id, column).result()
                shard_id, shard_pairs, counts, vids, distances = result
                stops = np.cumsum(counts).tolist()
                for probe, count, stop in zip(
                    shards[shard_id], counts.tolist(), stops, strict=True
                ):
                    ranked[probe] = (
                        vids[stop - count : stop],
                        distances[stop - count : stop],
                    )
                for name, count in shard_pairs:
                    call_pairs[name] = call_pairs.get(name, 0) + count
        except BrokenProcessPool:
            # A killed worker (OOM, signal) breaks the executor for
            # good.  Fail this call, but discard the executor so the
            # next call starts a fresh one — a crash costs one batch,
            # exactly as it did with per-call pools.
            self._executor.shutdown(wait=False)
            self._executor = None
            raise
        return ranked, PoolStats(
            workers=min(self.n_workers, len(shards)),
            shards=len(shards),
            shard_sizes=tuple(len(shard) for shard in shards),
            kernel_pairs=tuple(sorted(call_pairs.items())),
        )

    def close(self) -> None:
        """Shut the executor down; idempotent."""
        self._closed = True
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> JoinWorkerPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
