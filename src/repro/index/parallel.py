"""Parallel sharded execution for the batched join.

:class:`JoinWorkerPool` is a :class:`~repro.procs.WorkerPool` — the one
process pool, shared with the serving tier — whose workers run
:func:`_join_handler`.  It **persists across** the joiner's batch calls
(``join_many`` and ``topk_many`` alike) from the first parallel batch,
which starts every worker, until ``close()`` or garbage collection.
There is **one shard protocol**: every call fans its pending probes out
through :meth:`JoinWorkerPool.run_probes`, a shard is a list of probes,
every shard runs :func:`_score_shard` — the serial
:meth:`~repro.index.joiner.IndexedJoiner._resolve_probes` at the call's
``k`` — and every payload has the same shape (per-probe rank counts
plus flat value-id / distance arrays), merged deterministically.  The
argmin is simply ``k = 1``.  The contract is the engine-wide one:
**byte-identical results to the serial scan**, which the sharding
preserves by construction —

* a probe's ranking depends only on ``(index, probe, k)``, never on
  which other probes share its call, so the probes can split anywhere;
* every worker scores against an equal-content index — resolved from
  its own content-keyed cache (the parent's cache, inherited under the
  ``fork`` start method, or an empty one rebuilt from the column
  shipped with the shard; both construct the identical structure); and
* the merge keys results by probe value, so completion order is
  irrelevant.

The parent keeps **one shard in flight per worker** and sends the next
shard to whichever worker just replied, which balances uneven shards
and sends a column only to an idle worker (never into a full pipe).  A
worker killed mid-call fails that call with
:class:`~repro.exceptions.WorkerCrashedError`; the next call respawns it.

Because the pool outlives any single call, shards are addressed by
**column fingerprint**: a column's bytes ship with its shards only the
first time the pool sees it, after which shards go fingerprint-only
and resolve through each worker's fingerprint memo (a worker that
still misses — freshly respawned, or its memo evicted the entry —
raises for a one-shot resend with the column attached).  That is what
makes reuse pay in a serving deployment: repeated joins against the
same hot target columns stop paying worker startup, index resolution,
*and* column serialization.

Shards are planned by **candidate mass**, not probe count: a probe's
cost scales with how many targets sit within its near-length window,
so a skewed workload (thousands of probes at the column's modal
length) is split into more pieces than its probe share alone would
suggest, cut in length order so a shard's kernel calls pad little.  Workers
return value ids and distances as reduced ``int32`` arrays — the
parent maps ids back to strings through its own index — so result
pickling stays cheap even for very wide batches.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from collections.abc import Sequence
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass

import numpy as np

from repro.core.join_config import JoinConfig
from repro.index.cache import IndexCache, column_fingerprint
from repro.index.kernels import pairs_scored_snapshot
from repro.index.qgram import QGramIndex
from repro.procs import Handler, WorkerPool


@dataclass(frozen=True)
class JoinStats:
    """Counters from one blocked ``join_many`` / ``topk_many`` call.

    Attributes:
        probes: Probe rows requested (duplicates included).
        unique_probes: Distinct probe values after deduplication.
        exact_matches: Unique probes resolved by exact-match lookup
            (always 0 for top-k, which takes no shortcut).
        empty_probes: Unique probes that were abstentions (``""``).
        pending: Unique probes that went through the verification loop.
        n_workers: Worker processes the pool could run for this call
            (capped by the shard count; 1 = serial execution).
        shards: Probe shards dispatched to the pool (0 when serial).
        shard_sizes: Probe count of each shard, in dispatch order.
        cache_hits: In-memory index-cache hits during the call.
        cache_misses: In-memory index-cache misses during the call.
        kernel_backend: Kernel backend the joiner scored with (see
            :mod:`repro.index.kernels`).
        kernel_pairs: ``(backend_name, pairs_scored)`` tuples — how
            many (probe, candidate) pairs each kernel backend
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
    kernel_backend: str = "bitparallel"
    kernel_pairs: tuple[tuple[str, int], ...] = ()

    def as_dict(self) -> dict:
        """JSON-friendly dict form (tuples become lists/mappings).

        A flat field loop: every field is a scalar or a tuple of
        scalars, so there is nothing for a deep copy to do.
        """
        out = {name: getattr(self, name) for name in self.__dataclass_fields__}
        out["shard_sizes"] = list(self.shard_sizes)
        out["kernel_pairs"] = dict(self.kernel_pairs)
        return out


# Target shards per worker: a few pieces of slack per process so one
# slow shard (a dense region of the column) doesn't leave the rest of
# the pool idle at the tail of the batch.
_OVERSPLIT = 4

# Fingerprint -> resolved index entries a worker memoizes, so warm
# shards carry no column at all.
_WORKER_INDEX_CAP = 8

# Length-difference radius of a probe's near-length window, the
# candidate mass a shard plan balances.
_MASS_WINDOW = 2


class _ColumnNeeded(Exception):
    """A fingerprint-only shard reached a worker that lacks its index.

    A freshly respawned worker, or one whose small fingerprint memo
    evicted the column, raises it; the parent resubmits the shard with
    the column attached (one extra round trip on the cold path).
    """


def plan_shards(
    index: QGramIndex, probes: Sequence[str], n_workers: int
) -> list[list[str]]:
    """Split pending probes into pool shards balanced by candidate mass.

    A probe's scoring cost is dominated by how many targets sit near its
    length, so its mass is the size of its near-length window.  Probes
    are ordered by length (stably: a shard holds neighbouring lengths,
    so its kernel calls pad little) and cut into runs of the per-shard target,
    total mass over ``n_workers x oversplit`` shards.  The plan is a
    pure function of the inputs, so tests can reproduce it exactly.
    """
    if not probes:
        return []
    ordered = sorted(probes, key=len)
    lengths = np.fromiter(map(len, ordered), dtype=np.int64, count=len(ordered))
    sorted_lengths = np.sort(index.lengths)
    lo = np.searchsorted(sorted_lengths, lengths - _MASS_WINDOW, side="left")
    hi = np.searchsorted(sorted_lengths, lengths + _MASS_WINDOW, side="right")
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




def _score_shard(
    cache: IndexCache,
    indexes: OrderedDict[str, QGramIndex],
    probes: list[str],
    fingerprint: str,
    column: tuple[str, ...] | None,
    k: int,
) -> tuple:
    """Rank one shard's probes; ship the results as reduced int32 arrays.

    Shards are addressed by column *fingerprint*: warm shards (the
    persistent pool's steady state) carry no column bytes at all and
    resolve through this worker's fingerprint memo ``indexes``; a miss
    with no column attached raises :class:`_ColumnNeeded` so the parent
    can resubmit with the column, which the worker then resolves
    through its content-keyed ``cache`` (a hit, or a build).

    The payload is ``(kernel_pairs, counts, vids, distances)``: a ragged
    triple of per-probe rank counts plus flat value ids and distances
    in rank order (one entry per probe at ``k = 1``), which the parent
    slices back per probe.  It carries value ids, not matched strings —
    the parent owns an equal-content index and maps ids back — plus
    this shard's per-backend kernel-pairs delta (snapshotted around the
    scoring, so persistent workers never double-report across shards
    or calls).
    """
    # Imported here: repro.index.joiner imports this module at load
    # time for JoinStats and JoinWorkerPool.
    from repro.index.joiner import IndexedJoiner

    index = indexes.get(fingerprint)
    if index is None:
        if column is None:
            raise _ColumnNeeded(fingerprint)
        index = cache.get(column)
        indexes[fingerprint] = index
        while len(indexes) > _WORKER_INDEX_CAP:
            indexes.popitem(last=False)
    else:
        indexes.move_to_end(fingerprint)
    scorer = IndexedJoiner(JoinConfig(n_workers=1), cache=cache)
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
        kernel_pairs,
        counts,
        vids.astype(np.int32),
        distances.astype(np.int32),
    )


def _join_handler(inherited: IndexCache | None) -> Handler:
    """One join worker's handler: ``"shard"`` ops over its own cache.

    Under the ``fork`` start method the parent's cache object is
    ``inherited`` (copy-on-write, never pickled), so the worker starts
    with every index the parent had already built; fresh-start and
    respawned workers begin with an empty cache and build from the
    column a shard ships.
    """
    cache = IndexCache() if inherited is None else inherited
    indexes: OrderedDict[str, QGramIndex] = OrderedDict()

    def handle(op: str, payload: tuple) -> object:
        if op == "shard":
            return _score_shard(cache, indexes, *payload)
        return None  # "shutdown": nothing to release

    return handle


class JoinWorkerPool(WorkerPool):
    """A process pool reused across the joiner's batch calls.

    Args:
        n_workers: Worker processes, all started at construction.
        cache: The owning joiner's index cache; under the ``fork``
            start method it is inherited by workers copy-on-write
            (fresh-start workers begin with an empty one).

    Shards carry no kernel name: a worker scores with the backend
    ``REPRO_KERNEL_BACKEND`` names in the environment it started with,
    the parent's under ``fork`` and ``spawn`` (a ``forkserver`` child
    has the server's, which is the parent's as of the server's start).

    :meth:`run_probes` is not itself thread-safe — it executes one
    batch call at a time, which is how
    :class:`~repro.index.joiner.IndexedJoiner` drives it (the serving
    layer serializes joins through its batch executor).
    """

    def __init__(self, n_workers: int, cache: IndexCache) -> None:
        super().__init__(
            _join_handler, n_workers, inherited=cache, name="join-worker"
        )
        # Column fingerprints whose columns have already been shipped to
        # this pool's workers (warm shards go fingerprint-only).
        self._shipped_fps: set[str] = set()

    def run_probes(
        self,
        index: QGramIndex,
        probes: Sequence[str],
        targets: Sequence[str],
        k: int,
    ) -> tuple[dict[str, tuple[np.ndarray, np.ndarray]], JoinStats]:
        """Rank the pending probes through the pool.

        Returns the merged ``probe -> (value_ids, distances)`` mapping
        in rank order — byte-identical to one serial
        :meth:`IndexedJoiner._resolve_probes` over all of them at the
        same ``k`` — plus the pool's part of the call's
        :class:`JoinStats`: ``n_workers``, ``shards``, ``shard_sizes``
        and the workers' summed ``kernel_pairs`` (the joiner fills in
        the rest).
        """
        shards = plan_shards(index, probes, self.n_workers)
        column = tuple(targets)
        fingerprint = column_fingerprint(column, index.q)
        # First sighting of a column ships its bytes with every shard;
        # after that, shards go fingerprint-only and a worker that
        # still misses (respawned process, evicted memo) asks for a
        # resend.
        shipped = None if fingerprint in self._shipped_fps else column
        self._shipped_fps.add(fingerprint)
        inflight: dict[Future, int] = {}

        def send(shard_id: int, attached: tuple[str, ...] | None) -> None:
            payload = (shards[shard_id], fingerprint, attached, k)
            inflight[self.submit("shard", payload)] = shard_id

        queued = iter(range(len(shards)))
        for shard_id in itertools.islice(queued, self.n_workers):
            send(shard_id, shipped)
        ranked: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        call_pairs: dict[str, int] = {}
        while inflight:
            done, _ = wait(inflight, return_when=FIRST_COMPLETED)
            for future in done:
                shard_id = inflight.pop(future)
                try:
                    shard_pairs, counts, vids, distances = future.result()
                except _ColumnNeeded:
                    send(shard_id, column)
                    continue
                # The worker that just replied is idle again: the
                # least-inflight dispatch hands it the next shard.
                next_id = next(queued, None)
                if next_id is not None:
                    send(next_id, shipped)
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
        return ranked, JoinStats(
            n_workers=min(self.n_workers, len(shards)),
            shards=len(shards),
            shard_sizes=tuple(len(shard) for shard in shards),
            kernel_pairs=tuple(sorted(call_pairs.items())),
        )
