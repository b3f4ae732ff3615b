"""The production Eq. 5 joiner, drop-in compatible with the brute oracle.

:class:`IndexedJoiner` resolves Eq. 5 through a
:class:`~repro.index.qgram.QGramIndex` plus the pair DP kernel, with
**exact equivalence** to :class:`~repro.core.joiner.EditDistanceJoiner`:
identical matches, distances, earliest-row tie-breaking, and
``max_distance`` / ``normalized_threshold`` semantics.

There is **one engine** for every single-column query.  ``join_many``
(argmin) and ``topk_many`` are the same call frame — dedupe, worker
dispatch, :class:`~repro.index.parallel.JoinStats` and ``join.*`` spans
— and differ only in ``k`` and in whether an exact match short-circuits
(a top-k query needs the runners-up regardless).  The frame
deduplicates identical probes, resolves exact matches with one
dictionary lookup each (argmin only), and hands every remaining probe
to one bound-ordered verification loop,
:meth:`IndexedJoiner._resolve_probes`: a few exactly scored seeds give
each probe a proven cap, and its candidates are then scored in order of
their bag-distance lower bound until the next bound exceeds the
tightened cap.  A kernel call scores the pairs of every pending probe
at once, whatever their lengths.  The argmin is the loop at ``k = 1``;
reverse joins invert the argmin; a scalar ``match`` is a one-probe
call.  A process-level :class:`~repro.index.cache.IndexCache` shares
one index per target-column *content* across joiners, pipelines, and
eval runs.

Above :data:`PARALLEL_THRESHOLD` pending probes (or at an explicit
``n_workers``), the frame shards them across a **persistent** process
pool (:mod:`repro.index.parallel`) with a deterministic merge,
byte-identical to the serial engine; long-lived owners should
``close()`` the joiner (or use it as a context manager).  Every
column size runs this engine; only the bounded many-to-many
``match_many`` is answered by the inherited brute scan.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections.abc import Sequence

import numpy as np

from repro.core.join_config import JoinConfig
from repro.core.joiner import EditDistanceJoiner
from repro.exceptions import JoinError
from repro.index.cache import IndexCache, default_index_cache
from repro.index.kernel import encode_strings
from repro.index.kernels import pairs_scored_snapshot, resolve_backend
from repro.index.parallel import JoinStats, JoinWorkerPool
from repro.index.qgram import QGramIndex
from repro.obs.trace import SpanContext, get_tracer

# A probe's ranked answer: ``(value_ids, distances)`` in rank order.
Ranked = tuple[np.ndarray, np.ndarray]
_NO_RANKS: Ranked = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

#: Pending (deduplicated, non-exact) probes at which an auto worker
#: count (``JoinConfig.n_workers=None``) starts the process pool.
PARALLEL_THRESHOLD = 4096


class IndexedJoiner(EditDistanceJoiner):
    """Q-gram-blocked edit-distance joiner (exactly equivalent to brute).

    Indexes are obtained from an :class:`IndexCache` keyed by the
    target column's content, so equal columns share one index across
    joiners and any mutation of a cached column — including same-length
    in-place cell edits — is detected and forces a rebuild.

    Args:
        config: All tunables in one frozen
            :class:`~repro.core.join_config.JoinConfig` — thresholds and
            ``n_workers`` (``None`` auto-picks
            ``os.cpu_count()`` capped when a batch has at least
            :data:`PARALLEL_THRESHOLD` unresolved probes and runs
            serially below; ``1`` forces serial; ``>= 2`` always
            shards — results are byte-identical in every
            configuration).
        cache: Index cache to use; ``None`` means the process-wide
            shared cache (:func:`~repro.index.cache.default_index_cache`).
            An object dependency, so it stays a direct argument rather
            than a config field.

    Attributes:
        kernel: The edit-distance backend every kernel call scores
            through, resolved once from ``REPRO_KERNEL_BACKEND``
            (:func:`~repro.index.kernels.resolve_backend`).
        last_join_stats: :class:`~repro.index.parallel.JoinStats` for
            the most recent :meth:`join_many` / :meth:`topk_many` call
            — ``None`` before the first call and after a call that had
            no probes.
    """

    # Auto mode never spawns more workers than this, however many cores
    # the host reports: shard planning targets a few shards per worker,
    # and past ~8 workers pool startup and result pickling outweigh the
    # extra parallelism for column-scale batches.
    _MAX_AUTO_WORKERS = 8

    # Cells (candidate characters) per kernel call: bounds a stratum's
    # working set at ~16 bytes a cell (the gather here, the sweep's
    # transpose and int32 symbol ids).  Half of it re-fragments a
    # stratum into ~1 000-pair calls, twice costs 2 MiB of peak RSS for
    # 4 % (docs/architecture.md has the readings).
    _PAIR_CELL_BUDGET = 1 << 17
    # Values per probe scored exactly to seed its cap (raised to ``k``);
    # the count-filter cap of the pool they are drawn from; and how many
    # values either side of the probe's length join a pool the filter
    # leaves short.
    _SEEDS = 8
    _SEED_CAP = 2
    _NEAREST = 64
    # Candidates per probe in the first verification stratum; each
    # later stratum doubles it.
    _STRATUM = 128

    def __init__(
        self,
        config: JoinConfig | None = None,
        *,
        cache: IndexCache | None = None,
    ) -> None:
        super().__init__(config)
        self.kernel = resolve_backend()
        self.cache = cache if cache is not None else default_index_cache()
        self.last_join_stats: JoinStats | None = None
        self._pool: JoinWorkerPool | None = None

    def _index_for(self, targets: Sequence[str]) -> QGramIndex:
        return self.cache.get(targets)

    def _resolve_workers(self, pending: int) -> int:
        """Worker count for a batch with ``pending`` unresolved probes."""
        n_workers = self.config.n_workers
        if n_workers is not None:
            return n_workers if pending else 1
        if pending >= PARALLEL_THRESHOLD:
            return max(1, min(os.cpu_count() or 1, self._MAX_AUTO_WORKERS))
        return 1

    def _ensure_pool(self, n_workers: int) -> JoinWorkerPool:
        """Get the persistent worker pool, (re)building it on demand.

        One pool lives across batch calls — worker startup and
        per-worker index resolution amortize over every batch the
        joiner ever runs — and is replaced only when the resolved
        worker count changes (auto mode crossing a threshold) or after
        an explicit :meth:`close`.
        """
        pool = self._pool
        if pool is not None and (pool.closed or pool.n_workers != n_workers):
            pool.close()
            pool = None
        if pool is None:
            pool = JoinWorkerPool(n_workers, self.cache)
            self._pool = pool
        return pool

    def close(self) -> None:
        """Shut down the persistent worker pool (if one was started).

        The joiner remains usable — the next parallel batch simply
        starts a fresh pool — so ``close()`` is safe to call from
        teardown paths that might race a late caller.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _argmin(self, predicted: str, targets: Sequence[str]) -> tuple[str, int]:
        """Earliest-row argmin via the blocked index (same contract as brute).

        Guards and threshold rejection stay in the shared
        :meth:`EditDistanceJoiner.match` / ``_apply_thresholds``; only
        the argmin strategy differs.  A scalar match is simply a
        single-probe call at ``k = 1`` of the batch engine's loop.
        """
        index = self._index_for(targets)
        if index.value_id(predicted) is not None:
            return predicted, 0
        vids, distances = self._resolve_probes(index, [predicted], 1)[predicted]
        return index.values[vids[0]], int(distances[0])

    def join_many(
        self, probes: Sequence[str], targets: Sequence[str]
    ) -> list[tuple[str | None, int]]:
        """Batched :meth:`match` over a whole probe column.

        Byte-identical to ``[self.match(p, targets) for p in probes]``
        — same matches, distances, earliest-row tie-breaks, and
        threshold abstentions — but the work is amortized by the shared
        frame (:meth:`_ranked_many` at ``k = 1`` with the exact-match
        shortcut on): the column hash and index lookup happen once,
        identical probes are resolved once, exact matches cost one
        dictionary lookup, and the remaining probes run through
        :meth:`_resolve_probes` together.
        Counters for the call land in :attr:`last_join_stats`.
        """
        if not probes:
            self.last_join_stats = None
            return []
        if not targets:
            raise JoinError("cannot join into an empty target column")
        index, ranked = self._ranked_many(probes, targets, 1, exact_shortcut=True)
        # Nothing ranked is the "" abstention (footnote 2): no match,
        # before thresholds.
        matches = {
            probe: (
                self._apply_thresholds(index.values[vids[0]], int(distances[0]))
                if vids.size
                else (None, 0)
            )
            for probe, (vids, distances) in ranked.items()
        }
        return [matches[probe] for probe in probes]

    def topk_many(
        self, probes: Sequence[str], targets: Sequence[str], k: int
    ) -> list[list[tuple[int, int, str]]]:
        """Blocked top-k, byte-identical to the brute reference.

        The same frame as :meth:`join_many` (:meth:`_ranked_many` at
        the caller's ``k``) with the exact-match shortcut off — a top-k
        query needs the runners-up regardless — and no per-probe
        thresholds here; selection/abstention live in the shared
        :meth:`EditDistanceJoiner.topk_join_many`.  Counters for the
        call land in :attr:`last_join_stats`.
        """
        self._validate_topk(targets, k)
        if not probes:
            self.last_join_stats = None
            return []
        index, ranked = self._ranked_many(probes, targets, k, exact_shortcut=False)
        triples = {
            probe: [
                (distance, int(index.first_rows[vid]), index.values[vid])
                for vid, distance in zip(
                    vids.tolist(), distances.tolist(), strict=True
                )
            ]
            for probe, (vids, distances) in ranked.items()
        }
        return [list(triples[probe]) for probe in probes]

    def _ranked_many(
        self,
        probes: Sequence[str],
        targets: Sequence[str],
        k: int,
        exact_shortcut: bool,
    ) -> tuple[QGramIndex, dict[str, Ranked]]:
        """The one call frame behind :meth:`join_many` and :meth:`topk_many`.

        Returns the column's index and, per distinct probe, its ``k``
        nearest distinct target values as ``(value_ids, distances)`` in
        ``(distance, earliest row)`` rank order — empty for the
        abstaining ``""`` probe.  With ``exact_shortcut`` a probe equal
        to a target value resolves to that value alone by dictionary
        lookup (only sound at ``k = 1``).  Everything else is resolved
        together by :meth:`_resolve_probes` — serially, or above
        :data:`PARALLEL_THRESHOLD` (or at an explicit ``n_workers``)
        sharded across the persistent process pool.  Publishes the
        call's :class:`JoinStats` and ``join.*`` spans.
        """
        tracer = get_tracer()
        join_span = tracer.start_span("join.join_many")
        cache_hits = self.cache.hits
        cache_misses = self.cache.misses
        pairs_before = pairs_scored_snapshot()
        # Dedupe: every occurrence of a probe value gets the one result.
        unique = dict.fromkeys(probes)
        try:
            phase_start = time.monotonic()
            index = self._index_for(targets)
            tracer.record_span(
                "join.index_build",
                join_span,
                phase_start,
                time.monotonic(),
                attributes={"targets": len(targets)},
            )
            ranked: dict[str, Ranked] = {}
            pending: list[str] = []
            exact_matches = 0
            empty_probes = 0
            phase_start = time.monotonic()
            for probe in unique:
                if probe == "":
                    ranked[probe] = _NO_RANKS
                    empty_probes += 1
                    continue
                vid = index.value_id(probe) if exact_shortcut else None
                if vid is not None:
                    ranked[probe] = (
                        np.array([vid], dtype=np.int64),
                        np.zeros(1, dtype=np.int64),
                    )
                    exact_matches += 1
                else:
                    pending.append(probe)
            tracer.record_span(
                "join.candidate_filter",
                join_span,
                phase_start,
                time.monotonic(),
                attributes={
                    "unique_probes": len(unique),
                    "exact_matches": exact_matches,
                    "empty_probes": empty_probes,
                    "pending": len(pending),
                },
            )
            n_workers = self._resolve_workers(len(pending))
            pool_stats = JoinStats()
            with tracer.span("join.kernel_sweep", join_span) as sweep:
                if n_workers > 1 and pending:
                    pool = self._ensure_pool(n_workers)
                    pooled, pool_stats = pool.run_probes(index, pending, targets, k)
                    ranked.update(pooled)
                elif pending:
                    ranked.update(
                        self._resolve_probes(index, pending, k, sweep.context)
                    )
                sweep.set_attributes(
                    {
                        "n_workers": pool_stats.n_workers,
                        "shards": pool_stats.shards,
                        "kernel_backend": self.kernel.name,
                    }
                )
        except BaseException as error:
            join_span.set_error(repr(error))
            join_span.finish()
            raise
        kernel_pairs = {
            name: count - pairs_before.get(name, 0)
            for name, count in pairs_scored_snapshot().items()
        }
        for name, count in pool_stats.kernel_pairs:
            kernel_pairs[name] = kernel_pairs.get(name, 0) + count
        self.last_join_stats = dataclasses.replace(
            pool_stats,
            probes=len(probes),
            unique_probes=len(unique),
            exact_matches=exact_matches,
            empty_probes=empty_probes,
            pending=len(pending),
            cache_hits=self.cache.hits - cache_hits,
            cache_misses=self.cache.misses - cache_misses,
            kernel_backend=self.kernel.name,
            kernel_pairs=tuple(
                sorted(
                    (name, count)
                    for name, count in kernel_pairs.items()
                    if count
                )
            ),
        )
        join_span.set_attributes(self.last_join_stats.as_dict())
        join_span.finish()
        return index, ranked

    def _resolve_probes(
        self,
        index: QGramIndex,
        probes: list[str],
        k: int,
        parent: SpanContext | None = None,
    ) -> dict[str, Ranked]:
        """The ``k`` nearest distinct values for probes of any mix of lengths.

        Returns ``probe -> (value_ids, distances)`` in ``(distance,
        earliest row)`` rank order, ``min(k, distinct values)`` entries
        each (callers map ids back to strings through the index).  Each
        probe's result depends only on ``(index, probe, k)``, which makes
        probe deduplication and parallel sharding byte-identical.

        One loop verifies candidates in order of their bag-distance
        lower bound (:meth:`QGramIndex.bag_bounds`), every pending probe
        at once.  **Seed:** a probe's pool is its count-filter candidates
        at cap :attr:`_SEED_CAP` (plus the values nearest its length when
        those are too few); its :attr:`_SEEDS` smallest-bound pool values
        are scored exactly, and their ``kk``-th smallest distance is a
        proven upper bound ``u`` on its ``kk``-th best.  **Generate:**
        every value within ``u`` is in :meth:`QGramIndex.candidates_many`
        at ``u`` (in the pool, when ``u`` is within the seed cap); those
        whose bound is at most ``u`` queue in ``(bound, value id)`` order.
        **Verify:** strata of the queue, each twice the last, are scored
        at ``u`` — one kernel call per stratum, at its probes' largest
        ``u`` — and after each, ``u`` tightens to the ``kk``-th best
        distance so far.  A probe is done when its next bound exceeds
        ``u``.  A value that beats or ties the final ``u`` has a bound of
        at most ``u``, so it was scored, and the ``(distance, earliest
        row)`` rank (:func:`_rank_topk`) sees every tie.

        The seed pools and the generation past the seed cap are each
        recorded as a ``join.candidate_filter`` child of ``parent`` (the
        caller's ``join.kernel_sweep``; pool shards pass none).
        """
        # Only distinct values rank, so a short column caps the answer.
        kk = min(k, len(index.values))
        n_seeds = max(kk, self._SEEDS)
        n_values, rows = len(index.values), np.arange(len(probes))
        codes, lengths = encode_strings(probes)
        # No distance exceeds max(probe length, longest value), so a pair
        # scored at that cap is exact.  A candidate is one int64 key,
        # ``(probe, bound, value id)`` in mixed radix: sorted keys list
        # each probe's candidates by bound.
        vacuous = max(index.max_length, int(lengths.max(initial=0)))
        radix = (vacuous + 1) * n_values

        def keyed(rep: np.ndarray, vids: np.ndarray, cap: int) -> np.ndarray:
            bounds = index.bag_bounds(codes, lengths, rep, vids)
            keep = bounds <= cap
            return rep[keep] * radix + bounds[keep] * n_values + vids[keep]

        # Reaching n_seeds either side of its length, a pool holds >= kk.
        tracer, phase_start = get_tracer(), time.monotonic()
        reach = max(self._NEAREST, n_seeds)
        pools = index.candidates_many(probes, self._SEED_CAP)
        by_length = np.argsort(index.lengths, kind="stable")
        near = np.searchsorted(index.lengths[by_length], lengths).tolist()
        for j, pool in enumerate(pools):
            if pool.size < n_seeds:
                lo = max(0, near[j] - reach)
                pools[j] = np.concatenate((pool, by_length[lo : near[j] + reach]))
        pool = _sorted_unique(keyed(*_flatten(pools), vacuous))
        tracer.record_span(
            "join.candidate_filter",
            parent,
            phase_start,
            time.monotonic(),
            attributes={"stage": "seed_pool", "candidates": int(pool.size)},
        )
        seeded = np.arange(pool.size) - np.searchsorted(pool, pool // radix * radix)
        seeds, pool = pool[seeded < n_seeds], pool[seeded >= n_seeds]
        rep, vids = seeds // radix, seeds % n_values
        found = self._pair_distances(codes, lengths, rep, vids, index, vacuous)
        u = _kth_per_probe(rep, found, len(probes), kk)
        # The pool holds every value within the seed cap; past it, generate.
        phase_start = time.monotonic()
        parts = [pool[u[pool // radix] <= self._SEED_CAP]]
        wider = np.flatnonzero(u > self._SEED_CAP)
        for cap in np.unique(u[wider]).tolist():
            at = wider[u[wider] == cap]
            more = _flatten(index.candidates_many([probes[j] for j in at], cap))
            parts.append(keyed(at[more[0]], more[1], cap))
        queue = np.sort(np.concatenate(parts))
        if queue.size:
            at = np.minimum(np.searchsorted(queue, seeds), queue.size - 1)
            queue = np.delete(queue, at[queue[at] == seeds])
        tracer.record_span(
            "join.candidate_filter",
            parent,
            phase_start,
            time.monotonic(),
            attributes={"stage": "generate", "candidates": int(queue.size)},
        )
        done, stratum = np.searchsorted(queue, rows * radix), self._STRATUM
        while True:
            # A stratum ends before the probe's first bound past its cap.
            limit = np.searchsorted(queue, rows * radix + (u + 1) * n_values)
            stop = np.minimum(done + stratum, limit)
            sizes = np.maximum(stop - done, 0)
            if not sizes.any():
                return _rank_topk(index, probes, rep, vids, found, kk)
            picked = np.repeat(done - np.cumsum(sizes) + sizes, sizes)
            picked = queue[picked + np.arange(picked.size)]
            more_rep, more_vids = picked // radix, picked % n_values
            scores = self._pair_distances(
                codes, lengths, more_rep, more_vids, index, int(u[more_rep].max())
            )
            rep = np.concatenate((rep, more_rep))
            vids = np.concatenate((vids, more_vids))
            found = np.concatenate((found, scores))
            u = _kth_per_probe(rep, found, len(probes), kk)
            keep = found <= u[rep]
            rep, vids, found = rep[keep], vids[keep], found[keep]
            done, stratum = np.maximum(done, stop), 2 * stratum

    def _pair_distances(
        self,
        probe_codes: np.ndarray,
        probe_lengths: np.ndarray,
        probe_rep: np.ndarray,
        vids: np.ndarray,
        index: QGramIndex,
        cap: int,
    ) -> np.ndarray:
        """Capped distances of ``(probe_rep[i], vids[i])`` pairs.

        Candidate codes are gathered per chunk so peak memory stays
        within the cell budget no matter how wide the index matrix is.
        Chunk boundaries come from the *actual* candidate lengths, so
        one pathological mega-cell in the column shrinks just the chunk
        that contains it.
        """
        n = vids.size
        out = np.empty(n, dtype=np.int64)
        cells = np.cumsum(index.lengths[vids] + 1)
        lo = 0
        while lo < n:
            consumed = int(cells[lo - 1]) if lo else 0
            hi = int(
                np.searchsorted(
                    cells, consumed + self._PAIR_CELL_BUDGET, side="right"
                )
            )
            hi = max(lo + 1, min(hi, n))
            out[lo:hi] = self.kernel.edit_distance_pairs(
                probe_codes,
                probe_lengths,
                probe_rep[lo:hi],
                *index.batch_codes(vids[lo:hi]),
                cap,
            )
            lo = hi
        return out


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """``np.unique(keys)`` by sort and neighbour compare.

    numpy's own ``np.unique`` hashes, which is several times slower on
    the int64 candidate keys than sorting them.
    """
    keys = np.sort(keys)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _flatten(lists: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``(list position, element)`` pairs of ragged arrays, laid end to end."""
    sizes = np.fromiter((a.size for a in lists), dtype=np.int64, count=len(lists))
    flat = np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
    return np.repeat(np.arange(len(lists)), sizes), flat.astype(np.int64, copy=False)


def _rank_topk(
    index: QGramIndex,
    probes: list[str],
    rep: np.ndarray,
    vids: np.ndarray,
    dists: np.ndarray,
    kk: int,
) -> dict[str, Ranked]:
    """Each probe's top ``kk`` scores by ``(distance, earliest row)``."""
    order = np.lexsort((index.first_rows[vids], dists, rep))
    starts = np.searchsorted(rep[order], np.arange(len(probes))).tolist()
    return {
        probe: (vids[order[lo : lo + kk]], dists[order[lo : lo + kk]])
        for probe, lo in zip(probes, starts, strict=True)
    }


def _kth_per_probe(
    rep: np.ndarray, dists: np.ndarray, n_probes: int, kk: int
) -> np.ndarray:
    """Each probe's ``kk``-th smallest distance (every probe has ``kk``)."""
    order = np.lexsort((dists, rep))
    return dists[order][np.searchsorted(rep[order], np.arange(n_probes)) + kk - 1]

