"""Blocked join strategies, drop-in compatible with the brute joiner.

:class:`IndexedJoiner` resolves Eq. 5 through a
:class:`~repro.index.qgram.QGramIndex` plus the pair DP kernel, with
**exact equivalence** to :class:`~repro.core.joiner.EditDistanceJoiner`:
identical matches, distances, earliest-row tie-breaking, and
``max_distance`` / ``normalized_threshold`` semantics.

There is **one engine** for every single-column query.  ``join_many``
(argmin) and ``topk_many`` are the same call frame — dedupe, worker
dispatch, :class:`~repro.index.parallel.JoinStats` and ``join.*`` spans
— and differ only in ``k`` and in whether an exact match short-circuits
(a top-k query needs the runners-up regardless).  Every probe resolves
through one ranked ladder, :meth:`IndexedJoiner._resolve_probes`:
candidates within a cap are generated (provably completely) and scored,
and a probe is resolved the moment at least ``k`` of them score within
that cap — the candidate set at cap ``c`` contains *every* target
within ``c``, so those ``k`` are the global top-k with all their ties.
The argmin is the ladder at ``k = 1``; reverse joins invert the argmin;
a scalar ``match`` is a one-probe call.

Two layers amortize that work across a whole source column:

* The frame deduplicates identical probes, resolves exact matches with
  one dictionary lookup each (argmin only), and walks the ladder with
  every remaining probe at once.  There are no length buckets: the
  kernel scores each pair at its own probe's length, so a ladder
  **rung** — one step taken by every probe still pending — is one
  kernel sweep, not one per probe and not one per probe length.
* A process-level :class:`~repro.index.cache.IndexCache` shares one
  index per target-column *content* (entries are keyed on the column
  values themselves, so stale or aliased indexes are impossible)
  across joiners, pipelines, and eval runs.

Above :data:`PARALLEL_THRESHOLD` pending probes (or at an explicit
``n_workers``), the frame shards them across a **persistent** process
pool (:mod:`repro.index.parallel`) with a deterministic merge; the pool —
and each worker's resolved indexes — survive across calls, so repeated
joins pay worker startup once.  Results are byte-identical to the
serial engine in every configuration.  Long-lived owners should
``close()`` the joiner (or use it as a context manager) to tear the
pool down deterministically.

Below ``IndexedJoiner.threshold`` target rows (where index construction
dominates) every query falls through to the inherited brute scan;
:class:`AutoJoiner` is the joiner with that threshold at
:data:`AUTO_THRESHOLD`.  Every index is built at its column's
:func:`~repro.index.qgram.adaptive_q`.  The bounded many-to-many query
(``match_many``) is not blocked at all: it is the inherited reference
scan at every column size.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.join_config import JoinConfig
from repro.core.joiner import EditDistanceJoiner
from repro.exceptions import JoinError
from repro.index.cache import IndexCache, default_index_cache
from repro.index.kernel import encode_strings
from repro.index.kernels import pairs_scored_snapshot
from repro.index.qgram import QGramIndex
from repro.obs.trace import get_tracer

if TYPE_CHECKING:
    from repro.index.parallel import JoinStats, JoinWorkerPool

# A probe's ranked answer: ``(value_ids, distances)`` in rank order.
Ranked = tuple[np.ndarray, np.ndarray]
_NO_RANKS: Ranked = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

#: Target rows at which :class:`AutoJoiner` stops scanning and indexes.
#: Below it, index construction costs more than the brute scan it
#: saves; either side returns the same bytes, so this is not a knob.
AUTO_THRESHOLD = 256

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
            :class:`~repro.core.JoinConfig` — thresholds, the kernel
            backend and ``n_workers`` (``None`` auto-picks
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
        threshold: Minimum target-column length (in rows) at which the
            q-gram engine takes over; smaller columns run the inherited
            brute scan (byte-identical, so the switch never changes
            results).  ``0`` here — always blocked; :class:`AutoJoiner`
            sets it to :data:`AUTO_THRESHOLD`.
        last_join_stats: :class:`~repro.index.parallel.JoinStats` for
            the most recent :meth:`join_many` / :meth:`topk_many` call
            — ``None`` before the first call and after a call that ran
            the brute scan, which keeps no counters, or had no probes.
    """

    # Auto mode never spawns more workers than this, however many cores
    # the host reports: shard planning targets a few shards per worker,
    # and past ~8 workers pool startup and result pickling outweigh the
    # extra parallelism for column-scale batches.
    _MAX_AUTO_WORKERS = 8

    # Cells (candidate characters) per kernel call: bounds a merged
    # rung's working set at ~16 bytes a cell (the gather here, the
    # sweep's transpose and int32 symbol ids).  Half of it re-fragments
    # a rung into ~1 000-pair calls, twice costs 2 MiB of peak RSS for
    # 4 % (docs/architecture.md has the readings).
    _PAIR_CELL_BUDGET = 1 << 17
    # Pairs per assembly group: bounds the concatenated vids/distances
    # arrays of a rung regardless of how many candidate pairs the
    # filters admit.
    _PAIR_GROUP_BUDGET = 1 << 22
    # Length-difference radius of the final stage's first wave: the
    # near-length slice of the column that almost always contains the
    # top-k, scored first to tighten the bound for the wide wave.
    _NEAR_LENGTHS = 2
    # Max-gram-overlap neighbours scored per probe for the upper bound
    # (raised to ``k`` when a query ranks more than this).
    _BOUND_NEIGHBOURS = 8

    def __init__(
        self,
        config: JoinConfig | None = None,
        *,
        cache: IndexCache | None = None,
    ) -> None:
        super().__init__(config)
        self.cache = cache if cache is not None else default_index_cache()
        self.threshold = 0
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
        from repro.index.parallel import JoinWorkerPool

        pool = self._pool
        if pool is not None and (pool.closed or pool.n_workers != n_workers):
            pool.close()
            pool = None
        if pool is None:
            pool = JoinWorkerPool(
                n_workers, self.cache, kernel_backend=self.kernel.name
            )
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
        single-probe call at ``k = 1``, so it shares the batch
        engine's whole ladder, upper-bound waves included.
        """
        if len(targets) < self.threshold:
            return super()._argmin(predicted, targets)
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
        candidate generation plus the pair DP kernel, rung by rung.
        Counters for the call land in :attr:`last_join_stats`.
        """
        if len(targets) < self.threshold:
            self.last_join_stats = None
            return super().join_many(probes, targets)
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
        if len(targets) < self.threshold:
            self.last_join_stats = None
            return super().topk_many(probes, targets, k)
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
        sharded across the persistent process pool with
        a deterministic merge; per-probe results do not depend on which
        other probes share a shard, so the sharded output is
        byte-identical.  Publishes the call's :class:`JoinStats` and
        ``join.*`` spans.
        """
        # Imported lazily: parallel imports this module for its
        # worker-side scoring, so a module-level import would cycle.
        from repro.index.parallel import JoinStats

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
            phase_start = time.monotonic()
            pool_stats = JoinStats()
            if n_workers > 1 and pending:
                pooled, pool_stats = self._ensure_pool(n_workers).run_probes(
                    index, pending, targets, k
                )
                ranked.update(pooled)
            elif pending:
                ranked.update(self._resolve_probes(index, pending, k))
            tracer.record_span(
                "join.kernel_sweep",
                join_span,
                phase_start,
                time.monotonic(),
                attributes={
                    "n_workers": pool_stats.n_workers,
                    "shards": pool_stats.shards,
                    "kernel_backend": self.kernel.name,
                },
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
        self, index: QGramIndex, probes: list[str], k: int
    ) -> dict[str, Ranked]:
        """The ``k`` nearest distinct values for probes of any mix of lengths.

        Returns ``probe -> (value_ids, distances)`` in ``(distance,
        earliest row)`` rank order, ``min(k, distinct values)`` entries
        each; value ids keep the hot path (and the parallel workers'
        result payloads) in integer space — callers map ids back to
        strings through the index.  Each probe's result depends only on
        ``(index, probe, k)``, never on which other probes share the
        call, which is what makes both probe deduplication and parallel
        sharding byte-identical to the serial scan.

        One rule resolves a probe at every step: the candidate set at a
        cap is complete, so once at least ``k`` candidates score within
        the cap they are the global top-k with all their ties
        (:meth:`_rank_topk`).  At ``k = 1`` that is the classic argmin
        — minimum distance, earliest row among the ties.

        Each rung below is one kernel sweep over every probe still
        pending, whatever their lengths.  One cheap round at cap 2
        (:meth:`_ladder_rounds`) resolves the near probes — the common
        case for model predictions — on small count-filtered candidate
        blocks.  Every probe still unresolved then gets an **upper
        bound** on its ``k``-th best distance (the ``k``-th smallest
        exact distance to its max-gram-overlap targets) and finishes in
        two waves, no cap ladder needed:

        * **Wave 1** scores only the near-length candidates
          (``|len - probe length| <= 2``) at the bound.  The top-k
          almost always lives there, so the ``k``-th smallest wave-1
          score ``b1`` is a much tighter upper bound (``b1 <= bound``
          whenever ``k`` near candidates score within the bound;
          otherwise the bound stands).
        * **Wave 2** scores the remaining candidates at cap ``b1`` —
          any target beating or tying ``b1`` is within edit distance
          ``b1``, hence within the ``b1`` length window and count
          filter — with the kernel's per-pair settlement trimming
          doomed pairs after about ``b1`` DP steps.

        A kernel call takes one scalar cap, so a wave is one sweep per
        distinct bound among its probes.  This is the batched analogue
        of the brute scan's k-th-best pruning: far/garbage probes scan
        the wide part of the column exactly once, against the tightest
        bound known.
        """
        # Only distinct values rank, so a short column caps the answer.
        kk = min(k, len(index.values))
        resolved: dict[str, Ranked] = {}
        pending = self._ladder_rounds(index, probes, kk, resolved)
        if not pending:
            return resolved
        probe_codes, lengths = encode_strings(pending)
        bounds = self._upper_bounds(index, pending, probe_codes, lengths, kk)
        by_bound: dict[int, list[int]] = {}
        for j, bound in enumerate(bounds):
            by_bound.setdefault(bound, []).append(j)
        near_scores: dict[int, Ranked] = {}
        by_refined: dict[int, list[int]] = {}
        for bound, rows in sorted(by_bound.items()):
            cand_lists = index.candidates_many([pending[j] for j in rows], bound)
            near_lists = [
                cands[
                    np.abs(index.lengths[cands] - lengths[j]) <= self._NEAR_LENGTHS
                ]
                for j, cands in zip(rows, cand_lists, strict=True)
            ]
            wave1 = self._scored_lists(
                index, probe_codes[rows], lengths[rows], near_lists, bound
            )
            for j, near, near_dists in zip(rows, near_lists, wave1, strict=True):
                # Only scores within the bound can rank; keeping just
                # those also bounds what the call holds until wave 2.
                keep = near_dists <= bound
                near_scores[j] = (near[keep], near_dists[keep])
                refined = self._kth_smallest(near_dists[keep], kk, bound)
                by_refined.setdefault(refined, []).append(j)
        for refined, rows in sorted(by_refined.items()):
            cand_lists = index.candidates_many([pending[j] for j in rows], refined)
            far_lists = [
                cands[
                    np.abs(index.lengths[cands] - lengths[j]) > self._NEAR_LENGTHS
                ]
                for j, cands in zip(rows, cand_lists, strict=True)
            ]
            wave2 = self._scored_lists(
                index, probe_codes[rows], lengths[rows], far_lists, refined
            )
            for j, far, far_dists in zip(rows, far_lists, wave2, strict=True):
                near, near_dists = near_scores[j]
                ranked = self._rank_topk(
                    index,
                    np.concatenate((near, far)),
                    np.concatenate((near_dists, far_dists)),
                    refined,
                    kk,
                )
                if ranked is None:
                    raise RuntimeError(
                        "q-gram blocking missed a match within a proven "
                        "upper bound; the completeness invariant is broken"
                    )
                resolved[pending[j]] = ranked
        return resolved

    @staticmethod
    def _rank_topk(
        index: QGramIndex,
        cands: np.ndarray,
        dists: np.ndarray,
        cap: int,
        kk: int,
    ) -> Ranked | None:
        """Top ``kk`` of the candidates within ``cap``, or ``None``.

        Ranks by ``(distance, earliest row)``.  ``None`` means fewer
        than ``kk`` candidates score within the cap, i.e. a round at
        this cap cannot resolve the probe.
        """
        keep = dists <= cap
        if np.count_nonzero(keep) < kk:
            return None
        cands, dists = cands[keep], dists[keep]
        order = np.lexsort((index.first_rows[cands], dists))[:kk]
        return cands[order], dists[order]

    @staticmethod
    def _kth_smallest(dists: np.ndarray, kk: int, default: int) -> int:
        """The ``kk``-th smallest score, ``default`` when there are fewer."""
        if dists.size < kk:
            return default
        return int(np.partition(dists, kk - 1)[kk - 1])

    def _ladder_rounds(
        self,
        index: QGramIndex,
        probes: list[str],
        kk: int,
        resolved: dict[str, Ranked],
    ) -> list[str]:
        """The one cheap round, at cap 2.

        Candidates within the cap are generated completely and scored
        at the cap; a probe resolves into ``resolved`` when ``kk`` of
        them score within it.  Returns the survivors.
        """
        cap = 2
        probe_codes, lengths = encode_strings(probes)
        cand_lists = index.candidates_many(probes, cap)
        dist_lists = self._scored_lists(index, probe_codes, lengths, cand_lists, cap)
        survivors: list[str] = []
        for probe, cands, dists in zip(probes, cand_lists, dist_lists, strict=True):
            ranked = self._rank_topk(index, cands, dists, cap, kk)
            if ranked is None:
                survivors.append(probe)
            else:
                resolved[probe] = ranked
        return survivors

    def _scored_lists(
        self,
        index: QGramIndex,
        probe_codes: np.ndarray,
        probe_lengths: np.ndarray,
        cand_lists: list[np.ndarray],
        cap: int,
    ) -> list[np.ndarray]:
        """Capped distances per probe over its candidate list.

        Scores all (probe, candidate) pairs of the rung with the
        lockstep pair DP in bounded groups; entry ``i`` aligns with
        ``cand_lists[i]`` (distances above ``cap`` clamp to ``cap + 1``).
        """
        out: list[np.ndarray] = []
        for start, stop in self._probe_groups(cand_lists):
            group_lists = cand_lists[start:stop]
            sizes = np.fromiter(
                (c.size for c in group_lists), dtype=np.int64, count=stop - start
            )
            vids = np.concatenate(group_lists)
            probe_rep = np.repeat(np.arange(start, stop), sizes)
            distances = self._pair_distances(
                probe_codes, probe_lengths, probe_rep, vids, index, cap
            )
            out += np.split(distances, np.cumsum(sizes)[:-1])
        return out

    def _upper_bounds(
        self,
        index: QGramIndex,
        pending: list[str],
        probe_codes: np.ndarray,
        probe_lengths: np.ndarray,
        kk: int,
    ) -> list[int]:
        """A proven upper bound on each pending probe's ``kk``-th best distance.

        One small pair-DP batch (a few candidates per probe) against the
        max-gram-overlap targets from :meth:`QGramIndex.overlap_best`,
        topped up with the values nearest the probe's length wherever
        fewer than ``kk`` targets share a gram: exact distances to
        ``kk`` distinct values make the ``kk``-th smallest of them an
        upper bound on the ``kk``-th best distance overall.
        """
        neighbour_lists = index.overlap_best(pending, k=max(kk, self._BOUND_NEIGHBOURS))
        for j, neighbours in enumerate(neighbour_lists):
            if neighbours.size < kk:
                nearest = np.argsort(
                    np.abs(index.lengths - probe_lengths[j]), kind="stable"
                )[:kk]
                neighbour_lists[j] = np.union1d(neighbours, nearest)
        # Any target is within max(probe length, longest target) of its
        # probe: at the largest such cap every distance comes back exact.
        vacuous = np.maximum(probe_lengths, index.max_length).tolist()
        dist_lists = self._scored_lists(
            index, probe_codes, probe_lengths, neighbour_lists, max(vacuous)
        )
        return [
            self._kth_smallest(dists, kk, cap)
            for dists, cap in zip(dist_lists, vacuous, strict=True)
        ]

    def _probe_groups(
        self, cand_lists: list[np.ndarray]
    ) -> list[tuple[int, int]]:
        """Split a rung into probe slices of bounded pair count.

        Keeps one rung's concatenated pair block within the group
        budget even when a late (near-vacuous) cap admits most of the
        column for every probe.
        """
        groups: list[tuple[int, int]] = []
        start = 0
        accumulated = 0
        for j, candidates in enumerate(cand_lists):
            if accumulated and accumulated + candidates.size > self._PAIR_GROUP_BUDGET:
                groups.append((start, j))
                start = j
                accumulated = 0
            accumulated += candidates.size
        groups.append((start, len(cand_lists)))
        return groups

    def _pair_distances(
        self,
        probe_codes: np.ndarray,
        probe_lengths: np.ndarray,
        probe_rep: np.ndarray,
        vids: np.ndarray,
        index: QGramIndex,
        cap: int,
    ) -> np.ndarray:
        """Capped distances of ``(probe_rep[i], vids[i])`` pairs: bound, then DP.

        The one place the bag-distance bound is applied, for every rung.
        Candidate codes are gathered per chunk so peak memory stays
        within the cell budget no matter how wide the index matrix is.
        Chunk boundaries come from the *actual* candidate lengths (the
        kernel pads each chunk only to its own longest candidate), so
        one pathological mega-cell in the column shrinks just the chunk
        that contains it instead of collapsing every chunk to a handful
        of pairs.
        """
        out = np.full(vids.size, cap + 1, dtype=np.int64)
        swept = None
        # Pairs the bag-distance bound puts above the cap keep cap + 1;
        # no bound exceeds max(m, n), so a cap that high settles none.
        if cap < max(index.max_length, int(probe_lengths.max(initial=0))):
            swept = np.flatnonzero(
                index.bag_bounds(probe_codes, probe_lengths, probe_rep, vids) <= cap
            )
            probe_rep, vids = probe_rep[swept], vids[swept]
        n = vids.size
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
            scored = self.kernel.edit_distance_pairs(
                probe_codes,
                probe_lengths,
                probe_rep[lo:hi],
                *index.batch_codes(vids[lo:hi]),
                cap,
            )
            out[slice(lo, hi) if swept is None else swept[lo:hi]] = scored
            lo = hi
        return out


class AutoJoiner(IndexedJoiner):
    """Size-adaptive strategy: brute below ``threshold`` rows, else blocked.

    Index construction is linear in the column with a noticeable
    constant, so tiny columns (the common per-table benchmark case) stay
    on the scalar scan while large columns get sub-linear candidate
    generation.  Both sides are exactly equivalent, so the switch never
    changes results.  This is an :class:`IndexedJoiner` whose
    ``threshold`` is :data:`AUTO_THRESHOLD` — nothing else.
    """

    def __init__(
        self,
        config: JoinConfig | None = None,
        *,
        cache: IndexCache | None = None,
    ) -> None:
        super().__init__(config, cache=cache)
        self.threshold = AUTO_THRESHOLD


def make_joiner(
    strategy: str = "auto",
    config: JoinConfig | None = None,
    *,
    cache: IndexCache | None = None,
) -> EditDistanceJoiner:
    """Build a join strategy by name.

    Args:
        strategy: ``"brute"`` (scalar scan), ``"indexed"`` (q-gram
            blocked), or ``"auto"`` (switch on target-column size).
        config: All tunables in one frozen
            :class:`~repro.core.JoinConfig` (thresholds, worker count,
            kernel backend).
        cache: Index cache for the blocked strategies (``None`` = the
            process-wide shared cache).
    """
    if strategy == "brute":
        return EditDistanceJoiner(config)
    if strategy == "indexed":
        return IndexedJoiner(config, cache=cache)
    if strategy == "auto":
        return AutoJoiner(config, cache=cache)
    raise ValueError(
        f"unknown join strategy {strategy!r}; expected 'brute', 'indexed', or 'auto'"
    )
