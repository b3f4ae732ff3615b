"""Parallel sharded join: byte-equivalence with the serial engine.

The worker pool is a pure execution choice — for any worker count the
merged output of ``join_many`` must be **byte-identical** to the serial
engine (matches, distances, earliest-row tie-breaks, threshold
abstentions).  These tests enforce that on every registry dataset and on
adversarial shapes (skewed lengths, tiny forced-parallel batches), and
cover the shard planner, the auto-worker policy, and the ``JoinStats``
counters threaded into eval reports.
"""

from __future__ import annotations

import random
import signal
import time
from dataclasses import replace

import pytest
from repro.utils.fuzz import random_edits, random_unicode_string

from repro.core.join_config import JoinConfig
from repro.datagen.benchmarks.registry import dataset_names, get_dataset
from repro.index.cache import IndexCache
from repro.index.joiner import IndexedJoiner
from repro.index.parallel import JoinStats, plan_shards
from repro.index.qgram import QGramIndex

_SEED = 5150
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 .-_/"


def _probe_mix(rng, targets, count):
    """Exact, near, far, and abstained probes — the pipeline's mix."""
    probes = []
    for _ in range(count):
        roll = rng.random()
        base = rng.choice(targets)
        if roll < 0.3:
            probes.append(base)
        elif roll < 0.7:
            probes.append(
                random_edits(rng, base, rng.randint(1, 3), alphabet=_ALPHABET)
            )
        elif roll < 0.9:
            probes.append(random_unicode_string(rng, max_length=12))
        else:
            probes.append("")
    return probes


def _wait_until(predicate, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class TestParallelEquivalence:
    @pytest.mark.parametrize("name", dataset_names())
    def test_byte_identical_on_dataset_at_1_2_4_workers(self, name):
        # One pooled column per dataset (tables concatenated) keeps the
        # worker-pool startup cost bounded while still covering every
        # dataset's value shapes.
        rng = random.Random(_SEED)
        tables = get_dataset(name, seed=0, scale=0.05)
        targets = [value for table in tables for value in table.targets]
        probes = _probe_mix(rng, targets, len(targets))
        serial = IndexedJoiner(JoinConfig(n_workers=1), cache=IndexCache())
        expected = serial.join_many(probes, targets)
        for n_workers in (1, 2, 4):
            joiner = IndexedJoiner(
                JoinConfig(n_workers=n_workers), cache=IndexCache()
            )
            assert joiner.join_many(probes, targets) == expected, (
                name,
                n_workers,
            )

    def test_thresholds_identical_under_parallelism(self):
        rng = random.Random(_SEED + 1)
        targets = [
            random_unicode_string(rng, max_length=14, min_length=4)
            for _ in range(300)
        ]
        probes = _probe_mix(rng, targets, 200)
        for config in (
            JoinConfig(max_distance=2),
            JoinConfig(normalized_threshold=0.34),
        ):
            serial = IndexedJoiner(
                replace(config, n_workers=1), cache=IndexCache()
            )
            parallel = IndexedJoiner(
                replace(config, n_workers=2), cache=IndexCache()
            )
            assert parallel.join_many(probes, targets) == serial.join_many(
                probes, targets
            ), config

    def test_skewed_single_bucket_is_split_and_identical(self):
        # Every probe shares one length: the planner must split them
        # by candidate mass instead of shipping one shard.
        rng = random.Random(_SEED + 2)
        targets = [
            random_unicode_string(
                rng, max_length=10, min_length=6, alphabet=_ALPHABET
            )
            for _ in range(500)
        ]
        probes = [
            "".join(rng.choice(_ALPHABET) for _ in range(8)) for _ in range(240)
        ]
        serial = IndexedJoiner(JoinConfig(n_workers=1), cache=IndexCache())
        parallel = IndexedJoiner(JoinConfig(n_workers=2), cache=IndexCache())
        assert parallel.join_many(probes, targets) == serial.join_many(
            probes, targets
        )
        stats = parallel.last_join_stats
        assert stats.shards > 1
        assert sum(stats.shard_sizes) == stats.pending

    def test_forced_workers_on_tiny_batch(self):
        # An explicit n_workers engages the pool even far below the
        # auto threshold — and still matches the serial scan.
        targets = ["alpha", "beta", "gamma", "delta", "epsilon"] * 3
        probes = ["alpa", "betta", "gamm", "", "epsilon", "zzzz"]
        serial = IndexedJoiner(JoinConfig(n_workers=1), cache=IndexCache())
        parallel = IndexedJoiner(JoinConfig(n_workers=2), cache=IndexCache())
        assert parallel.join_many(probes, targets) == serial.join_many(
            probes, targets
        )
        assert parallel.last_join_stats.n_workers == 2

    def test_non_fork_start_method_with_live_threads(self, monkeypatch):
        # Forking a multi-threaded process can deadlock workers on
        # inherited locks, so the pool must fall back to a fresh-start
        # method — and stay byte-identical through it.  Fresh-start
        # workers begin with an empty cache: they build the index from
        # the column their first shard carries, and later shards on
        # that column hit each worker's cache.
        from multiprocessing.context import ForkProcess

        from repro import procs

        monkeypatch.setattr(procs.threading, "active_count", lambda: 2)
        assert procs.pool_context().get_start_method() != "fork"
        targets = [f"value-{i:04d}" for i in range(300)]
        others = [f"other/{i:05d}" for i in range(280)]
        calls = [
            (targets, [f"valu-{i:04d}" for i in range(30)] + ["value-0007", ""]),
            (targets, [f"vlue-{i:04d}" for i in range(40, 75)]),
            (others, [f"othr/{i:05d}" for i in range(30)]),
        ]
        serial = IndexedJoiner(JoinConfig(n_workers=1), cache=IndexCache())
        with IndexedJoiner(
            JoinConfig(n_workers=2), cache=IndexCache()
        ) as parallel:
            for call, (column, probes) in enumerate(calls):
                assert parallel.join_many(probes, column) == serial.join_many(
                    probes, column
                ), call
                stats = parallel.last_join_stats
                assert stats.shards >= 1
                assert len(stats.shard_sizes) == stats.shards
                assert not any(
                    isinstance(worker.process, ForkProcess)
                    for worker in parallel._pool.workers
                )

    def test_exact_only_batch_skips_the_pool(self):
        # Nothing pending: every probe resolves exactly or abstains, so
        # even an explicit worker count must not spawn processes.
        targets = ["alpha", "beta", "gamma"]
        joiner = IndexedJoiner(JoinConfig(n_workers=4), cache=IndexCache())
        assert joiner.join_many(["alpha", "", "beta"], targets) == [
            ("alpha", 0),
            (None, 0),
            ("beta", 0),
        ]
        stats = joiner.last_join_stats
        assert stats.n_workers == 1
        assert stats.shards == 0


class TestPersistentPool:
    def test_pool_survives_across_calls_and_columns(self):
        # One executor serves successive join_many calls — including
        # calls against different target columns — with results still
        # byte-identical to the serial scan.
        rng = random.Random(_SEED + 10)
        columns = [
            [
                random_unicode_string(
                    rng, max_length=12, min_length=4, alphabet=_ALPHABET
                )
                for _ in range(250)
            ]
            for _ in range(2)
        ]
        serial = IndexedJoiner(JoinConfig(n_workers=1), cache=IndexCache())
        parallel = IndexedJoiner(JoinConfig(n_workers=2), cache=IndexCache())
        pools = []
        for targets in columns + columns:  # repeat: warm-pool path
            probes = _probe_mix(rng, targets, 120)
            assert parallel.join_many(probes, targets) == serial.join_many(
                probes, targets
            )
            pools.append(parallel._pool)
        assert all(pool is pools[0] for pool in pools)  # one pool, reused
        parallel.close()
        assert parallel._pool is None

    def test_close_allows_later_reuse(self):
        targets = [f"value-{i:04d}" for i in range(200)]
        probes = [f"valu-{i:04d}" for i in range(40)]
        joiner = IndexedJoiner(JoinConfig(n_workers=2), cache=IndexCache())
        first = joiner.join_many(probes, targets)
        joiner.close()
        assert joiner.join_many(probes, targets) == first  # fresh pool
        joiner.close()

    def test_context_manager_closes_pool(self):
        targets = [f"value-{i:04d}" for i in range(200)]
        probes = [f"valu-{i:04d}" for i in range(40)]
        with IndexedJoiner(JoinConfig(n_workers=2), cache=IndexCache()) as joiner:
            joiner.join_many(probes, targets)
            pool = joiner._pool
            assert pool is not None
        assert joiner._pool is None
        assert pool.closed

    def test_worker_count_change_rebuilds_pool(self):
        targets = [f"value-{i:04d}" for i in range(200)]
        probes = [f"valu-{i:04d}" for i in range(40)]
        joiner = IndexedJoiner(JoinConfig(n_workers=2), cache=IndexCache())
        expected = joiner.join_many(probes, targets)
        first_pool = joiner._pool
        joiner.config = replace(joiner.config, n_workers=3)
        assert joiner.join_many(probes, targets) == expected
        assert joiner._pool is not first_pool
        assert first_pool.closed
        joiner.close()

    def test_score_shard_fingerprint_protocol(self):
        # A shard is ``(probes, column, k)``, resolved through the
        # worker's own IndexCache: the first shard on a column builds
        # the index, every later one is a cache hit (workers keep their
        # resolved indexes).  The cache starts empty, as a fresh-start
        # worker's does; it is handed in so its counters can be read.
        from repro.index.parallel import _join_handler

        cache = IndexCache()
        handle = _join_handler(cache)
        column = tuple(f"value-{i:03d}" for i in range(60))
        kernel_pairs, counts, vids, distances = handle(
            "shard", (["value-0070"], column, 1)
        )
        assert distances.tolist() == [1]
        assert counts.tolist() == [1] and vids.size == 1
        assert sum(dict(kernel_pairs).values()) >= 1
        assert (cache.hits, cache.misses) == (0, 1)
        # One payload shape at any k: counts slice the flat rank arrays.
        # The column arrives as a fresh (unpickled) tuple, equal in
        # content: a hit, not a rebuild.
        _, counts, vids, distances = handle(
            "shard", (["value-0070", "value-0081"], tuple(list(column)), 3)
        )
        assert counts.tolist() == [3, 3] and vids.size == distances.size == 6
        assert distances.tolist()[:3] == sorted(distances.tolist()[:3])
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    @pytest.mark.skipif(
        not hasattr(signal, "SIGSTOP"), reason="needs POSIX job control"
    )
    def test_killed_worker_fails_its_call_and_is_respawned(self):
        # A SIGKILLed join worker fails the call it was serving with
        # WorkerCrashedError; the next call respawns it (no fork: the
        # parent has reader threads) and still matches the serial scan.
        import os
        from concurrent.futures import ThreadPoolExecutor

        from repro.exceptions import WorkerCrashedError

        targets = [f"value-{i:04d}" for i in range(400)]
        probes = [f"valu-{i:04d}" for i in range(120)]
        expected = IndexedJoiner(
            JoinConfig(n_workers=1), cache=IndexCache()
        ).join_many(probes, targets)
        joiner = IndexedJoiner(JoinConfig(n_workers=2), cache=IndexCache())
        try:
            assert joiner.join_many(probes[:40], targets) == expected[:40]
            pool = joiner._pool
            victim = pool.workers[0]
            # Stopped, the victim holds the next call's first shard
            # without answering it; then it dies with the shard in
            # flight.
            os.kill(victim.process.pid, signal.SIGSTOP)
            with ThreadPoolExecutor(1) as caller:
                call = caller.submit(joiner.join_many, probes, targets)
                _wait_until(lambda: victim.inflight > 0)
                os.kill(victim.process.pid, signal.SIGKILL)
                with pytest.raises(WorkerCrashedError):
                    call.result(60)
            assert joiner.join_many(probes, targets) == expected
            assert joiner._pool is pool
            assert pool.restarts == 1
        finally:
            joiner.close()


class TestWorkerPolicy:
    def test_explicit_workers_validated(self):
        with pytest.raises(ValueError):
            IndexedJoiner(JoinConfig(n_workers=0))
        # The auto-mode cutoff is a constant, not a config field.
        with pytest.raises(TypeError):
            IndexedJoiner(JoinConfig(parallel_threshold=-1))

    def test_auto_mode_respects_threshold_and_cpu_count(self, monkeypatch):
        from repro.index.joiner import PARALLEL_THRESHOLD

        joiner = IndexedJoiner(cache=IndexCache())
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert joiner._resolve_workers(PARALLEL_THRESHOLD - 1) == 1
        assert joiner._resolve_workers(PARALLEL_THRESHOLD) == 4
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert (
            joiner._resolve_workers(PARALLEL_THRESHOLD)
            == IndexedJoiner._MAX_AUTO_WORKERS
        )
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert joiner._resolve_workers(PARALLEL_THRESHOLD) == 1

    def test_explicit_workers_bypass_threshold(self):
        joiner = IndexedJoiner(JoinConfig(n_workers=3), cache=IndexCache())
        assert joiner._resolve_workers(5) == 3
        assert joiner._resolve_workers(0) == 1


class TestShardPlanner:
    def test_plan_is_deterministic_and_partitions_buckets(self):
        rng = random.Random(_SEED + 3)
        targets = [
            random_unicode_string(rng, max_length=12, min_length=4)
            for _ in range(400)
        ]
        index = QGramIndex(targets, q=2)
        probes = ["x" * 9 for _ in range(3)]
        probes += [f"probe{i}"[:6] + str(i) for i in range(80)]
        first = plan_shards(index, probes, n_workers=4)
        second = plan_shards(index, probes, n_workers=4)
        assert first == second
        assert len(first) > 1 and all(first)
        # A partition of the probes in length order, call order within
        # a length: shards hold neighbouring lengths.
        flattened = [probe for shard in first for probe in shard]
        assert flattened == sorted(probes, key=len)

    def test_mass_splits_dense_lengths_harder(self):
        # 300 targets at length 8, 10 at length 20: the length-8 probes
        # carry ~30x the per-probe mass and must split into more
        # shards than the sparse ones despite equal probe counts.
        targets = ["a" * 4 + str(i).zfill(4) for i in range(300)]
        targets += ["b" * 16 + str(i).zfill(4) for i in range(10)]
        index = QGramIndex(targets, q=2)
        probes_dense = [f"c{i:07d}" for i in range(40)]
        probes_sparse = [f"d{i:019d}" for i in range(40)]
        shards = plan_shards(index, probes_sparse + probes_dense, n_workers=2)
        dense = [ps for ps in shards if any(p in probes_dense for p in ps)]
        sparse = [ps for ps in shards if any(p in probes_sparse for p in ps)]
        assert len(dense) > len(sparse)

    def test_empty_buckets_make_no_shards(self):
        index = QGramIndex(["abc"], q=2)
        assert plan_shards(index, [], n_workers=4) == []


class TestJoinStatsThreading:
    def test_serial_stats_shape(self):
        joiner = IndexedJoiner(cache=IndexCache())
        targets = ["alpha", "beta", "gamma", "beta"]
        probes = ["alpha", "alpha", "betta", "", "zzz"]
        joiner.join_many(probes, targets)
        stats = joiner.last_join_stats
        assert isinstance(stats, JoinStats)
        assert stats.probes == 5
        assert stats.unique_probes == 4
        assert stats.exact_matches == 1
        assert stats.empty_probes == 1
        assert stats.pending == 2
        assert stats.n_workers == 1
        assert stats.cache_misses == 1
        as_dict = stats.as_dict()
        assert as_dict["probes"] == 5
        assert isinstance(as_dict["shard_sizes"], list)

    def test_eval_report_carries_engine_and_join_stats(self):
        from repro.eval.runner import DTTJoinerAdapter, evaluate_on_table
        from repro.surrogate.pretrained import PretrainedDTT

        table = get_dataset("WT", seed=0, scale=0.05)[0]
        adapter = DTTJoinerAdapter(PretrainedDTT(seed=0), n_trials=2)
        report = evaluate_on_table(adapter, table)
        assert report.stats is not None
        assert report.stats["engine"]["prompts"] > 0
        join_stats = report.stats["join"]
        assert join_stats["probes"] == len(table.split(0.5)[1])
        assert join_stats["n_workers"] == 1  # small table stays serial

    def test_pipeline_forwards_join_config(self):
        from repro.core.pipeline import DTTPipeline
        from repro.surrogate.pretrained import PretrainedDTT

        joiner = IndexedJoiner(JoinConfig(n_workers=2))
        pipeline = DTTPipeline(PretrainedDTT(seed=0), joiner=joiner)
        assert pipeline.joiner is joiner
        assert pipeline.joiner.config.n_workers == 2
