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
from dataclasses import replace

import pytest
from repro.utils.fuzz import random_edits, random_unicode_string

from repro.core.join_config import JoinConfig
from repro.datagen.benchmarks.registry import dataset_names, get_dataset
from repro.index import IndexCache, IndexedJoiner, JoinStats
from repro.index.parallel import plan_shards
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
        # the column their first shard ships, and later calls on that
        # column go fingerprint-only through each worker's memo.
        from repro.index import adaptive_q, column_fingerprint
        from repro.index import parallel as parallel_module

        monkeypatch.setattr(
            parallel_module.threading, "active_count", lambda: 2
        )
        assert parallel_module.pool_context().get_start_method() != "fork"
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
                # Only the second call's column was seen before: its
                # shards ship no column bytes.
                fingerprint = column_fingerprint(column, adaptive_q(column))
                if call:
                    shipped = parallel._pool._shipped_fps
                    assert (fingerprint in shipped) == (call == 1)
                assert parallel.join_many(probes, column) == serial.join_many(
                    probes, column
                ), call
                stats = parallel.last_join_stats
                assert stats.shards >= 1
                assert len(stats.shard_sizes) == stats.shards
                assert not parallel._pool._fork_started

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
        joiner.n_workers = 3
        assert joiner.join_many(probes, targets) == expected
        assert joiner._pool is not first_pool
        assert first_pool.closed
        joiner.close()

    def test_fork_pool_rebuilds_when_threads_appear(self, monkeypatch):
        # A pool whose executor was fork-started while single-threaded
        # must not fork more workers once other threads exist — the
        # next call rebuilds from a fresh-start context instead.
        from repro.index import parallel as parallel_module

        targets = [f"value-{i:04d}" for i in range(220)]
        probes = [f"valu-{i:04d}" for i in range(40)]
        joiner = IndexedJoiner(JoinConfig(n_workers=2), cache=IndexCache())
        expected = joiner.join_many(probes, targets)
        pool = joiner._pool
        was_fork = pool._fork_started
        monkeypatch.setattr(
            parallel_module.threading, "active_count", lambda: 2
        )
        assert joiner.join_many(probes, targets) == expected
        if was_fork:
            # Same pool object, new (fresh-start) executor inside it.
            assert joiner._pool is pool
            assert not pool._fork_started
        joiner.close()

    def test_score_shard_fingerprint_protocol(self, monkeypatch):
        # Warm shards are fingerprint-only; an unknown fingerprint with
        # no column attached must ask for a resend, and a resolved one
        # must serve later fingerprint-only shards from the memo.
        from collections import OrderedDict

        from repro.index import adaptive_q, column_fingerprint
        from repro.index import parallel as parallel_module

        monkeypatch.setattr(parallel_module, "_WORKER_CACHE", IndexCache())
        monkeypatch.setattr(parallel_module, "_WORKER_INDEXES", OrderedDict())
        with pytest.raises(parallel_module._ColumnNeeded) as excinfo:
            parallel_module._score_shard(7, ["probe"], "fp?", None, None)
        assert excinfo.value.shard_id == 7
        column = tuple(f"value-{i:03d}" for i in range(60))
        fingerprint = column_fingerprint(column, adaptive_q(column))
        shard_id, kernel_pairs, counts, vids, distances = (
            parallel_module._score_shard(
                1, ["value-0070"], fingerprint, column, None
            )
        )
        assert shard_id == 1 and distances.tolist() == [1]
        assert counts.tolist() == [1] and vids.size == 1
        assert sum(dict(kernel_pairs).values()) >= 1
        # One payload shape at any k: counts slice the flat rank arrays.
        _, _, counts, vids, distances = parallel_module._score_shard(
            3, ["value-0070", "value-0081"], fingerprint, None, None, k=3
        )
        assert counts.tolist() == [3, 3] and vids.size == distances.size == 6
        assert distances.tolist()[:3] == sorted(distances.tolist()[:3])
        # Fingerprint-only now resolves through the memo, no column.
        shard_id, *_ = parallel_module._score_shard(
            2, ["value-0080"], fingerprint, None, None
        )
        assert shard_id == 2

    def test_auto_joiner_close_reaches_delegate(self):
        from repro.index import AutoJoiner

        targets = [f"value-{i:04d}" for i in range(300)]
        probes = [f"valu-{i:04d}" for i in range(40)]
        with AutoJoiner(JoinConfig(n_workers=2), cache=IndexCache()) as joiner:
            joiner.join_many(probes, targets)
            pool = joiner._pool
            assert joiner.last_join_stats.shards >= 1
        assert joiner._pool is None
        assert pool.closed


class TestWorkerPolicy:
    def test_explicit_workers_validated(self):
        with pytest.raises(ValueError):
            IndexedJoiner(JoinConfig(n_workers=0))
        with pytest.raises(ValueError):
            IndexedJoiner(JoinConfig(parallel_threshold=-1))

    def test_auto_mode_respects_threshold_and_cpu_count(self, monkeypatch):
        joiner = IndexedJoiner(JoinConfig(parallel_threshold=100), cache=IndexCache())
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert joiner._resolve_workers(99) == 1
        assert joiner._resolve_workers(100) == 4
        monkeypatch.setattr("os.cpu_count", lambda: 64)
        assert (
            joiner._resolve_workers(100) == IndexedJoiner._MAX_AUTO_WORKERS
        )
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert joiner._resolve_workers(100) == 1

    def test_explicit_workers_bypass_threshold(self):
        joiner = IndexedJoiner(
            JoinConfig(n_workers=3, parallel_threshold=10**9),
            cache=IndexCache(),
        )
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
        from repro.surrogate import PretrainedDTT

        table = get_dataset("WT", seed=0, scale=0.05)[0]
        adapter = DTTJoinerAdapter(
            PretrainedDTT(seed=0), n_trials=2, joiner="indexed"
        )
        report = evaluate_on_table(adapter, table)
        assert report.stats is not None
        assert report.stats["engine"]["prompts"] > 0
        join_stats = report.stats["join"]
        assert join_stats["probes"] == len(table.split(0.5)[1])
        assert join_stats["n_workers"] == 1  # small table stays serial

    def test_pipeline_forwards_join_config(self):
        from repro.core.pipeline import DTTPipeline
        from repro.surrogate import PretrainedDTT

        pipeline = DTTPipeline(
            PretrainedDTT(seed=0), join_config=JoinConfig(n_workers=2)
        )
        assert pipeline.joiner.n_workers == 2
