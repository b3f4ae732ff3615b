"""IndexCache behaviour: content keys, hit/miss/eviction, adaptive q.

The cache is the staleness-correctness layer of the blocked join engine
— indexes are keyed on column *content*, so any mutation of a cached
column must produce a different key — and the sharing layer that lets
eval runs and repeated pipelines reuse one index per target column.
The on-disk tier extends that sharing across processes, so its tests
target the failure modes of files: torn writes, truncation, garbage,
format-version drift, and concurrent readers.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.index import (
    IndexCache,
    QGramIndex,
    adaptive_q,
    column_fingerprint,
    default_index_cache,
)
from repro.index import cache as cache_module


class TestIndexCache:
    def test_miss_builds_then_hits(self):
        cache = IndexCache()
        column = ("alpha", "beta", "gamma")
        index = cache.get(column, q=2)
        assert isinstance(index, QGramIndex)
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.get(column, q=2) is index
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_equal_columns_share_one_index(self):
        cache = IndexCache()
        index = cache.get(["alpha", "beta"], q=2)
        assert cache.get(("alpha", "beta"), q=2) is index

    def test_same_length_in_place_edit_misses(self):
        # The exact hole of the old identity+length guard: overwriting
        # a cell with a same-length value must change the key.
        cache = IndexCache()
        column = ["aaa", "bbb", "ccc"]
        first = cache.get(column, q=2)
        column[1] = "zzz"
        assert cache.get(column, q=2) is not first

    def test_row_order_is_significant(self):
        # Earliest-row tie-breaking makes order part of the semantics.
        cache = IndexCache()
        assert cache.get(("a", "b"), q=2) is not cache.get(("b", "a"), q=2)

    def test_distinct_q_cached_separately(self):
        cache = IndexCache()
        column = ("alpha", "beta")
        two = cache.get(column, q=2)
        three = cache.get(column, q=3)
        assert two is not three
        assert two.q == 2 and three.q == 3
        assert len(cache) == 2

    def test_adaptive_q_resolution(self):
        cache = IndexCache()
        short = ("ab", "cd", "ef")
        assert cache.get(short).q == adaptive_q(short) == 2
        long = tuple("abcdefghijklmnopqrstuv" + str(i) for i in range(3))
        assert cache.get(long).q == adaptive_q(long) == 3

    def test_lru_eviction(self):
        cache = IndexCache(capacity=2)
        first = cache.get(("a", "b"), q=2)
        cache.get(("c", "d"), q=2)
        # Touch the first entry so the second becomes least recent.
        assert cache.get(("a", "b"), q=2) is first
        cache.get(("e", "f"), q=2)
        assert len(cache) == 2
        assert cache.evictions == 1
        # The survivor is still a hit; the evicted entry rebuilds.
        assert cache.get(("a", "b"), q=2) is first
        misses_before = cache.misses
        cache.get(("c", "d"), q=2)
        assert cache.misses == misses_before + 1

    def test_byte_budget_eviction(self):
        cache = IndexCache(capacity=100, max_bytes=1)
        first = cache.get(("alpha", "beta"), q=2)
        assert len(cache) == 1  # the most recent entry is always kept
        assert cache.total_bytes == first.nbytes
        cache.get(("gamma", "delta"), q=2)
        # Over budget: the older entry is evicted, the newest survives.
        assert len(cache) == 1
        assert cache.evictions == 1
        assert cache.get(("alpha", "beta"), q=2) is not first

    def test_clear_drops_entries(self):
        cache = IndexCache()
        index = cache.get(("a", "b"), q=2)
        cache.clear()
        assert len(cache) == 0
        assert cache.total_bytes == 0
        assert cache.get(("a", "b"), q=2) is not index

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            IndexCache(capacity=0)
        with pytest.raises(ValueError):
            IndexCache(max_bytes=0)

    def test_default_cache_is_process_wide(self):
        assert default_index_cache() is default_index_cache()


class TestColumnFingerprint:
    def test_same_length_mutation_changes_fingerprint(self):
        # The same-length in-place edit is the classic staleness hole:
        # equal row count, equal lengths, different content.
        base = ("aaa", "bbb", "ccc")
        mutated = ("aaa", "zzz", "ccc")
        assert column_fingerprint(base, 2) != column_fingerprint(mutated, 2)

    def test_value_boundaries_are_unambiguous(self):
        # Length-prefixed encoding: shifting characters across value
        # boundaries must not collide.
        assert column_fingerprint(("ab", "c"), 2) != column_fingerprint(
            ("a", "bc"), 2
        )
        assert column_fingerprint(("ab",), 2) != column_fingerprint(
            ("a", "b"), 2
        )

    def test_row_order_and_q_matter(self):
        assert column_fingerprint(("a", "b"), 2) != column_fingerprint(
            ("b", "a"), 2
        )
        assert column_fingerprint(("ab", "cd"), 2) != column_fingerprint(
            ("ab", "cd"), 3
        )

    def test_equal_columns_agree_across_container_types(self):
        assert column_fingerprint(["ab", "cd"], 2) == column_fingerprint(
            ("ab", "cd"), 2
        )

    def test_lone_surrogates_hash(self):
        assert column_fingerprint(("a\ud800b",), 2) != column_fingerprint(
            ("ab",), 2
        )


class TestDiskTier:
    COLUMN = ("alpha", "beta", "gamma", "beta")

    def test_fresh_cache_loads_from_disk(self, tmp_path):
        writer = IndexCache(cache_dir=tmp_path)
        built = writer.get(self.COLUMN)
        assert (writer.disk_hits, writer.disk_misses) == (0, 1)
        assert list(tmp_path.glob("qgram-*.npz"))
        reader = IndexCache(cache_dir=tmp_path)
        loaded = reader.get(self.COLUMN)
        assert (reader.disk_hits, reader.disk_misses) == (1, 0)
        assert loaded is not built
        assert loaded.values == built.values
        assert loaded.q == built.q
        assert (loaded.first_rows == built.first_rows).all()
        assert loaded.value_id("beta") == built.value_id("beta")

    def test_adaptive_and_explicit_share_one_file(self, tmp_path):
        writer = IndexCache(cache_dir=tmp_path)
        writer.get(self.COLUMN)  # adaptive resolves to q=2
        assert len(list(tmp_path.glob("qgram-*.npz"))) == 1
        reader = IndexCache(cache_dir=tmp_path)
        reader.get(self.COLUMN, q=2)
        assert (reader.disk_hits, reader.disk_misses) == (1, 0)
        assert len(list(tmp_path.glob("qgram-*.npz"))) == 1

    def test_truncated_file_falls_back_to_rebuild(self, tmp_path):
        IndexCache(cache_dir=tmp_path).get(self.COLUMN)
        path = next(tmp_path.glob("qgram-*.npz"))
        path.write_bytes(path.read_bytes()[:64])
        cache = IndexCache(cache_dir=tmp_path)
        index = cache.get(self.COLUMN)
        assert (cache.disk_hits, cache.disk_misses) == (0, 1)
        assert index.values == ["alpha", "beta", "gamma"]
        # The rebuild atomically replaced the corrupt file.
        healed = IndexCache(cache_dir=tmp_path)
        assert healed.get(self.COLUMN).values == index.values
        assert (healed.disk_hits, healed.disk_misses) == (1, 0)

    def test_garbage_file_falls_back_to_rebuild(self, tmp_path):
        IndexCache(cache_dir=tmp_path).get(self.COLUMN)
        path = next(tmp_path.glob("qgram-*.npz"))
        path.write_bytes(b"\x00\xffnot-a-zip" * 30)
        cache = IndexCache(cache_dir=tmp_path)
        assert cache.get(self.COLUMN).values == ["alpha", "beta", "gamma"]
        assert cache.disk_misses == 1

    def test_version_stamp_mismatch_invalidates(self, tmp_path, monkeypatch):
        IndexCache(cache_dir=tmp_path).get(self.COLUMN)
        monkeypatch.setattr(cache_module, "DISK_FORMAT_VERSION", 999)
        cache = IndexCache(cache_dir=tmp_path)
        index = cache.get(self.COLUMN)
        assert (cache.disk_hits, cache.disk_misses) == (0, 1)
        assert index.values == ["alpha", "beta", "gamma"]
        # The rewrite stamped the new version, so the next load hits.
        restamped = IndexCache(cache_dir=tmp_path)
        restamped.get(self.COLUMN)
        assert (restamped.disk_hits, restamped.disk_misses) == (1, 0)

    @pytest.mark.parametrize(
        "first_rows", ([0, 1], [0, 1, 2, 3], [0, 2, 1], [0, 1, 1], [[0, 1, 2]])
    )
    def test_bad_first_rows_fall_back_to_rebuild(self, tmp_path, first_rows):
        # Truncated, overlong, out of order, repeated, wrong rank: the
        # snapshot parses but fails validation, so it is a plain miss.
        IndexCache(cache_dir=tmp_path).get(self.COLUMN)
        path = next(tmp_path.glob("qgram-*.npz"))
        with np.load(path) as data:
            state = {name: data[name] for name in data.files}
        state["first_rows"] = np.asarray(first_rows, dtype=np.int64)
        with pytest.raises(ValueError, match="corrupt index state"):
            QGramIndex.from_state(state)
        np.savez(path, **state)
        cache = IndexCache(cache_dir=tmp_path)
        index = cache.get(self.COLUMN)
        assert (cache.disk_hits, cache.disk_misses) == (0, 1)
        assert index.first_rows.tolist() == [0, 1, 2]

    def test_mutated_column_misses_on_disk(self, tmp_path):
        IndexCache(cache_dir=tmp_path).get(("aaa", "bbb", "ccc"))
        cache = IndexCache(cache_dir=tmp_path)
        cache.get(("aaa", "zzz", "ccc"))
        assert (cache.disk_hits, cache.disk_misses) == (0, 1)
        assert len(list(tmp_path.glob("qgram-*.npz"))) == 2

    def test_concurrent_readers_and_writers_never_tear(self, tmp_path):
        # Hammer one fingerprint file with rewriters while readers load
        # it: every load must come back either as the complete index or
        # as a clean rebuild — never a torn/partial structure.
        column = tuple(f"value-{i:04d}" for i in range(200))
        seed_cache = IndexCache(cache_dir=tmp_path)
        expected = seed_cache.get(column)
        path = seed_cache.disk_path(column, expected.q)
        stop = threading.Event()
        failures: list[Exception] = []

        def rewriter():
            while not stop.is_set():
                seed_cache._save_disk(path, expected)

        def reader():
            try:
                for _ in range(20):
                    index = IndexCache(cache_dir=tmp_path).get(column)
                    assert index.values == expected.values
                    assert (index.lengths == expected.lengths).all()
            except Exception as error:  # pragma: no cover - failure path
                failures.append(error)

        writer = threading.Thread(target=rewriter)
        readers = [threading.Thread(target=reader) for _ in range(4)]
        writer.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join()
        stop.set()
        writer.join()
        assert not failures
        assert not list(tmp_path.glob("*.tmp"))

    def test_unwritable_cache_dir_is_non_fatal(self, tmp_path):
        # A file where the directory should be: every save fails, every
        # load misses, and the join still gets a correct index.
        blocked = tmp_path / "blocked"
        blocked.write_text("not a directory")
        cache = IndexCache(cache_dir=blocked)
        assert cache.get(self.COLUMN).values == ["alpha", "beta", "gamma"]
        assert cache.disk_misses == 1

    def test_memory_only_cache_has_no_disk_path(self):
        with pytest.raises(ValueError):
            IndexCache().disk_path(("a", "b"), 2)

    def test_state_round_trip_preserves_lookup_behaviour(self):
        column = ("alpha", "beta", "", "beta", "a\ud800b")
        index = QGramIndex(column, q=2)
        state = index.to_state()
        clone = QGramIndex.from_state(
            {k: np.asarray(v) for k, v in state.items()}
        )
        assert clone.values == index.values
        assert clone.first_rows.tolist() == index.first_rows.tolist() == [0, 1, 2, 4]
        assert clone.max_length == index.max_length
        for probe in ("alpha", "beta", "nope", ""):
            assert clone.value_id(probe) == index.value_id(probe)
        for cap in (1, 3):
            for probe in ("alph", "betaa", "zzz"):
                assert (
                    clone.candidates_many([probe], cap)[0]
                    == index.candidates_many([probe], cap)[0]
                ).all()

    def test_default_cache_reads_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_module.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setattr(cache_module, "_DEFAULT_CACHE", None)
        cache = cache_module.default_index_cache()
        assert cache.cache_dir == tmp_path
        cache.get(self.COLUMN)
        assert list(tmp_path.glob("qgram-*.npz"))

    def test_default_cache_memory_only_without_env(self, monkeypatch):
        monkeypatch.delenv(cache_module.CACHE_DIR_ENV, raising=False)
        monkeypatch.setattr(cache_module, "_DEFAULT_CACHE", None)
        assert cache_module.default_index_cache().cache_dir is None


class TestDiskGarbageCollection:
    COLUMNS = (
        tuple(f"alpha-{i:03d}" for i in range(40)),
        tuple(f"beta-{i:03d}" for i in range(40)),
        tuple(f"gamma-{i:03d}" for i in range(40)),
    )

    @staticmethod
    def _age(path, seconds):
        import os

        stat = path.stat()
        os.utime(path, (stat.st_atime - seconds, stat.st_mtime - seconds))

    def test_size_bound_evicts_lru_by_mtime(self, tmp_path):
        probe = IndexCache(cache_dir=tmp_path)
        probe.get(self.COLUMNS[0])
        file_size = next(tmp_path.glob("qgram-*.npz")).stat().st_size
        for path in tmp_path.glob("qgram-*.npz"):
            path.unlink()
        cache = IndexCache(
            cache_dir=tmp_path, max_disk_bytes=2 * file_size + file_size // 2
        )
        for i, column in enumerate(self.COLUMNS[:2]):
            cache.get(column)
            # Distinct mtimes, oldest first (coarse-clock filesystems).
            self._age(cache.disk_path(column, cache.get(column).q), 10 - i)
        assert len(list(tmp_path.glob("qgram-*.npz"))) == 2
        cache.get(self.COLUMNS[2])
        remaining = set(tmp_path.glob("qgram-*.npz"))
        assert len(remaining) == 2
        assert cache.disk_evictions == 1
        # The oldest snapshot went; the newest survived.
        assert cache.disk_path(self.COLUMNS[0], 2) not in remaining
        assert cache.disk_path(self.COLUMNS[2], 2) in remaining

    def test_disk_load_refreshes_lru_position(self, tmp_path):
        probe = IndexCache(cache_dir=tmp_path)
        probe.get(self.COLUMNS[0])
        file_size = next(tmp_path.glob("qgram-*.npz")).stat().st_size
        probe.get(self.COLUMNS[1])
        for i, column in enumerate(self.COLUMNS[:2]):
            self._age(probe.disk_path(column, 2), 20 - i)
        # A fresh cache loads column 0 from disk: that access must
        # refresh its mtime so the *other* file is now least recent.
        cache = IndexCache(
            cache_dir=tmp_path, max_disk_bytes=2 * file_size + file_size // 2
        )
        cache.get(self.COLUMNS[0])
        assert cache.disk_hits == 1
        cache.get(self.COLUMNS[2])
        remaining = set(tmp_path.glob("qgram-*.npz"))
        assert cache.disk_path(self.COLUMNS[0], 2) in remaining
        assert cache.disk_path(self.COLUMNS[1], 2) not in remaining

    def test_age_bound_prunes_stale_snapshots(self, tmp_path):
        writer = IndexCache(cache_dir=tmp_path)
        writer.get(self.COLUMNS[0])
        self._age(writer.disk_path(self.COLUMNS[0], 2), 3600)
        cache = IndexCache(cache_dir=tmp_path, max_disk_age_seconds=60)
        cache.get(self.COLUMNS[1])
        remaining = set(tmp_path.glob("qgram-*.npz"))
        assert cache.disk_path(self.COLUMNS[0], 2) not in remaining
        assert cache.disk_path(self.COLUMNS[1], 2) in remaining
        assert cache.disk_evictions == 1

    def test_backwards_clock_step_does_not_mass_evict(self, tmp_path):
        # The GC clock steps back two hours (NTP correction): every
        # snapshot on disk is now "future-dated".  Ages clamp to zero
        # instead of going negative, so nothing is evicted, and each
        # file is restamped as written *now* so it ages normally from
        # this GC onward.
        writer = IndexCache(cache_dir=tmp_path)
        writer.get(self.COLUMNS[0])
        writer.get(self.COLUMNS[1])

        stepped_back = time.time() - 7200
        cache = IndexCache(
            cache_dir=tmp_path,
            max_disk_age_seconds=60,
            clock=lambda: stepped_back,
        )
        cache.get(self.COLUMNS[2])
        assert len(list(tmp_path.glob("qgram-*.npz"))) == 3
        assert cache.disk_evictions == 0
        for i in range(2):
            mtime = cache.disk_path(self.COLUMNS[i], 2).stat().st_mtime
            assert mtime == pytest.approx(stepped_back, abs=2.0)

    def test_future_dated_snapshot_unpinned_and_ages_normally(self, tmp_path):
        # A peer host's fast clock stamped a snapshot an hour in the
        # future.  Raw mtime arithmetic gives it a negative age the
        # expiry check never trips and the LRU sort ranks permanently
        # most-recent — the stale file is pinned until the local clock
        # catches up.  The skew guard treats it as written now: kept on
        # sight (age zero), restamped, then expired like any other file
        # once it is genuinely older than the bound.
        writer = IndexCache(cache_dir=tmp_path)
        writer.get(self.COLUMNS[0])
        stale = writer.disk_path(self.COLUMNS[0], 2)
        self._age(stale, -3600)  # push the mtime into the future

        now = time.time()
        clock_now = [now]
        cache = IndexCache(
            cache_dir=tmp_path,
            max_disk_age_seconds=60,
            clock=lambda: clock_now[0],
        )
        cache.get(self.COLUMNS[1])  # first GC: clamp to age zero, restamp
        assert stale.exists()
        assert stale.stat().st_mtime == pytest.approx(now, abs=2.0)

        clock_now[0] = now + 3600
        cache.get(self.COLUMNS[2])  # second GC: ordinary expiry applies
        assert not stale.exists()

    def test_budget_smaller_than_one_file_keeps_newest(self, tmp_path):
        cache = IndexCache(cache_dir=tmp_path, max_disk_bytes=1)
        cache.get(self.COLUMNS[0])
        cache.get(self.COLUMNS[1])
        remaining = list(tmp_path.glob("qgram-*.npz"))
        assert len(remaining) == 1
        assert remaining[0] == cache.disk_path(self.COLUMNS[1], 2)

    def test_gc_tolerates_concurrent_deletion(self, tmp_path, monkeypatch):
        # Another process may GC the same directory: files vanishing
        # between the scan and the unlink must not raise or miscount.
        cache = IndexCache(cache_dir=tmp_path, max_disk_bytes=1)
        cache.get(self.COLUMNS[0])
        original_unlink = os.unlink

        def racing_unlink(path, *args, **kwargs):
            original_unlink(path)  # the "other process" wins the race
            return original_unlink(path)  # then ours fails

        monkeypatch.setattr(os, "unlink", racing_unlink)
        cache.get(self.COLUMNS[1])
        assert cache.disk_evictions == 0  # failed unlink is not counted

    def test_unbounded_tier_never_collects(self, tmp_path):
        cache = IndexCache(cache_dir=tmp_path)
        for column in self.COLUMNS:
            cache.get(column)
        assert len(list(tmp_path.glob("qgram-*.npz"))) == 3
        assert cache.disk_evictions == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            IndexCache(max_disk_bytes=0)
        with pytest.raises(ValueError):
            IndexCache(max_disk_age_seconds=0)

    def test_default_cache_reads_max_bytes_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache_module.CACHE_DIR_ENV, str(tmp_path))
        monkeypatch.setenv(cache_module.CACHE_MAX_BYTES_ENV, "12345")
        monkeypatch.setattr(cache_module, "_DEFAULT_CACHE", None)
        cache = cache_module.default_index_cache()
        assert cache.max_disk_bytes == 12345


class TestAdaptiveQ:
    def test_steps_with_median_length(self):
        assert adaptive_q([]) == 2
        assert adaptive_q(["ab", "cde", "f"]) == 2
        assert adaptive_q(["x" * 19] * 5) == 2
        assert adaptive_q(["x" * 20] * 5) == 3
        assert adaptive_q(["x" * 39] * 5) == 3
        assert adaptive_q(["x" * 40] * 5) == 4

    def test_median_not_mean(self):
        # One pathological mega-cell must not drag q upward.
        column = ["abc"] * 9 + ["y" * 500]
        assert adaptive_q(column) == 2
