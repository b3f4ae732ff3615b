"""IndexCache behaviour: content keys, hit/miss/eviction, adaptive q.

The cache is the staleness-correctness layer of the blocked join engine
— indexes are keyed on column *content*, so any mutation of a cached
column must produce a different key — and the sharing layer that lets
eval runs and repeated pipelines reuse one index per target column.
An index is derived data of its column: a process that misses builds
it, and nothing is ever loaded from outside the process.
"""

from __future__ import annotations

import pytest

from repro.index.cache import IndexCache, default_index_cache
from repro.index.qgram import QGramIndex, adaptive_q


class TestIndexCache:
    def test_miss_builds_then_hits(self):
        cache = IndexCache()
        column = ("alpha", "beta", "gamma")
        index = cache.get(column)
        assert isinstance(index, QGramIndex)
        assert (cache.hits, cache.misses) == (0, 1)
        assert cache.get(column) is index
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_equal_columns_share_one_index(self):
        cache = IndexCache()
        index = cache.get(["alpha", "beta"])
        assert cache.get(("alpha", "beta")) is index

    def test_same_length_in_place_edit_misses(self):
        # The exact hole of the old identity+length guard: overwriting
        # a cell with a same-length value must change the key.
        cache = IndexCache()
        column = ["aaa", "bbb", "ccc"]
        first = cache.get(column)
        column[1] = "zzz"
        assert cache.get(column) is not first

    def test_row_order_is_significant(self):
        # Earliest-row tie-breaking makes order part of the semantics.
        cache = IndexCache()
        assert cache.get(("a", "b")) is not cache.get(("b", "a"))

    def test_distinct_q_cached_separately(self):
        # The gram size is not a lookup argument: one column, one entry,
        # built at its adaptive q.
        cache = IndexCache()
        column = ("alpha", "beta")
        with pytest.raises(TypeError):
            cache.get(column, q=3)
        assert cache.get(column).q == adaptive_q(column) == 2
        assert len(cache) == 1

    def test_adaptive_q_resolution(self):
        cache = IndexCache()
        short = ("ab", "cd", "ef")
        assert cache.get(short).q == adaptive_q(short) == 2
        long = tuple("abcdefghijklmnopqrstuv" + str(i) for i in range(3))
        assert cache.get(long).q == adaptive_q(long) == 3

    def test_lru_eviction(self):
        cache = IndexCache(capacity=2)
        first = cache.get(("a", "b"))
        cache.get(("c", "d"))
        # Touch the first entry so the second becomes least recent.
        assert cache.get(("a", "b")) is first
        cache.get(("e", "f"))
        assert len(cache) == 2
        assert cache.evictions == 1
        # The survivor is still a hit; the evicted entry rebuilds.
        assert cache.get(("a", "b")) is first
        misses_before = cache.misses
        cache.get(("c", "d"))
        assert cache.misses == misses_before + 1

    def test_byte_budget_eviction(self):
        cache = IndexCache(capacity=100, max_bytes=1)
        first = cache.get(("alpha", "beta"))
        assert len(cache) == 1  # the most recent entry is always kept
        assert cache.total_bytes == first.nbytes
        cache.get(("gamma", "delta"))
        # Over budget: the older entry is evicted, the newest survives.
        assert len(cache) == 1
        assert cache.evictions == 1
        assert cache.get(("alpha", "beta")) is not first

    def test_total_bytes_counts_the_character_histograms(self):
        # The bag-distance filter's per-value histograms, its
        # code-point-to-bin table, the gram alphabet and the three
        # postings CSR arrays live as long as the index, so the byte
        # budget must see them.
        cache = IndexCache()
        index = cache.get(tuple(f"value {i}" for i in range(40)))
        assert index.histograms.shape[0] == len(index)
        parts = (
            index.first_rows,
            index.lengths,
            index.histograms,
            index._bins,
            index._alphabet,
            index._codes,
            index.gram_keys,
            index.indptr,
            index.vids,
        )
        assert cache.total_bytes == sum(part.nbytes for part in parts)

    def test_clear_drops_entries(self):
        cache = IndexCache()
        index = cache.get(("a", "b"))
        cache.clear()
        assert len(cache) == 0
        assert cache.total_bytes == 0
        assert cache.get(("a", "b")) is not index

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            IndexCache(capacity=0)
        with pytest.raises(ValueError):
            IndexCache(max_bytes=0)

    def test_default_cache_is_process_wide(self):
        assert default_index_cache() is default_index_cache()


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
