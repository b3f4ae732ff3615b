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

from repro.index import (
    IndexCache,
    QGramIndex,
    adaptive_q,
    column_fingerprint,
    default_index_cache,
)


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
