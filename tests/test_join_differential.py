"""The blocked joiner against the brute reference, on generated columns.

:class:`~repro.core.joiner.EditDistanceJoiner` defines Eq. 5; the
blocked :class:`~repro.index.joiner.IndexedJoiner` must return the same bytes
for every query mode, serially and sharded over two workers, under
every rejection rule (a drawn ``JoinConfig``).  Columns and probes come
from ``join_strategies``: astral, combining and lone-surrogate
characters, empty values and empty probes, duplicates, exact matches,
and lengths either side of one 64-bit word.  Columns run past the seed
count, so candidates are verified in bound order, not only seeded;
small ones are blocked too, as in production.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.join_config import JoinConfig
from repro.core.joiner import EditDistanceJoiner
from repro.index.cache import IndexCache
from repro.index.joiner import IndexedJoiner

from join_strategies import CHARS, FOREIGN, strings


@st.composite
def _columns_and_probes(draw):
    """``(targets, probes, config)``: duplicated rows, exact and empty
    probes, and the rejection thresholds both joiners run under."""
    values = draw(st.lists(strings(CHARS), min_size=1, max_size=24))
    targets = values + values[: draw(st.integers(0, 4))]
    probes = draw(st.lists(strings(CHARS + FOREIGN), max_size=5))
    probes += draw(st.lists(st.sampled_from(targets), max_size=2))
    config = JoinConfig(
        max_distance=draw(st.none() | st.integers(0, 3)),
        normalized_threshold=draw(st.none() | st.sampled_from((0.0, 0.1, 0.34, 0.5))),
    )
    return targets, [*probes, "", *probes[:1]], config


def _queries(joiner, targets, probes):
    distinct = len(set(targets))
    return {
        "match": [joiner.match(probe, targets) for probe in probes],
        "join_many": joiner.join_many(probes, targets),
        **{
            f"topk_many[k={k}]": joiner.topk_many(probes, targets, k)
            for k in (1, 2, 5, distinct + 3)
        },
        "topk_join_many": joiner.topk_join_many(probes, targets, k=3, margin=0.1),
        "reverse_many": joiner.reverse_many(probes, targets),
    }


class TestBlockedEqualsBrute:
    @pytest.fixture(scope="class")
    def sharded(self):
        with IndexedJoiner(JoinConfig(n_workers=2), cache=IndexCache()) as joiner:
            yield joiner

    @settings(max_examples=40, deadline=None)
    @given(case=_columns_and_probes())
    def test_serial(self, case):
        targets, probes, config = case
        joiner = IndexedJoiner(
            dataclasses.replace(config, n_workers=1), cache=IndexCache()
        )
        want = _queries(EditDistanceJoiner(config), targets, probes)
        assert _queries(joiner, targets, probes) == want

    @settings(max_examples=15, deadline=None)
    @given(case=_columns_and_probes())
    def test_two_workers(self, sharded, case):
        targets, probes, config = case
        # Reassigning ``config`` reconfigures the joiner; the pool stays.
        sharded.config = dataclasses.replace(config, n_workers=2)
        want = _queries(EditDistanceJoiner(config), targets, probes)
        assert _queries(sharded, targets, probes) == want

    def test_k_past_the_length_neighbours(self):
        # A short seed pool is topped up with the values nearest the
        # probe's length; at k = 200 that must still be k of them.
        targets = [
            ("ab" * 20)[: 3 + i % 37] + "xyz"[i % 3] * (i // 37) for i in range(300)
        ]
        probes = ["ba" * 6, "zzzz", "ab" * 15 + "q"]
        joiner = IndexedJoiner(JoinConfig(n_workers=1), cache=IndexCache())
        for k in (129, 200):
            assert joiner.topk_many(probes, targets, k) == (
                EditDistanceJoiner().topk_many(probes, targets, k)
            )

    def test_earliest_tie_with_the_larger_bound_is_not_dropped(self):
        # "abcdxy" (row 0) and "bacdef" (row 1) tie at distance 2 from
        # the probe, but only the later row is a permutation of it (bag
        # bound 0, against 2).  Ten more bound-0 permutations push row 0
        # out of the seeds, so it is verified only if the loop scores
        # candidates whose bound equals the cap: stopping at bound >= u
        # would return row 1.
        probe = "abcdef"
        permutations = [
            "abdcfe", "abdfce", "abdfec", "abecfd", "abedfc",
            "abefcd", "abefdc", "abfced", "abfdce", "abfecd",
        ]
        targets = ["abcdxy", "bacdef", *permutations]
        joiner = IndexedJoiner(JoinConfig(n_workers=1), cache=IndexCache())
        assert joiner.join_many([probe], targets) == [("abcdxy", 2)]
        assert joiner.topk_many([probe], targets, 2) == [
            [(2, 0, "abcdxy"), (2, 1, "bacdef")]
        ]
        assert _queries(joiner, targets, [probe]) == _queries(
            EditDistanceJoiner(), targets, [probe]
        )
