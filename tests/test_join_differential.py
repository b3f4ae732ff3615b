"""The blocked joiner against the brute reference, on generated columns.

:class:`~repro.core.joiner.EditDistanceJoiner` defines Eq. 5; the
blocked :class:`~repro.index.joiner.IndexedJoiner` must return the same bytes
for every query mode, on the kernel backend the environment picks and
on the reference one, under every rejection rule (a drawn
``JoinConfig``).  Columns and probes come from ``join_strategies``:
astral, combining and lone-surrogate characters, empty values and empty
probes, duplicates, exact matches, and lengths either side of one 64-bit
word.  Columns run past the seed count, so candidates are verified in
bound order, not only seeded; small ones are blocked too, as in
production.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.join_config import JoinConfig
from repro.core.joiner import EditDistanceJoiner
from repro.index.cache import IndexCache
from repro.index.joiner import IndexedJoiner

from join_strategies import CHARS, FOREIGN, WIDE, strings


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


# Lengths either side of one and two 64-bit words (the bit-parallel
# kernel's block edges), each marked at one position, with near misses:
# more values than seeds, so the rest are verified in bound order.
_WORDS = "ab\u00e9 c\U0001f600" * 22
_ACROSS_WORDS = (
    [
        _WORDS[:i] + "z" + _WORDS[i + 1 : n]
        for n in (63, 64, 65, 127, 128, 129)
        for i in range(0, 9, 3)
    ],
    [_WORDS[:64] + "z", _WORDS[1:65], _WORDS[:127] + "\ud800", _WORDS[2:130], ""],
    JoinConfig(),
)
# More distinct characters than histogram bins, so the bag bound's bins
# fold: rotations and swaps that share every folded bin.
_FOLDED = (
    [WIDE[i:] + WIDE[:i] for i in range(0, 84, 12)]
    + [WIDE[:i] + WIDE[i + 1] + WIDE[i] + WIDE[i + 2 :] for i in range(0, 84, 12)],
    [WIDE[:-1] + "z", WIDE[::-1], WIDE[32:] + WIDE[:32], WIDE[:66], ""],
    JoinConfig(max_distance=30),
)
# A real alias column: the 23 abbreviations the ADS journals service
# lists for ApJ (SNIPPETS.md), probed with two of its own oddities, the
# full title, and a title no alias is near (rejected by the threshold).
_APJ_ALIASES = (
    [
        "ASTROPHYSICAL JOURNAL", "Ap. J.", "Ap. J. Lett.", "ApJ Letters",
        "ApJL", "Astrophy. J.", "Astrophys J", "Astrophys J Lett Ed",
        "Astrophys J.", "Astrophys. J", "Astrophys. J.", "Astrophys. J. :",
        "Astrophys. J. Let.", "Astrophys. J. Lett.", "Astrophys. J. Letters",
        "Astrophys. Journ.", "Astrophysic. J.", "Astrophysical J.",
        "Astrophysical J. US", "Astrophysical Jour.",
        "Astrophysical Journal Letters", "Astrosphys. J.", "J. Astrophys",
    ],
    [
        "Astrophys. J. :",
        "Astrosphys. J.",
        "The Astrophysical Journal",
        "Monthly Notices of the Royal Astronomical Society",
    ],
    JoinConfig(normalized_threshold=0.5),
)


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


# The pure-Python brute oracle is the slow part of both kernel arms:
# each case is scored once, and an arm that meets it again (every
# ``@example``) reads the stored answer.
_BRUTE: dict = {}


def _brute(targets, probes, config):
    key = (tuple(targets), tuple(probes), config)
    if key not in _BRUTE:
        _BRUTE[key] = _queries(EditDistanceJoiner(config), targets, probes)
    return _BRUTE[key]


class TestBlockedEqualsBrute:
    @pytest.fixture(scope="class")
    def reference_kernel(self):
        # The backend is resolved when the joiner is built, so the
        # environment only has to name it for the construction.
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
            joiner = IndexedJoiner(cache=IndexCache())
        assert joiner.kernel.name == "reference"
        return joiner

    @settings(max_examples=40, deadline=None)
    @given(case=_columns_and_probes())
    @example(case=_ACROSS_WORDS)
    @example(case=_FOLDED)
    @example(case=_APJ_ALIASES)
    def test_serial(self, case):
        targets, probes, config = case
        joiner = IndexedJoiner(config, cache=IndexCache())
        assert _queries(joiner, targets, probes) == _brute(*case)

    @settings(max_examples=40, deadline=None)
    @given(case=_columns_and_probes())
    @example(case=_ACROSS_WORDS)
    @example(case=_FOLDED)
    @example(case=_APJ_ALIASES)
    def test_reference_kernel(self, reference_kernel, case):
        targets, probes, config = case
        # Reassigning ``config`` reconfigures the joiner; the kernel stays.
        reference_kernel.config = config
        assert _queries(reference_kernel, targets, probes) == _brute(*case)

    def test_k_past_the_length_neighbours(self):
        # A short seed pool is topped up with the values nearest the
        # probe's length; at k = 200 that must still be k of them.
        targets = [
            ("ab" * 20)[: 3 + i % 37] + "xyz"[i % 3] * (i // 37) for i in range(300)
        ]
        probes = ["ba" * 6, "zzzz", "ab" * 15 + "q"]
        joiner = IndexedJoiner(cache=IndexCache())
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
        joiner = IndexedJoiner(cache=IndexCache())
        assert joiner.join_many([probe], targets) == [("abcdxy", 2)]
        assert joiner.topk_many([probe], targets, 2) == [
            [(2, 0, "abcdxy"), (2, 1, "bacdef")]
        ]
        assert _queries(joiner, targets, [probe]) == _queries(
            EditDistanceJoiner(), targets, [probe]
        )
