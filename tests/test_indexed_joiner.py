"""Equivalence harness: the blocked joiner must match brute force exactly.

``IndexedJoiner`` (and ``AutoJoiner`` on both sides of its threshold)
must produce **identical** results to ``EditDistanceJoiner`` — same
matches, same distances, same earliest-row tie-breaks, same abstentions
under ``max_distance`` / ``normalized_threshold`` — on every registered
benchmark dataset and on randomized columns with duplicates and empty
strings.  Blocking is a performance choice only; any divergence here is
a correctness bug.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from repro.utils.fuzz import random_edits, random_unicode_string

from repro.core.join_config import JoinConfig
from repro.core.joiner import EditDistanceJoiner
from repro.datagen.benchmarks.registry import dataset_names, get_dataset
from repro.exceptions import JoinError
from repro.index import AutoJoiner, IndexCache, IndexedJoiner, make_joiner
from repro.index.qgram import QGramIndex
from repro.types import Prediction

_SEED = 987

_JOINER_VARIANTS = (
    JoinConfig(),
    JoinConfig(max_distance=2),
    JoinConfig(normalized_threshold=0.34),
)


def _predictions_for(targets, rng):
    """Simulated pipeline output: exact, near, far, and abstained rows."""
    predictions = []
    for i, target in enumerate(targets):
        roll = rng.random()
        if roll < 0.35:
            value = target
        elif roll < 0.75:
            value = random_edits(rng, target, rng.randint(1, 3))
        elif roll < 0.9:
            value = random_unicode_string(rng, max_length=12)
        else:
            value = ""  # abstention (footnote 2)
        predictions.append(Prediction(source=f"s{i}", value=value))
    return predictions


class TestRegistryDatasetEquivalence:
    @pytest.mark.parametrize("name", dataset_names())
    def test_join_results_identical_on_dataset(self, name):
        rng = random.Random(_SEED)
        tables = get_dataset(name, seed=0, scale=0.05)
        for config in _JOINER_VARIANTS:
            brute = EditDistanceJoiner(config)
            indexed = IndexedJoiner(config)
            for table in tables:
                targets = list(table.targets)
                predictions = _predictions_for(targets, rng)
                expected_rows = list(table.targets)
                assert indexed.join(
                    predictions, targets, expected_rows
                ) == brute.join(predictions, targets, expected_rows), (
                    name,
                    table.name,
                    config,
                )


class TestJoinManyEquivalence:
    """The batch API must be byte-identical to per-probe match loops."""

    @pytest.mark.parametrize("name", dataset_names())
    def test_batch_vs_scalar_on_dataset(self, name):
        rng = random.Random(_SEED + 10)
        tables = get_dataset(name, seed=0, scale=0.05)
        for config in _JOINER_VARIANTS:
            indexed = IndexedJoiner(config)
            brute = EditDistanceJoiner(config)
            for table in tables:
                targets = list(table.targets)
                probes = [p.value for p in _predictions_for(targets, rng)]
                batch = indexed.join_many(probes, targets)
                assert batch == [
                    indexed.match(p, targets) for p in probes
                ], (name, table.name, config)
                assert batch == brute.join_many(probes, targets), (
                    name,
                    table.name,
                    config,
                )

    def test_batch_vs_scalar_fuzz(self):
        rng = random.Random(_SEED + 11)
        for _ in range(60):
            targets = [
                random_unicode_string(rng, max_length=12)
                for _ in range(rng.randint(1, 35))
            ]
            targets += [rng.choice(targets) for _ in range(rng.randint(0, 5))]
            targets += [""] * rng.randint(0, 2)
            rng.shuffle(targets)
            config = rng.choice(_JOINER_VARIANTS)
            indexed = IndexedJoiner(replace(config, q=rng.choice((None, 2, 3))))
            probes = [
                rng.choice(
                    (
                        random_unicode_string(rng),
                        random_edits(rng, rng.choice(targets), rng.randint(0, 3)),
                        rng.choice(targets),
                        "",
                    )
                )
                for _ in range(rng.randint(0, 10))
            ]
            assert indexed.join_many(probes, targets) == [
                indexed.match(p, targets) for p in probes
            ], (probes, targets, config)

    def test_duplicate_probes_resolved_once_with_identical_results(self):
        targets = ["alpha", "beta", "gamma", "beta"]
        probes = ["betaa", "betaa", "alpha", "betaa", "", ""]
        indexed = IndexedJoiner()
        assert indexed.join_many(probes, targets) == [
            indexed.match(p, targets) for p in probes
        ]

    def test_empty_probe_column(self):
        assert IndexedJoiner().join_many([], ["a", "b"]) == []
        # The brute reference loop never touches targets when there are
        # no probes; the batch API mirrors that.
        assert IndexedJoiner().join_many([], []) == []
        assert EditDistanceJoiner().join_many([], []) == []

    def test_empty_targets_with_probes_raise(self):
        with pytest.raises(JoinError):
            IndexedJoiner().join_many(["a"], [])
        with pytest.raises(JoinError):
            EditDistanceJoiner().join_many(["a"], [])

    def test_join_routes_through_join_many(self):
        targets = ["aaa", "bbb", "ccc"]
        predictions = [
            Prediction(source="s0", value="aab"),
            Prediction(source="s1", value=""),
            Prediction(source="s2", value="ccc"),
        ]
        for joiner in (EditDistanceJoiner(), IndexedJoiner(), AutoJoiner()):
            results = joiner.join(predictions, targets, ["aaa", "bbb", "ccc"])
            assert [(r.matched, r.distance) for r in results] == [
                ("aaa", 1),
                (None, 0),
                ("ccc", 0),
            ]

    def test_threshold_abstentions_match_scalar(self):
        targets = ["aaaa", "bbbb", "cccc"]
        probes = ["aaab", "zzzz", "bbbb"]
        for config in (
            JoinConfig(max_distance=1),
            JoinConfig(normalized_threshold=0.1),
        ):
            indexed = IndexedJoiner(config)
            brute = EditDistanceJoiner(config)
            assert indexed.join_many(probes, targets) == brute.join_many(
                probes, targets
            )


class TestRandomizedEquivalence:
    def test_match_equivalence_fuzz(self):
        rng = random.Random(_SEED + 1)
        for _ in range(120):
            targets = [
                random_unicode_string(rng, max_length=12)
                for _ in range(rng.randint(1, 35))
            ]
            targets += [rng.choice(targets) for _ in range(rng.randint(0, 5))]
            targets += [""] * rng.randint(0, 2)
            rng.shuffle(targets)
            config = rng.choice(_JOINER_VARIANTS)
            brute = EditDistanceJoiner(config)
            indexed = IndexedJoiner(replace(config, q=rng.choice((2, 3))))
            for _ in range(4):
                predicted = rng.choice(
                    (
                        random_unicode_string(rng),
                        random_edits(rng, rng.choice(targets), rng.randint(0, 3)),
                        rng.choice(targets),
                        "",
                    )
                )
                assert indexed.match(predicted, targets) == brute.match(
                    predicted, targets
                ), (predicted, targets, config)


class TestIndexedJoinerContract:
    def test_empty_target_column_rejected(self):
        with pytest.raises(JoinError):
            IndexedJoiner().match("abc", [])
        with pytest.raises(JoinError):
            IndexedJoiner().match_many("abc", [])

    def test_empty_prediction(self):
        assert IndexedJoiner().match("", ["a"]) == (None, 0)
        assert IndexedJoiner().match_many("", ["a"], 0, 3) == []

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            IndexedJoiner().match_many("a", ["b"], lower=2, upper=1)
        # The bounded many-to-many query is not blocked: every joiner
        # answers it, at any column size, by the brute scan itself.
        assert (
            IndexedJoiner.match_many
            is AutoJoiner.match_many
            is EditDistanceJoiner.match_many
        )

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            IndexedJoiner(JoinConfig(q=0))

    def test_tie_prefers_earliest_target_row(self):
        # "bx" and "cx" are both distance 1 from "x"; row order decides.
        assert IndexedJoiner().match("x", ["zzz", "bx", "cx"]) == ("bx", 1)

    def test_index_cached_by_column_content(self):
        joiner = IndexedJoiner(cache=IndexCache())
        targets = ["alpha", "beta", "gamma"]
        first = joiner._index_for(targets)
        assert joiner._index_for(targets) is first
        assert isinstance(first, QGramIndex)
        # Content-keyed: an equal column hits the same cached index no
        # matter which sequence object carries it.
        assert joiner._index_for(list(targets)) is first
        assert joiner._index_for(tuple(targets)) is first
        # A different column misses.
        assert joiner._index_for(["alpha", "beta"]) is not first

    def test_index_shared_across_joiners_via_default_cache(self):
        cache = IndexCache()
        a = IndexedJoiner(cache=cache)
        b = IndexedJoiner(cache=cache)
        targets = ("alpha", "beta", "gamma")
        assert a._index_for(targets) is b._index_for(targets)

    def test_same_length_in_place_edit_invalidates_cache(self):
        # Regression for the staleness hole of the old identity+length
        # guard: overwriting a cell with a same-length value went
        # undetected and served results from the stale index.
        joiner = IndexedJoiner(cache=IndexCache())
        targets = ["aaa", "bbb", "ccc"]
        assert joiner.match("bbb", targets) == ("bbb", 0)
        targets[1] = "zzz"  # same length, in place
        assert joiner.match("zzz", targets) == ("zzz", 0)
        assert joiner.match("bbb", targets) == EditDistanceJoiner().match(
            "bbb", targets
        )

    def test_lone_surrogates_equivalent_to_brute(self):
        # Regression: utf-32 encoding raises on lone surrogates; the
        # blocked engine must match the brute scan, not crash.
        targets = ["alpha", "alp\ud800ha", "beta", "alpha0"]
        brute = EditDistanceJoiner()
        indexed = IndexedJoiner()
        for probe in ("alph\ud800a", "alpha", "\udc80"):
            assert indexed.match(probe, targets) == brute.match(probe, targets)

    def test_in_place_append_invalidates_cache(self):
        joiner = IndexedJoiner()
        targets = ["aaa", "bbb"]
        assert joiner.match("aaa", targets) == ("aaa", 0)
        targets.append("zzz")
        # The length guard detects the mutation and rebuilds the index.
        assert joiner.match("zzz", targets) == ("zzz", 0)


class TestAutoJoiner:
    def test_delegates_agree_on_both_sides_of_threshold(self):
        rng = random.Random(_SEED + 3)
        small = [random_unicode_string(rng, max_length=8) for _ in range(10)]
        large = [random_unicode_string(rng, max_length=8) for _ in range(80)]
        auto = AutoJoiner(JoinConfig(auto_threshold=50))
        brute = EditDistanceJoiner()
        for targets in (small, large):
            for _ in range(10):
                predicted = random_edits(rng, rng.choice(targets), rng.randint(0, 2))
                assert auto.match(predicted, targets) == brute.match(
                    predicted, targets
                )

    def test_picks_indexed_at_threshold(self):
        # Below the threshold nothing is indexed and no stats exist; at
        # the threshold the blocked engine runs and publishes stats.
        cache = IndexCache()
        auto = AutoJoiner(JoinConfig(auto_threshold=3), cache=cache)
        assert auto.join_many(["a"], ["a", "b"]) == [("a", 0)]
        assert cache.misses == 0
        assert auto.last_join_stats is None
        assert auto.join_many(["a"], ["a", "b", "c"]) == [("a", 0)]
        assert cache.misses == 1
        assert auto.last_join_stats.probes == 1
        # Back below: the previous call's stats must not linger.
        auto.topk_many(["a"], ["a", "b"], 2)
        assert cache.misses == 1
        assert auto.last_join_stats is None

    def test_default_switchover_boundary_at_256(self):
        cache = IndexCache()
        auto = AutoJoiner(cache=cache)
        assert auto.threshold == JoinConfig().auto_threshold == 256
        rng = random.Random(_SEED + 20)
        below = [f"v{i:03d}" for i in range(255)]
        exactly = [f"v{i:03d}" for i in range(256)]
        auto.join_many(["v001"], below)
        assert cache.misses == 0 and auto.last_join_stats is None
        auto.join_many(["v001"], exactly)
        assert cache.misses == 1 and auto.last_join_stats is not None
        # Crossing the boundary never changes results: match and batch
        # queries agree with brute on both sides.
        brute = EditDistanceJoiner()
        for targets in (below, exactly):
            probes = [
                random_edits(rng, rng.choice(targets), rng.randint(0, 2))
                for _ in range(6)
            ] + ["", targets[0]]
            assert auto.join_many(probes, targets) == brute.join_many(
                probes, targets
            )
            for probe in probes:
                assert auto.match(probe, targets) == brute.match(probe, targets)

    def test_join_inherited_path(self):
        auto = AutoJoiner(JoinConfig(auto_threshold=2))
        predictions = [Prediction(source="s", value="aaa")]
        results = auto.join(predictions, ["aaa", "bbb"], expected=["aaa"])
        assert results[0].matched == "aaa"
        assert results[0].correct

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            AutoJoiner(JoinConfig(auto_threshold=-1))

    def test_empty_targets_raise_via_delegate(self):
        with pytest.raises(JoinError):
            AutoJoiner().match("abc", [])


class TestMakeJoiner:
    def test_strategy_mapping(self):
        assert type(make_joiner("brute")) is EditDistanceJoiner
        assert type(make_joiner("indexed")) is IndexedJoiner
        assert type(make_joiner("auto")) is AutoJoiner

    def test_parameters_forwarded(self):
        joiner = make_joiner("indexed", JoinConfig(max_distance=3, q=3))
        assert joiner.max_distance == 3
        assert joiner.q == 3
        auto = make_joiner(
            "auto", JoinConfig(auto_threshold=7, normalized_threshold=0.5)
        )
        assert auto.threshold == 7
        assert auto.normalized_threshold == 0.5
        assert make_joiner("indexed", JoinConfig(auto_threshold=7)).threshold == 0

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            make_joiner("fuzzy")
        with pytest.raises(ValueError):
            make_joiner("")

    def test_pipeline_rejects_empty_strategy_string(self):
        from repro.core.pipeline import DTTPipeline
        from repro.surrogate import PretrainedDTT

        with pytest.raises(ValueError):
            DTTPipeline(PretrainedDTT(seed=0), joiner="")


class TestOutlierColumns:
    def test_long_outlier_cell_stays_equivalent(self, monkeypatch):
        # A single pathological cell must not force the whole column to
        # its width: past the budget the index skips the dense matrix
        # and encodes candidate batches on demand, with identical
        # results.  Shrink the budget so the fallback path runs.
        monkeypatch.setattr(QGramIndex, "_DENSE_BUDGET", 64)
        targets = ["q" * 500] + [f"val{i}" for i in range(40)]
        index = QGramIndex(targets, q=2)
        assert index._codes is None
        indexed = IndexedJoiner()
        brute = EditDistanceJoiner()
        for probe in ("val7", "q" * 499, "valxx", ""):
            assert indexed.match(probe, targets) == brute.match(probe, targets)
