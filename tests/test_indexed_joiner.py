"""Equivalence harness: the blocked joiner must match brute force exactly.

``IndexedJoiner``, the one production joiner, at every column size,
must produce **identical** results to ``EditDistanceJoiner`` — same
matches, same distances, same earliest-row tie-breaks, same abstentions
under ``max_distance`` / ``normalized_threshold`` — on every registered
benchmark dataset and on randomized columns with duplicates and empty
strings.  Blocking is a performance choice only; any divergence here is
a correctness bug.
"""

from __future__ import annotations

import random

import pytest

from repro.core.join_config import JoinConfig
from repro.core.joiner import EditDistanceJoiner
from repro.datagen.benchmarks.registry import get_dataset
from repro.eval.experiments import TABLE1_DATASETS
from repro.exceptions import JoinError
from repro.index import cache as cache_module
from repro.index.cache import IndexCache
from repro.index.joiner import IndexedJoiner, JoinStats
from repro.index.qgram import QGramIndex, adaptive_q
from repro.types import Prediction

from fuzz import random_edits, random_unicode_string

#: Every registered benchmark: the Table 1 datasets, then JAB.
_DATASETS = (*TABLE1_DATASETS, "JAB")

_SEED = 987

_JOINER_VARIANTS = (
    JoinConfig(),
    JoinConfig(max_distance=2),
    JoinConfig(normalized_threshold=0.34),
)


def _force_gram_size(monkeypatch, q):
    """Build every index at gram size ``q`` (``None`` = adaptive).

    The gram size is not configuration: the cache derives it from the
    column.  The fuzz suites still cover fixed sizes, since the filters
    must stay complete at every ``q``.
    """
    pick = adaptive_q if q is None else (lambda _targets: q)
    monkeypatch.setattr(cache_module, "adaptive_q", pick)


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
    @pytest.mark.parametrize("name", _DATASETS)
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

    @pytest.mark.parametrize("name", _DATASETS)
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

    def test_batch_vs_scalar_fuzz(self, monkeypatch):
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
            _force_gram_size(monkeypatch, rng.choice((None, 2, 3)))
            indexed = IndexedJoiner(config, cache=IndexCache())
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
        for joiner in (EditDistanceJoiner(), IndexedJoiner()):
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
    def test_match_equivalence_fuzz(self, monkeypatch):
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
            _force_gram_size(monkeypatch, rng.choice((2, 3)))
            indexed = IndexedJoiner(config, cache=IndexCache())
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
        assert IndexedJoiner.match_many is EditDistanceJoiner.match_many

    def test_invalid_q(self):
        # The gram size is derived from the column, never configured.
        with pytest.raises(TypeError):
            JoinConfig(q=2)
        with pytest.raises(ValueError):
            QGramIndex(["a"], q=0)
        targets = ["x" * 25, "y" * 30, "z" * 22]
        index = IndexedJoiner(cache=IndexCache())._index_for(targets)
        assert index.q == adaptive_q(targets) == 3

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


class TestProductionJoiner:
    """The blocked engine runs at every column size, however small."""

    def test_match_and_join_many_equal_brute_on_small_and_large_columns(self):
        rng = random.Random(_SEED + 3)
        small = [random_unicode_string(rng, max_length=8) for _ in range(10)]
        large = [random_unicode_string(rng, max_length=8) for _ in range(80)]
        indexed = IndexedJoiner(cache=IndexCache())
        brute = EditDistanceJoiner()
        for targets in (small, large):
            probes = [
                random_edits(rng, rng.choice(targets), rng.randint(0, 2))
                for _ in range(10)
            ] + ["", targets[0]]
            assert indexed.join_many(probes, targets) == brute.join_many(
                probes, targets
            )
            for probe in probes:
                assert indexed.match(probe, targets) == brute.match(probe, targets)

    def test_small_columns_are_indexed_and_publish_stats(self):
        cache = IndexCache()
        joiner = IndexedJoiner(cache=cache)
        assert joiner.join_many(["a"], ["a", "b"]) == [("a", 0)]
        assert cache.misses == 1
        assert joiner.last_join_stats.probes == 1
        assert joiner.topk_many(["a"], ["a", "c"], 2) == [[(0, 0, "a"), (1, 1, "c")]]
        assert cache.misses == 2
        assert joiner.last_join_stats.unique_probes == 1

    def test_join_stats_shape(self):
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
        assert stats.shards == 0
        assert stats.cache_misses == 1
        assert stats.kernel_backend == joiner.kernel.name
        as_dict = stats.as_dict()
        assert as_dict["probes"] == 5
        assert as_dict["kernel_pairs"] == dict(stats.kernel_pairs)
        assert sum(as_dict["kernel_pairs"].values()) > 0

    def test_join_on_two_row_column(self):
        predictions = [Prediction(source="s", value="aaa")]
        results = IndexedJoiner().join(predictions, ["aaa", "bbb"], expected=["aaa"])
        assert results[0].matched == "aaa"
        assert results[0].correct

    def test_empty_column_raises(self):
        with pytest.raises(JoinError):
            IndexedJoiner().match("abc", [])

    def test_pipeline_default_joiner_is_indexed(self):
        from repro.core.pipeline import DTTPipeline
        from repro.surrogate.pretrained import PretrainedDTT

        assert type(DTTPipeline(PretrainedDTT(seed=0)).joiner) is IndexedJoiner
        brute = EditDistanceJoiner()
        assert DTTPipeline(PretrainedDTT(seed=0), joiner=brute).joiner is brute

    def test_pipeline_keeps_the_configured_joiner(self):
        from repro.core.pipeline import DTTPipeline
        from repro.surrogate.pretrained import PretrainedDTT

        joiner = IndexedJoiner(JoinConfig(max_distance=2))
        pipeline = DTTPipeline(PretrainedDTT(seed=0), joiner=joiner)
        assert pipeline.joiner is joiner
        assert pipeline.joiner.config.max_distance == 2

    def test_pipeline_rejects_a_strategy_string(self):
        from repro.core.pipeline import DTTPipeline
        from repro.surrogate.pretrained import PretrainedDTT

        for name in ("indexed", "brute", ""):
            with pytest.raises(TypeError, match="joiner"):
                DTTPipeline(PretrainedDTT(seed=0), joiner=name)


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
