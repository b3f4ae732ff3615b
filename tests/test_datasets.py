"""Tests for the benchmark dataset generators and noise injection."""

from __future__ import annotations

import pytest

from repro.datagen.benchmarks.kbwt import build_kbwt
from repro.datagen.benchmarks.noise import inject_example_noise
from repro.datagen.benchmarks.registry import get_dataset
from repro.datagen.benchmarks.spreadsheet import TASKS, build_spreadsheet
from repro.datagen.benchmarks.synthetic import (
    build_syn,
    build_syn_rp,
    build_syn_rv,
    build_syn_st,
)
from repro.datagen.benchmarks.webtables import TOPICS, build_webtables
from repro.datagen.random_text import RandomTextSampler
from repro.exceptions import DatasetError
from repro.types import ExamplePair
from repro.utils.rng import derive_rng


class TestRegistry:
    def test_names(self):
        # The registry knows the Table 1 datasets and JAB, in that order.
        with pytest.raises(
            DatasetError, match="known: WT, SS, KBWT, Syn, Syn-RP, Syn-ST, Syn-RV, JAB$"
        ):
            get_dataset("nope")

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            get_dataset("nope")

    def test_invalid_scale(self):
        with pytest.raises(DatasetError):
            get_dataset("WT", scale=0.0)
        with pytest.raises(DatasetError):
            get_dataset("WT", scale=1.5)

    def test_scale_reduces_size(self):
        full = get_dataset("SS", seed=1, scale=1.0)
        small = get_dataset("SS", seed=1, scale=0.1)
        assert len(small) < len(full)

    def test_deterministic(self):
        a = get_dataset("Syn-RP", seed=3, scale=0.5)
        b = get_dataset("Syn-RP", seed=3, scale=0.5)
        assert [t.sources for t in a] == [t.sources for t in b]

    @pytest.mark.parametrize(
        "name",
        ["WT", "SS", "KBWT", "Syn", "Syn-RP", "Syn-ST", "Syn-RV", "JAB"],
    )
    def test_tables_are_wellformed(self, name):
        for table in get_dataset(name, seed=5, scale=0.15):
            assert len(table) >= 10
            assert len(table.sources) == len(table.targets)
            assert table.dataset == name
            assert all(isinstance(s, str) and s for s in table.sources)


class TestRandomTextSampler:
    def test_length_range(self):
        sampler = RandomTextSampler(min_length=5, max_length=9)
        rng = derive_rng(0, "t")
        for _ in range(100):
            assert 5 <= len(sampler.sample(rng)) <= 9

    def test_no_leading_or_trailing_separators(self):
        sampler = RandomTextSampler(separator_rate=0.5)
        rng = derive_rng(1, "t")
        for _ in range(50):
            text = sampler.sample(rng)
            assert text[0] not in " -_./,:;"
            assert text[-1] not in " -_./,:;"

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RandomTextSampler(min_length=0)
        with pytest.raises(ValueError):
            RandomTextSampler(separator_rate=1.0)
        with pytest.raises(ValueError):
            RandomTextSampler().sample_many(derive_rng(0), -1)


class TestSyntheticDatasets:
    def test_syn_transformation_is_consistent(self):
        # Every row of a Syn table is generated by the same hidden
        # transformation (no noise).
        from repro.transforms.composer import Transformation  # noqa: F401

        tables = build_syn(seed=2, n_tables=2, rows=30)
        for table in tables:
            assert "transformation" in table.metadata

    def test_syn_rp_replaces_single_character(self):
        for table in build_syn_rp(seed=4, n_tables=2, rows=20):
            meta = table.metadata["replace"]
            for source, target in zip(table.sources, table.targets):
                assert len(source) == len(target) or meta  # replacement is 1:1 here
                assert source != target

    def test_syn_st_targets_are_substrings(self):
        for table in build_syn_st(seed=4, n_tables=2, rows=20):
            for source, target in zip(table.sources, table.targets):
                assert target in source

    def test_syn_rv_targets_are_reversals(self):
        for table in build_syn_rv(seed=4, n_tables=2, rows=20):
            for source, target in zip(table.sources, table.targets):
                assert target == source[::-1]

    def test_row_uniqueness(self):
        for table in build_syn(seed=6, n_tables=1, rows=40):
            assert len(set(table.sources)) == len(table.sources)


class TestWebTables:
    def test_topic_count_is_17(self):
        assert len(TOPICS) == 17

    def test_tables_cycle_topics(self):
        tables = build_webtables(seed=0, n_tables=20, rows=15)
        topics = [t.topic for t in tables]
        assert len(set(topics)) >= 17 or len(set(topics)) == len(TOPICS)

    def test_email_domain_constant_per_table(self):
        tables = [
            t
            for t in build_webtables(seed=3, n_tables=17, rows=20)
            if t.topic == "email"
        ]
        assert tables
        for table in tables:
            domains = {t.split("@")[-1] for t in table.targets if "@" in t}
            assert len(domains) == 1

    def test_noise_rates_respected(self):
        clean = build_webtables(
            seed=1, n_tables=3, rows=40, typo_rate=0.0, untransformable_rate=0.0
        )
        noisy = build_webtables(
            seed=1, n_tables=3, rows=40, typo_rate=0.3, untransformable_rate=0.0
        )
        differences = sum(
            1
            for tc, tn in zip(clean, noisy)
            for a, b in zip(tc.targets, tn.targets)
            if a != b
        )
        assert differences > 0


class TestSpreadsheet:
    def test_task_count_is_12(self):
        assert len(TASKS) == 12

    def test_low_noise_by_default(self):
        tables = build_spreadsheet(seed=2, n_tables=12, rows=20)
        assert len(tables) == 12

    def test_title_case_task_shape(self):
        tables = [
            t
            for t in build_spreadsheet(seed=2, n_tables=12, rows=20, typo_rate=0.0)
            if t.topic == "title-case"
        ]
        for table in tables:
            for source, target in zip(table.sources, table.targets):
                assert source == target.lower()


class TestKBWT:
    def test_tables_use_kb_relations(self):
        tables = build_kbwt(seed=0, n_tables=12, rows=20)
        topics = {t.topic for t in tables}
        assert "country_to_capital" in topics
        assert "isbn_to_author" in topics

    def test_parametric_flag_in_metadata(self):
        tables = build_kbwt(seed=0, n_tables=12, rows=20)
        for table in tables:
            if table.topic in ("isbn_to_author", "city_to_zip"):
                assert table.metadata["parametric"]

    def test_rows_capped_by_relation_size(self):
        tables = build_kbwt(seed=0, n_tables=12, rows=9999)
        for table in tables:
            assert len(table) <= 150


class TestNoiseInjection:
    def _pool(self, n: int = 20) -> list[ExamplePair]:
        return [ExamplePair(f"s{i}", f"t{i}") for i in range(n)]

    def test_zero_ratio_is_identity(self):
        pool = self._pool()
        assert inject_example_noise(pool, 0.0) == pool

    def test_ratio_controls_corruption_count(self):
        pool = self._pool(20)
        noisy = inject_example_noise(pool, 0.4, seed=1)
        changed = sum(1 for a, b in zip(pool, noisy) if a != b)
        assert changed == 8

    def test_sources_never_change(self):
        pool = self._pool()
        noisy = inject_example_noise(pool, 0.8, seed=2)
        assert [p.source for p in pool] == [p.source for p in noisy]

    def test_deterministic(self):
        pool = self._pool()
        assert inject_example_noise(pool, 0.5, seed=3) == inject_example_noise(
            pool, 0.5, seed=3
        )

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            inject_example_noise(self._pool(), 1.5)
