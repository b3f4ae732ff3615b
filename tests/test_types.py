"""Tests for the core data types."""

from __future__ import annotations

import pytest

from repro.types import ExamplePair, JoinResult, Prediction, TablePair


class TestExamplePair:
    def test_as_tuple(self):
        assert ExamplePair("a", "b").as_tuple() == ("a", "b")

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ExamplePair("a", "b").source = "c"  # type: ignore[misc]

    def test_equality(self):
        assert ExamplePair("a", "b") == ExamplePair("a", "b")
        assert ExamplePair("a", "b") != ExamplePair("a", "c")


class TestTablePair:
    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            TablePair(name="t", sources=("a", "b"), targets=("x",))

    def test_len_and_rows(self):
        table = TablePair(name="t", sources=("a", "b"), targets=("x", "y"))
        assert len(table) == 2
        assert list(table.rows()) == [ExamplePair("a", "x"), ExamplePair("b", "y")]

    def test_split_halves(self):
        table = TablePair(
            name="t",
            sources=tuple(f"s{i}" for i in range(10)),
            targets=tuple(f"t{i}" for i in range(10)),
        )
        pool, test = table.split(0.5)
        assert len(pool) == 5
        assert len(test) == 5
        assert pool[0] == ExamplePair("s0", "t0")
        assert test[0] == ExamplePair("s5", "t5")

    def test_split_never_empties_test_set(self):
        table = TablePair(name="t", sources=("a", "b"), targets=("x", "y"))
        pool, test = table.split(0.99)
        assert pool and test

    def test_split_invalid_fraction(self):
        table = TablePair(name="t", sources=("a",), targets=("x",))
        with pytest.raises(ValueError):
            table.split(0.0)
        with pytest.raises(ValueError):
            table.split(1.0)


class TestPrediction:
    def test_consistency(self):
        pred = Prediction(source="s", value="v", candidates=("v", "v", "x"), votes=2)
        assert pred.consistency == pytest.approx(2 / 3)

    def test_consistency_empty_candidates(self):
        assert Prediction(source="s", value="v").consistency == 0.0


class TestJoinResult:
    def test_correct_requires_match_equal_expected(self):
        assert JoinResult("s", "p", matched="t", expected="t").correct
        assert not JoinResult("s", "p", matched="u", expected="t").correct
        assert not JoinResult("s", "p", matched=None, expected="t").correct
