"""Tests for transformation units and the random composer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TransformError
from repro.transforms.composer import Transformation, TransformationComposer
from repro.transforms.units import (
    Literal,
    Lowercase,
    Replace,
    Reverse,
    Split,
    Stacked,
    Substring,
    Uppercase,
)

texts = st.text(alphabet="abcDEF -_.123", max_size=20)


class TestUnits:
    def test_substring(self):
        assert Substring(1, 3).apply("abcdef") == "bc"

    def test_substring_open_end(self):
        assert Substring(2, None).apply("abcdef") == "cdef"

    def test_substring_truncates(self):
        assert Substring(2, 99).apply("abc") == "c"

    def test_split_basic(self):
        assert Split("-", 1).apply("a-b-c") == "b"

    def test_split_negative_index(self):
        assert Split("-", -1).apply("a-b-c") == "c"

    def test_split_out_of_range_is_empty(self):
        assert Split("-", 5).apply("a-b") == ""

    def test_split_empty_delimiter_rejected(self):
        with pytest.raises(TransformError):
            Split("", 0)

    def test_case_units(self):
        assert Lowercase().apply("AbC") == "abc"
        assert Uppercase().apply("AbC") == "ABC"

    def test_literal_ignores_input(self):
        assert Literal("xyz").apply("whatever") == "xyz"

    def test_replace(self):
        assert Replace("/", "-").apply("a/b/c") == "a-b-c"

    def test_replace_multichar_old_rejected(self):
        with pytest.raises(TransformError):
            Replace("ab", "c")

    def test_reverse(self):
        assert Reverse().apply("Hello") == "olleH"

    def test_stacked_order(self):
        stacked = Stacked((Split(" ", 0), Uppercase()))
        assert stacked.apply("hello world") == "HELLO"

    def test_stacked_empty_rejected(self):
        with pytest.raises(TransformError):
            Stacked(())

    @given(texts)
    @settings(max_examples=60)
    def test_reverse_is_involution(self, text):
        unit = Reverse()
        assert unit.apply(unit.apply(text)) == text

    @given(texts)
    @settings(max_examples=60)
    def test_case_units_idempotent(self, text):
        lower = Lowercase()
        assert lower.apply(lower.apply(text)) == lower.apply(text)


class TestTransformation:
    def test_concatenates_unit_outputs(self):
        transformation = Transformation(
            units=(Substring(0, 2), Literal("-"), Uppercase())
        )
        assert transformation.apply("abc") == "ab-ABC"

    def test_describe_mentions_units(self):
        transformation = Transformation(units=(Lowercase(), Literal("x")))
        assert "lower" in transformation.describe()
        assert "lit" in transformation.describe()


class TestComposer:
    def test_unit_count_in_range(self):
        composer = TransformationComposer(min_units=3, max_units=6)
        rng = np.random.default_rng(0)
        for _ in range(50):
            transformation = composer.sample(rng)
            assert 3 <= len(transformation) <= 6

    def test_stack_depth_bounded(self):
        composer = TransformationComposer(max_stack_depth=3)
        rng = np.random.default_rng(1)
        for _ in range(50):
            for unit in composer.sample(rng).units:
                if isinstance(unit, Stacked):
                    assert unit.depth <= 3

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            TransformationComposer(min_units=0)
        with pytest.raises(ValueError):
            TransformationComposer(min_units=4, max_units=2)
        with pytest.raises(ValueError):
            TransformationComposer(max_stack_depth=0)

    def test_deterministic_under_seed(self):
        composer = TransformationComposer()
        a = composer.sample(np.random.default_rng(42)).describe()
        b = composer.sample(np.random.default_rng(42)).describe()
        assert a == b

    @given(texts)
    @settings(max_examples=40)
    def test_sampled_transformations_are_total(self, text):
        composer = TransformationComposer()
        rng = np.random.default_rng(7)
        for _ in range(5):
            result = composer.sample(rng).apply(text)
            assert isinstance(result, str)
