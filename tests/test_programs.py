"""Tests for induced-program segments and program semantics."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.surrogate.programs import (
    CharSliceSegment,
    ConcatProgram,
    DelimiterPartSegment,
    IdentityProgram,
    LiteralSegment,
    PartSliceSegment,
    ReplaceProgram,
    ReverseProgram,
    SliceProgram,
    TokenPieceSegment,
    apply_case,
    tokens_of,
)

texts = st.text(alphabet="abcDE -_.12", max_size=16)


class TestHelpers:
    def test_tokens_of(self):
        assert tokens_of("Gerard H. Little-3") == ["Gerard", "H", "Little", "3"]

    def test_apply_case(self):
        assert apply_case("aB", "lower") == "ab"
        assert apply_case("aB", "upper") == "AB"
        assert apply_case("aB cd", "title") == "Ab Cd"
        assert apply_case("aB", "none") == "aB"


class TestWholeStringPrograms:
    def test_identity_with_case(self):
        assert IdentityProgram(case="lower").apply("AbC") == "abc"

    def test_replace(self):
        assert ReplaceProgram(old="/", new="-").apply("a/b") == "a-b"

    def test_reverse(self):
        assert ReverseProgram().apply("abc") == "cba"

    @given(texts)
    @settings(max_examples=40)
    def test_reverse_involution(self, text):
        program = ReverseProgram()
        assert program.apply(program.apply(text)) == text

    def test_slice_program_from_end_anchors(self):
        program = SliceProgram(
            start_offset=4,
            start_from_end=True,
            end_offset=None,
            end_from_end=False,
            case="none",
        )
        assert program.apply("abcdefgh") == "efgh"
        assert program.apply("12345") == "2345"

    def test_slice_program_truncates_like_python(self):
        program = SliceProgram(
            start_offset=4,
            start_from_end=False,
            end_offset=10,
            end_from_end=False,
            case="none",
        )
        assert program.apply("abcdef") == "ef"
        assert program.apply("ab") == ""


class TestSegments:
    def test_token_piece_prefix(self):
        segment = TokenPieceSegment(
            index=0, from_end=False, part="prefix", length=1, case="lower"
        )
        assert segment.apply("Justin Trudeau") == "j"

    def test_token_piece_from_end(self):
        segment = TokenPieceSegment(
            index=0, from_end=True, part="full", length=0, case="none"
        )
        assert segment.apply("Justin Trudeau") == "Trudeau"

    def test_token_piece_out_of_range_is_empty(self):
        segment = TokenPieceSegment(
            index=5, from_end=False, part="full", length=0, case="none"
        )
        assert segment.apply("one two") == ""

    def test_token_piece_suffix(self):
        segment = TokenPieceSegment(
            index=0, from_end=False, part="suffix", length=3, case="none"
        )
        assert segment.apply("Trudeau") == "eau"

    def test_char_slice_to_end(self):
        segment = CharSliceSegment(offset=2, from_end=False, length=None, case="upper")
        assert segment.apply("abcdef") == "CDEF"

    def test_char_slice_from_end(self):
        segment = CharSliceSegment(offset=3, from_end=True, length=3, case="none")
        assert segment.apply("abcdef") == "def"

    def test_delimiter_part(self):
        segment = DelimiterPartSegment(delimiter="-", index=1, from_end=False, case="none")
        assert segment.apply("a-b-c") == "b"

    def test_delimiter_part_missing_is_empty(self):
        segment = DelimiterPartSegment(delimiter="-", index=5, from_end=False, case="none")
        assert segment.apply("a-b") == ""

    def test_part_slice(self):
        segment = PartSliceSegment(
            delimiter=" ",
            index=1,
            from_end=False,
            start=0,
            start_from_end=False,
            length=4,
            case="lower",
        )
        assert segment.apply("Justin Trudeau") == "trud"

    def test_part_slice_to_end(self):
        segment = PartSliceSegment(
            delimiter=" ",
            index=0,
            from_end=False,
            start=2,
            start_from_end=False,
            length=None,
            case="none",
        )
        assert segment.apply("Justin Trudeau") == "stin"


class TestConcatProgram:
    def test_concatenation(self):
        program = ConcatProgram(
            segments=(
                TokenPieceSegment(0, False, "prefix", 1, "lower"),
                LiteralSegment("."),
                TokenPieceSegment(0, True, "full", 0, "lower"),
            )
        )
        assert program.apply("Jean Chretien") == "j.chretien"

    def test_literal_fraction(self):
        all_literal = ConcatProgram(segments=(LiteralSegment("abc"),))
        assert all_literal.literal_fraction == 1.0
        mixed = ConcatProgram(
            segments=(
                LiteralSegment("ab"),
                CharSliceSegment(0, False, 2, "none"),
            )
        )
        assert 0.0 < mixed.literal_fraction < 1.0

    def test_generality_orders_specs(self):
        token_based = ConcatProgram(
            segments=(TokenPieceSegment(0, False, "full", 0, "none"),)
        )
        literal_based = ConcatProgram(segments=(LiteralSegment("x"),))
        assert token_based.generality > literal_based.generality
