"""Tests for the byte-level tokenizer and vocabulary."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TokenizationError
from repro.tokenizer.byte_tokenizer import ByteTokenizer
from repro.tokenizer.vocab import SpecialTokens, Vocabulary

printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=1000), max_size=40
)


class TestVocabulary:
    def test_size(self):
        vocab = Vocabulary()
        assert vocab.size == 5 + 256

    def test_special_ids_are_distinct(self):
        vocab = Vocabulary()
        ids = {
            vocab.pad_id,
            vocab.sos_id,
            vocab.eos_id,
            vocab.special_id("<tr>"),
            vocab.special_id("<eoe>"),
        }
        assert len(ids) == 5

    def test_byte_id_roundtrip(self):
        vocab = Vocabulary()
        for byte in (0, 65, 255):
            assert vocab.id_to_byte(vocab.byte_offset + byte) == byte

    def test_byte_id_out_of_range(self):
        vocab = Vocabulary()
        for token_id in (vocab.pad_id, vocab.size):
            with pytest.raises(TokenizationError):
                vocab.id_to_byte(token_id)

    def test_unknown_special(self):
        vocab = Vocabulary()
        with pytest.raises(TokenizationError):
            vocab.special_id("<bogus>")

    def test_duplicate_specials_rejected(self):
        with pytest.raises(TokenizationError):
            Vocabulary(SpecialTokens(pad="<x>", sos="<x>"))


class TestByteTokenizer:
    def test_encode_text_offsets_bytes(self, tokenizer):
        ids = tokenizer.encode_text("A")
        assert ids == [tokenizer.vocab.byte_offset + 65]

    def test_markup_becomes_single_ids(self, tokenizer):
        ids = tokenizer.encode("a<tr>b")
        assert ids[1] == tokenizer.vocab.special_id("<tr>")
        assert len(ids) == 3

    def test_add_sos_eos(self, tokenizer):
        ids = tokenizer.encode("x", add_sos=True, add_eos=True)
        assert ids[0] == tokenizer.vocab.sos_id
        assert ids[-1] == tokenizer.vocab.eos_id

    def test_decode_stops_at_eos_when_stripping(self, tokenizer):
        ids = tokenizer.encode("ab<eos>cd")
        assert tokenizer.decode(ids, strip_special=True) == "ab"

    def test_decode_preserves_markup(self, tokenizer):
        prompt = "<sos>a<tr>b<eoe>c<tr><eos>"
        ids = tokenizer.encode(prompt)
        assert tokenizer.decode(ids, strip_special=False) == prompt

    def test_decode_out_of_range_id(self, tokenizer):
        with pytest.raises(TokenizationError):
            tokenizer.decode([tokenizer.vocab.size])

    @given(printable)
    @settings(max_examples=150)
    def test_roundtrip_arbitrary_text(self, text):
        tokenizer = ByteTokenizer()
        ids = tokenizer.encode_text(text)
        assert tokenizer.decode(ids) == text

    @given(printable)
    @settings(max_examples=60)
    def test_multibyte_utf8_roundtrip(self, text):
        tokenizer = ByteTokenizer()
        decorated = f"é{text}→"
        assert tokenizer.decode(tokenizer.encode_text(decorated)) == decorated

    def test_pad_batch_shapes_and_mask(self, tokenizer):
        ids, mask = tokenizer.pad_batch([[1, 2, 3], [4]])
        assert ids.shape == (2, 3)
        assert mask.tolist() == [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]
        assert ids[1, 1] == tokenizer.vocab.pad_id

    def test_pad_batch_max_length_truncates(self, tokenizer):
        ids, mask = tokenizer.pad_batch([[1, 2, 3, 4]], max_length=2)
        assert ids.shape == (1, 2)
        assert mask.sum() == 2

    def test_pad_batch_empty_rejected(self, tokenizer):
        with pytest.raises(TokenizationError):
            tokenizer.pad_batch([])

    def test_pad_batch_dtype(self, tokenizer):
        ids, mask = tokenizer.pad_batch([[1]])
        assert ids.dtype == np.int64
        assert mask.dtype == np.float64
