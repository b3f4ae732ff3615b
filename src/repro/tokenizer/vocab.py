"""Vocabulary for the byte-level tokenizer.

Layout mirrors ByT5: ids ``0..n_special-1`` are special tokens and ids
``n_special..n_special+255`` are raw byte values, so the total vocabulary
is ``n_special + 256`` entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import TokenizationError


@dataclass(frozen=True)
class SpecialTokens:
    """The special tokens of the DTT serialization (paper §4.1).

    Attributes:
        pad: Padding token for batching.
        sos: Start-of-sequence marker.
        eos: End-of-sequence marker.
        tr: Separator between a source and its target within an example.
        eoe: Separator between two examples.
    """

    pad: str = "<pad>"
    sos: str = "<sos>"
    eos: str = "<eos>"
    tr: str = "<tr>"
    eoe: str = "<eoe>"

    def as_tuple(self) -> tuple[str, ...]:
        """Return all special tokens in id order (pad first)."""
        return (self.pad, self.sos, self.eos, self.tr, self.eoe)


class Vocabulary:
    """Maps special tokens and raw bytes to integer ids and back."""

    def __init__(self, special: SpecialTokens | None = None) -> None:
        self.special = special or SpecialTokens()
        self._specials = self.special.as_tuple()
        self._special_ids = {tok: i for i, tok in enumerate(self._specials)}
        if len(self._special_ids) != len(self._specials):
            raise TokenizationError("special tokens must be distinct")
        self.byte_offset = len(self._specials)
        self.size = self.byte_offset + 256

    @property
    def pad_id(self) -> int:
        return self._special_ids[self.special.pad]

    @property
    def sos_id(self) -> int:
        return self._special_ids[self.special.sos]

    @property
    def eos_id(self) -> int:
        return self._special_ids[self.special.eos]

    def special_id(self, token: str) -> int:
        """Return the id of a special token, raising on unknown tokens."""
        try:
            return self._special_ids[token]
        except KeyError:
            raise TokenizationError(f"unknown special token: {token!r}") from None

    def is_special(self, token_id: int) -> bool:
        """True when ``token_id`` denotes a special token."""
        return 0 <= token_id < self.byte_offset

    def id_to_byte(self, token_id: int) -> int:
        """Return the raw byte for a byte token id."""
        if not self.byte_offset <= token_id < self.size:
            raise TokenizationError(f"id {token_id} is not a byte token")
        return token_id - self.byte_offset

    def id_to_token(self, token_id: int) -> str:
        """Human-readable rendering of any token id (for debugging)."""
        if self.is_special(token_id):
            return self._specials[token_id]
        return chr(self.id_to_byte(token_id))
