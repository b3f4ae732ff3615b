"""Hypothesis strategies for join inputs that could break a histogram or a rank.

Shared by the bag-bound property tests and the join differential test.
The alphabet carries what unicode handling gets wrong: astral
characters, combining marks and lone surrogates; strings are empty,
short, or 60-70 characters (either side of one 64-bit word).
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.index.qgram import HISTOGRAM_BINS

# ASCII, a precomposed and two combining marks, two astral characters
# and both halves of a surrogate pair, each alone.
CHARS = (
    "a", "b", "c", " ", "\u00e9", "\u0301", "\u0308",
    "\U0001f600", "\U00010348", "\ud800", "\udfff",
)
# Only probes draw these: characters the column never uses.
FOREIGN = ("z", "\u4e00", "\U0001f680")
# More distinct characters than bins, so ids fold.
WIDE = "".join(chr(0x0400 + i) for i in range(HISTOGRAM_BINS + 20))


def strings(chars):
    """Empty, short, or 60-70 characters (either side of one word)."""
    letters = st.sampled_from(chars)
    return st.one_of(
        st.lists(letters, max_size=8), st.lists(letters, min_size=60, max_size=70)
    ).map("".join)
