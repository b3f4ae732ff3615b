"""String algorithms: edit distance, alignment, and similarity functions.

These are the substrate for the joiner (Eq. 5), the evaluation metrics
(AED/ANED, §5.4), the CST baseline's common-substring search, and the
AFJ/Ditto similarity features.
"""

from repro.text.edit_distance import (
    edit_distance,
    edit_distance_capped,
    edit_distances,
    normalized_edit_distance,
)
from repro.text.alignment import (
    common_substrings,
    longest_common_subsequence,
    longest_common_substring,
)
from repro.text.similarity import (
    char_ngrams,
    cosine_ngram_similarity,
    jaccard_similarity,
    jaro_winkler_similarity,
    token_jaccard,
)

__all__ = [
    "edit_distance",
    "edit_distance_capped",
    "edit_distances",
    "normalized_edit_distance",
    "common_substrings",
    "longest_common_subsequence",
    "longest_common_substring",
    "char_ngrams",
    "cosine_ngram_similarity",
    "jaccard_similarity",
    "jaro_winkler_similarity",
    "token_jaccard",
]
