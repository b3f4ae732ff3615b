"""Levenshtein edit distance.

The joiner (paper Eq. 5) computes ``argmin_t edit_dist(f(s), t)`` over a
whole target column, so the inner loop matters.  We provide:

* :func:`edit_distance` — exact distance with a two-row numpy DP.
* :func:`edit_distance_capped` — early-exit variant that returns
  ``cap + 1`` as soon as the distance provably exceeds ``cap``; used by
  the joiner to prune candidates against the best distance so far.
* :func:`normalized_edit_distance` — distance divided by the target
  length, the paper's ANED normalization (§5.4).
"""

from __future__ import annotations

import numpy as np


def codepoints(text: str) -> np.ndarray:
    """Code points of ``text`` as uint32, tolerating lone surrogates.

    Lone surrogates (e.g. ``surrogateescape`` decoding artifacts) are
    valid length-1 characters for edit-distance purposes but cannot be
    UTF-32-encoded, hence the ``ord`` fallback off the fast path.
    Shared by the scalar DPs here and the batched kernel in
    :mod:`repro.index.kernel` so the two paths cannot drift.
    """
    try:
        return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    except UnicodeEncodeError:
        return np.fromiter(map(ord, text), dtype=np.uint32, count=len(text))


def edit_distance(a: str, b: str) -> int:
    """Return the Levenshtein distance between ``a`` and ``b``.

    Uses unit costs for insertion, deletion, and substitution.
    """
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Ensure b is the shorter string so the DP rows are small.
    if len(b) > len(a):
        a, b = b, a
    b_codes = codepoints(b)
    # Reduced space ``E[i][j] = D[i][j] - j`` (the form the batched
    # kernel in :mod:`repro.index.kernel` sweeps): row 0 is all zeros
    # and the row-serial insertion recurrence ``D[i][j] = min(D'[i][j],
    # D[i][j-1] + 1)`` collapses to a plain prefix-min.
    previous = np.zeros(len(b) + 1, dtype=np.int64)
    current = np.empty_like(previous)
    for i, ch in enumerate(a, start=1):
        current[0] = i
        substitution = previous[:-1] + (b_codes != ord(ch)) - 1
        deletion = previous[1:] + 1
        np.minimum(substitution, deletion, out=current[1:])
        np.minimum.accumulate(current, out=current)
        previous, current = current, previous
    return int(previous[-1]) + len(b)


def edit_distance_capped(a: str, b: str, cap: int) -> int:
    """Return the edit distance, or any value ``> cap`` once it exceeds ``cap``.

    A banded DP: cells farther than ``cap`` off the diagonal can never be
    part of a path with distance ``<= cap``, so only a band of width
    ``2*cap + 1`` is evaluated.  When the true distance exceeds ``cap``
    the function returns ``cap + 1``.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if a == b:
        return 0
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(b) > len(a):
        a, b = b, a
    size_b = len(b)
    big = cap + 1
    previous = [min(j, big) for j in range(size_b + 1)]
    for i, ch_a in enumerate(a, start=1):
        current = [min(i, big)] + [big] * size_b
        low = max(1, i - cap)
        high = min(size_b, i + cap)
        for j in range(low, high + 1):
            cost = 0 if ch_a == b[j - 1] else 1
            best = min(
                previous[j - 1] + cost,  # substitution / match
                previous[j] + 1,  # deletion
                current[j - 1] + 1,  # insertion
            )
            current[j] = min(best, big)
        if min(current) > cap:
            return big
        previous = current
    return min(previous[size_b], big)


def normalized_edit_distance(predicted: str, target: str) -> float:
    """Return edit distance normalized by the target length (paper ANED).

    The paper normalizes by the target length to make scores comparable
    across datasets (§5.4).  For an empty target the distance is
    normalized by the prediction length instead; two empty strings have
    distance 0.
    """
    denominator = len(target) if target else len(predicted)
    if denominator == 0:
        return 0.0
    return edit_distance(predicted, target) / denominator
