"""Levenshtein edit distance.

The joiner (paper Eq. 5) computes ``argmin_t edit_dist(f(s), t)`` over a
whole target column, so the inner loop matters.  We provide:

* :func:`edit_distances` — exact distances of a batch of pairs, all
  swept by one two-row numpy DP over a padded code matrix.
* :func:`edit_distance` — the one-pair case of :func:`edit_distances`.
* :func:`edit_distance_capped` — early-exit variant that returns
  ``cap + 1`` as soon as the distance provably exceeds ``cap``; used by
  the joiner to prune candidates against the best distance so far.
* :func:`normalized_edit_distance` — distance divided by the target
  length, the paper's ANED normalization (§5.4); :func:`normalize_distance`
  applies the same rule to a distance already computed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def codepoints(text: str) -> np.ndarray:
    """Code points of ``text`` as uint32, tolerating lone surrogates.

    Lone surrogates (e.g. ``surrogateescape`` decoding artifacts) are
    valid length-1 characters for edit-distance purposes but cannot be
    UTF-32-encoded, hence the ``ord`` fallback off the fast path.
    The index layer encodes its columns with its own
    :func:`repro.index.kernel.code_points`.
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
    if not a or not b:
        return len(a) + len(b)
    return edit_distances([(a, b)])[0]


def edit_distances(pairs: Sequence[tuple[str, str]]) -> list[int]:
    """Return the Levenshtein distance of every ``(a, b)`` pair, in one DP.

    Each pair is a row of a padded code matrix, its longer string
    walked one character per DP row and its shorter string laid along
    the columns.  Columns past a pair's own length sit to the right of
    every cell it reads, so padding never leaks into its answer.  Pairs
    run longest first, so the ones still running form a prefix that
    shrinks as the shorter pairs finish.
    """
    distances = [0] * len(pairs)
    live: list[tuple[int, int, str, str]] = []
    for k, (a, b) in enumerate(pairs):
        if a == b:
            continue
        if not a or not b:
            distances[k] = len(a) + len(b)
        elif len(a) >= len(b):
            live.append((len(a), k, a, b))
        else:
            live.append((len(b), k, b, a))
    if not live:
        return distances
    live.sort(key=lambda item: -item[0])
    steps = [item[0] for item in live]
    widths = np.array([len(item[3]) for item in live])
    # Row ``i - 1`` holds every pair's ``i``-th character of its longer string.
    rows = _code_matrix([item[2] for item in live], np.array(steps)).T.copy()
    columns = _code_matrix([item[3] for item in live], widths)
    # Reduced space ``E[i][j] = D[i][j] - j`` (the form the batched
    # kernel in :mod:`repro.index.kernel` sweeps): row 0 is all zeros
    # and the row-serial insertion recurrence ``D[i][j] = min(D'[i][j],
    # D[i][j-1] + 1)`` collapses to a plain prefix-min along each row.
    # DP row ``i`` lives in ``buffers[i % 2]``; the views over the
    # running prefix are rebuilt only when a pair finishes.
    buffers = np.zeros((2, len(live), columns.shape[1] + 1), dtype=np.int64)
    reduced = np.empty(len(live), dtype=np.int64)
    active = len(live)
    for i in range(1, steps[0] + 1):
        if i == 1 or steps[active - 1] < i:
            running = active
            while steps[active - 1] < i:
                active -= 1
            if active < running:
                done = np.arange(active, running)
                reduced[done] = buffers[(i - 1) % 2][done, widths[done]]
            views = [(b[:active], b[:active, :-1], b[:active, 1:]) for b in buffers]
            codes = columns[:active]
        _, prev_left, prev_right = views[(i - 1) % 2]
        cur, _, cur_right = views[i % 2]
        cur[:, 0] = i
        substitution = prev_left + (codes != rows[i - 1, :active, None]) - 1
        np.minimum(substitution, prev_right + 1, out=cur_right)
        np.minimum.accumulate(cur, axis=1, out=cur)
    done = np.arange(active)
    reduced[done] = buffers[steps[0] % 2][done, widths[done]]
    for (_, k, _, _), distance in zip(live, (reduced + widths).tolist(), strict=True):
        distances[k] = distance
    return distances


def _code_matrix(strings: list[str], lengths: np.ndarray) -> np.ndarray:
    """Code points of ``strings``, one zero-padded row each."""
    matrix = np.zeros((len(strings), int(lengths.max())), dtype=np.uint32)
    matrix[np.arange(matrix.shape[1]) < lengths[:, None]] = codepoints(
        "".join(strings)
    )
    return matrix


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
    return normalize_distance(edit_distance(predicted, target), predicted, target)


def normalize_distance(distance: int, predicted: str, target: str) -> float:
    """Normalize an already computed ``distance`` the way ANED does.

    The denominator rule of :func:`normalized_edit_distance`, for
    callers that scored their pairs in one :func:`edit_distances` call.
    """
    denominator = len(target) if target else len(predicted)
    if denominator == 0:
        return 0.0
    return distance / denominator
