"""Edit-distance join (paper §4.4, Eq. 5).

A predicted value ``f(s_i)`` is matched to the target-column value with
the minimum edit distance.  Exact prediction is unnecessary: small
discrepancies do not affect the join as long as the true row remains the
closest.  Optional lower/upper distance bounds support many-to-many
joins, and abstained predictions produce no match (footnote 2).

This module is the brute-force reference implementation — the Eq. 5
oracle: a scalar scan over the whole column with best-so-far cap
pruning.  The production joiner is the q-gram blocked engine of
:mod:`repro.index` (:class:`~repro.index.joiner.IndexedJoiner`), which
``DTTPipeline`` builds by default at every column size and which must
return byte-identical results.

Beyond the classic argmin query, every joiner exposes the redesigned
query surface (``k`` and ``margin`` are arguments of each call):

* :meth:`~EditDistanceJoiner.topk_many` /
  :meth:`~EditDistanceJoiner.topk_join_many` — ranked candidate sets
  over *distinct* target values with calibrated margin abstention;
* :meth:`~EditDistanceJoiner.reverse_many` — which probes resolve to
  each target row (shared inversion of the forward join).

The brute implementations here define the contract; the blocked engine
must stay byte-identical.  The bounded many-to-many form,
:meth:`~EditDistanceJoiner.match_many`, exists only here: every joiner
answers it by this reference scan.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Sequence
from dataclasses import replace

from repro.core.join_config import JoinConfig
from repro.exceptions import JoinError
from repro.text.edit_distance import edit_distance_capped
from repro.types import JoinCandidate, JoinResult, Prediction, TopKJoinResult


def invert_matches(
    matches: Sequence[tuple[str | None, int]], targets: Sequence[str]
) -> list[list[int]]:
    """Invert forward-join matches into per-target-row probe groups.

    Returns one list per target row; probe index ``i`` appears in the
    group of the **earliest row** holding its matched value (the same
    row the forward join would report), in ascending probe order.
    Unmatched probes appear nowhere.  Both the reverse-join mode and the
    serving layer share this single inversion, which is what makes
    reverse results byte-identical across engines by construction.
    """
    earliest: dict[str, int] = {}
    for row, value in enumerate(targets):
        earliest.setdefault(value, row)
    groups: list[list[int]] = [[] for _ in targets]
    for probe_index, (matched, _) in enumerate(matches):
        if matched is not None:
            groups[earliest[matched]].append(probe_index)
    return groups


class EditDistanceJoiner:
    """Matches predictions into a target column by minimum edit distance.

    Args:
        config: All tunables in one frozen :class:`JoinConfig` (``None``
            = the defaults); only ``max_distance`` (matches farther
            than this are rejected — the row stays unmatched, reducing
            recall but protecting precision) and
            ``normalized_threshold`` (reject matches whose distance
            divided by the matched value's length exceeds this) apply
            to the brute scan.

    Every query reads its thresholds from :attr:`config` at call time,
    so replacing it (``dataclasses.replace(joiner.config, ...)``)
    reconfigures the joiner.
    """

    def __init__(self, config: JoinConfig | None = None) -> None:
        if config is None:
            config = JoinConfig()
        elif not isinstance(config, JoinConfig):
            raise TypeError(
                f"config must be a JoinConfig, got {type(config).__name__}"
            )
        self.config = config

    def match(self, predicted: str, targets: Sequence[str]) -> tuple[str | None, int]:
        """Return ``(closest_target, distance)`` for one predicted value.

        Ties are broken towards the earlier target row for determinism.
        """
        if not targets:
            raise JoinError("cannot join into an empty target column")
        if predicted == "":
            return None, 0
        best_value, best_distance = self._argmin(predicted, targets)
        return self._apply_thresholds(best_value, best_distance)

    def _argmin(self, predicted: str, targets: Sequence[str]) -> tuple[str, int]:
        """Earliest-row argmin over the column (subclasses override this).

        ``predicted`` is non-empty and ``targets`` is non-empty; the
        thresholds are applied by the caller.
        """
        # The sentinel exceeds any real distance, so the first candidate
        # always replaces it and best_value is never left unset.
        best_value = targets[0]
        best_distance = len(predicted) + max(len(t) for t in targets) + 1
        for candidate in targets:
            cap = best_distance - 1
            distance = edit_distance_capped(predicted, candidate, cap)
            if distance < best_distance:
                best_distance = distance
                best_value = candidate
                if best_distance == 0:
                    break
        return best_value, best_distance

    def _apply_thresholds(
        self, best_value: str, best_distance: int
    ) -> tuple[str | None, int]:
        """Reject the argmin per ``max_distance`` / ``normalized_threshold``.

        Shared by both joiners so the rejection semantics live in
        exactly one place — the blocked engines' equivalence guarantee
        depends on that.
        """
        max_distance = self.config.max_distance
        if max_distance is not None and best_distance > max_distance:
            return None, best_distance
        normalized_threshold = self.config.normalized_threshold
        if normalized_threshold is not None:
            denominator = max(len(best_value), 1)
            if best_distance / denominator > normalized_threshold:
                return None, best_distance
        return best_value, best_distance

    def join_many(
        self, probes: Sequence[str], targets: Sequence[str]
    ) -> list[tuple[str | None, int]]:
        """Batched :meth:`match`: one ``(matched, distance)`` per probe.

        This reference implementation is the literal per-probe loop and
        **defines the batch contract**: any override (the blocked
        engine's amortized version) must return byte-identical results
        — matches, distances, earliest-row tie-breaks, and threshold
        abstentions — for every probe column.
        """
        return [self.match(probe, targets) for probe in probes]

    # ------------------------------------------------------------------
    # Top-k query surface
    # ------------------------------------------------------------------

    def topk_many(
        self, probes: Sequence[str], targets: Sequence[str], k: int
    ) -> list[list[tuple[int, int, str]]]:
        """Rank the ``k`` nearest *distinct* target values per probe.

        Returns, per probe, up to ``k`` triples ``(distance, row,
        value)`` sorted ascending by ``(distance, row)`` where ``row``
        is the earliest target row holding ``value``.  Distances are
        exact for every returned triple.  An empty probe yields ``[]``.

        This reference implementation is a scalar scan with k-th-best
        cap pruning and **defines the top-k contract**: the blocked and
        parallel engines must return byte-identical triples.
        """
        self._validate_topk(targets, k)
        vacuous = max(len(t) for t in targets)
        return [self._topk_scan(probe, targets, k, vacuous) for probe in probes]

    def _topk_scan(
        self, probe: str, targets: Sequence[str], k: int, vacuous: int
    ) -> list[tuple[int, int, str]]:
        """One probe's ranked scan (earliest row per distinct value)."""
        if probe == "":
            return []
        top: list[tuple[int, int, str]] = []
        seen: set[str] = set()
        for row, value in enumerate(targets):
            if value in seen:
                continue
            seen.add(value)
            # Once k distinct values are ranked, anything farther than
            # the current k-th best can never enter (ties lose to the
            # earlier row), so the DP may clamp there.
            cap = top[-1][0] if len(top) == k else len(probe) + vacuous
            distance = edit_distance_capped(probe, value, cap)
            if distance > cap:
                continue
            insort(top, (distance, row, value))
            if len(top) > k:
                top.pop()
        return top

    def topk_join_many(
        self,
        probes: Sequence[str],
        targets: Sequence[str],
        k: int = 1,
        margin: float | None = None,
    ) -> list[TopKJoinResult]:
        """Batched top-k join with thresholding and margin abstention.

        Selection semantics live here, in exactly one place shared by
        every engine: the rank-1 candidate is selected unless
        :meth:`_apply_thresholds` rejects it or — when ``margin`` is
        set and positive — the normalized distance gap between the
        rank-1 and rank-2 candidates, ``(d2 - d1) / max(len(probe),
        1)``, falls below ``margin`` (an ambiguous match).  A probe
        with only one distinct candidate has no gap and is accepted.

        Args:
            probes: Values to rank (typically predicted values).
            targets: The full target column.
            k: Candidate-set size.
            margin: Abstention margin; ``None`` or ``0.0`` disables the
                rule.

        With ``k=1`` and the margin disabled, ``(matched, distance)``
        is byte-identical to :meth:`join_many`.
        """
        self._validate_topk(targets, k)
        if margin is not None and not margin >= 0:  # NaN too
            raise ValueError(f"margin must be >= 0, got {margin}")
        use_margin = margin is not None and margin > 0
        # The margin rule needs a rank-2 candidate even at k=1; rank
        # two internally, trim back to the user's k when assembling.
        ranked_lists = self.topk_many(probes, targets, max(k, 2) if use_margin else k)
        return [
            self._select_topk(probe, ranked, k, margin if use_margin else None)
            for probe, ranked in zip(probes, ranked_lists, strict=True)
        ]

    def _select_topk(
        self,
        probe: str,
        ranked: list[tuple[int, int, str]],
        k: int,
        margin: float | None,
    ) -> TopKJoinResult:
        """Assemble one probe's :class:`TopKJoinResult` from raw ranks."""
        gap: float | None = None
        if len(ranked) >= 2:
            gap = (ranked[1][0] - ranked[0][0]) / max(len(probe), 1)
        matched: str | None = None
        distance = 0
        if ranked:
            best_distance, _, best_value = ranked[0]
            distance = best_distance
            matched, _ = self._apply_thresholds(best_value, best_distance)
            if matched is not None and margin is not None and gap is not None:
                if gap < margin:
                    matched = None
        candidates = tuple(
            JoinCandidate(value=value, distance=dist, row=row)
            for dist, row, value in ranked[:k]
        )
        return TopKJoinResult(
            source=probe,
            predicted=probe,
            candidates=candidates,
            matched=matched,
            distance=distance,
            margin=gap,
        )

    def join_topk(
        self,
        predictions: Sequence[Prediction],
        targets: Sequence[str],
        expected: Sequence[str] | None = None,
        *,
        k: int = 1,
        margin: float | None = None,
    ) -> list[TopKJoinResult]:
        """Top-k analogue of :meth:`join` over aggregated predictions."""
        if expected is not None and len(expected) != len(predictions):
            raise JoinError(
                f"expected ({len(expected)}) must align with predictions "
                f"({len(predictions)})"
            )
        results = self.topk_join_many(
            [p.value for p in predictions], targets, k=k, margin=margin
        )
        return [
            replace(
                result,
                source=prediction.source,
                expected=expected[i] if expected is not None else "",
            )
            for i, (prediction, result) in enumerate(
                zip(predictions, results, strict=True)
            )
        ]

    @staticmethod
    def _validate_topk(targets: Sequence[str], k: int) -> None:
        """Shared argument checks for the top-k entry points."""
        if not targets:
            raise JoinError("cannot join into an empty target column")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"k must be an int >= 1, got {k!r}")

    # ------------------------------------------------------------------
    # Reverse-join mode
    # ------------------------------------------------------------------

    def reverse_many(
        self, probes: Sequence[str], targets: Sequence[str]
    ) -> list[list[int]]:
        """Which probes resolve to each target row (reverse join).

        One list per target row, holding the indices of the probes
        whose forward join selected that row; unmatched probes appear
        nowhere.  Built as :func:`invert_matches` over
        :meth:`join_many`, so every engine inherits byte-identical
        reverse results from its forward equivalence.
        """
        return invert_matches(self.join_many(probes, targets), targets)

    def match_many(
        self, predicted: str, targets: Sequence[str], lower: int = 0, upper: int = 0
    ) -> list[tuple[str, int]]:
        """Return every target within ``[lower, upper]`` edit distance.

        Supports the paper's many-to-many generalization of Eq. 5 where a
        source row may match zero or several target rows: one entry per
        matching *row* (duplicate values repeat), ordered by distance,
        then row.  The blocked joiner inherits this scan unchanged.
        """
        if not targets:
            raise JoinError("cannot join into an empty target column")
        if not 0 <= lower <= upper:
            raise ValueError(
                f"bounds must satisfy 0 <= lower <= upper, got [{lower}, {upper}]"
            )
        matches: list[tuple[str, int]] = []
        if predicted == "":
            return matches
        for candidate in targets:
            distance = edit_distance_capped(predicted, candidate, upper)
            if lower <= distance <= upper:
                matches.append((candidate, distance))
        matches.sort(key=lambda item: item[1])
        return matches

    def join(
        self,
        predictions: Sequence[Prediction],
        targets: Sequence[str],
        expected: Sequence[str] | None = None,
    ) -> list[JoinResult]:
        """Join a column of predictions into the target column.

        Args:
            predictions: Aggregated predictions, one per source row.
            targets: The full target column to join into.
            expected: Ground-truth target per source row (for scoring);
                when omitted, ``expected`` in the results is ``""``.
        """
        if expected is not None and len(expected) != len(predictions):
            raise JoinError(
                f"expected ({len(expected)}) must align with predictions "
                f"({len(predictions)})"
            )
        # One join_many call so the blocked joiner amortizes index
        # lookup, probe dedup, and kernel launches over the column.
        matches = self.join_many([p.value for p in predictions], targets)
        return [
            JoinResult(
                source=prediction.source,
                predicted=prediction.value,
                matched=matched,
                expected=expected[i] if expected is not None else "",
                distance=distance,
            )
            for i, (prediction, (matched, distance)) in enumerate(
                zip(predictions, matches, strict=True)
            )
        ]
