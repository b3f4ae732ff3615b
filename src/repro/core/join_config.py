"""One frozen configuration object for every joiner.

A joiner has two tunables — the rejection thresholds
``max_distance`` and ``normalized_threshold`` — in one validated,
frozen dataclass.  ``EditDistanceJoiner`` and ``IndexedJoiner`` take it
as their first argument and keep it as ``joiner.config``, which every
query reads; it is the only way to configure a joiner (``DTTPipeline``
takes a configured joiner instance).

Everything else is not configuration.  The query mode is a method
(:data:`JOIN_MODES` names them for the serve schema), and ``k`` /
``margin`` are arguments of each top-k call.  The gram size is
:func:`~repro.index.qgram.adaptive_q` of the column, and every join
runs in the calling thread.  The edit-distance kernel is the
bit-parallel fast path unless the ``REPRO_KERNEL_BACKEND`` environment
variable picks the reference oracle (:mod:`repro.index.kernels`).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Join modes understood by the engines and the serve schema.
JOIN_MODES = ("argmin", "topk", "reverse")


@dataclass(frozen=True)
class JoinConfig:
    """All tunables of the Eq. 5 join engines in one frozen object.

    Attributes:
        max_distance: Reject matches farther than this many edits.
        normalized_threshold: Reject matches whose distance divided by
            the matched value's length exceeds this.
    """

    max_distance: int | None = None
    normalized_threshold: float | None = None

    def __post_init__(self) -> None:
        # ``not x >= 0`` rather than ``x < 0``: NaN fails every
        # comparison, so it must be refused here or it switches the
        # rejection rule off.
        if self.max_distance is not None and not self.max_distance >= 0:
            raise ValueError(
                f"max_distance must be >= 0, got {self.max_distance}"
            )
        if (
            self.normalized_threshold is not None
            and not self.normalized_threshold >= 0
        ):
            raise ValueError(
                "normalized_threshold must be >= 0, "
                f"got {self.normalized_threshold}"
            )
