"""One frozen configuration object for every join strategy.

A joiner has four tunables — the two rejection thresholds
(``max_distance`` / ``normalized_threshold``), the worker count
(``n_workers``) and the kernel backend — in one validated, frozen
dataclass.  ``EditDistanceJoiner``, ``IndexedJoiner``, ``AutoJoiner``
and ``make_joiner`` take it as their first argument and ``DTTPipeline``
as ``join_config``; it is the only way to configure a joiner.

Everything else is not configuration.  The query mode is a method
(:data:`JOIN_MODES` names them for the serve schema), and ``k`` /
``margin`` are arguments of each top-k call.  The gram size is
:func:`~repro.index.qgram.adaptive_q` of the column, and the two
switch-over points are constants of :mod:`repro.index.joiner`:
``AUTO_THRESHOLD`` (target rows before ``AutoJoiner`` indexes) and
``PARALLEL_THRESHOLD`` (pending probes before the auto worker count
starts a pool).
"""

from __future__ import annotations

from dataclasses import dataclass

#: Join modes understood by the engines and the serve schema.
JOIN_MODES = ("argmin", "topk", "reverse")

#: Edit-distance kernel backends understood by the join engines.  The
#: names live here (not in :mod:`repro.index.kernels`) so config
#: validation never imports the kernel implementations — the index
#: package imports this module, and the reverse would cycle.
#:
#: Each names one implementation of the same function,
#: ``edit_distance_pairs`` — the whole kernel contract: one call scores
#: pairs whose queries have any mix of lengths.
#:
#: * ``"auto"`` — pick per pair, by its own query's length:
#:   bit-parallel for queries that fit one 64-bit word, banded for
#:   longer queries while the diagonal band is narrower than a word,
#:   bit-parallel multi-block otherwise.
#: * ``"reference"`` — the plain numpy DP in :mod:`repro.index.kernel`:
#:   always available, no early exit; it defines the contract.
#: * ``"bitparallel"`` — Myers' bit-parallel DP in uint64 bit-vectors.
#: * ``"banded"`` — Ukkonen's banded DP over the ``2*cap + 1`` diagonal.
KERNEL_BACKENDS = ("auto", "reference", "bitparallel", "banded")


@dataclass(frozen=True)
class JoinConfig:
    """All tunables of the Eq. 5 join engines in one frozen object.

    Attributes:
        max_distance: Reject matches farther than this many edits.
        normalized_threshold: Reject matches whose distance divided by
            the matched value's length exceeds this.
        n_workers: Worker processes for the parallel sharded join
            (``None`` = auto from cpu count above the parallel
            threshold, ``1`` forces serial, ``>= 2`` always shards).
        kernel_backend: Edit-distance kernel the blocked engines score
            with — one of :data:`KERNEL_BACKENDS`.  ``"auto"`` (the
            default) defers to the ``REPRO_KERNEL_BACKEND`` environment
            variable when set, else picks per call; every backend is
            byte-identical to the reference, so this is purely a
            performance knob.
    """

    max_distance: int | None = None
    normalized_threshold: float | None = None
    n_workers: int | None = None
    kernel_backend: str = "auto"

    def __post_init__(self) -> None:
        if self.max_distance is not None and self.max_distance < 0:
            raise ValueError(
                f"max_distance must be >= 0, got {self.max_distance}"
            )
        if self.normalized_threshold is not None and self.normalized_threshold < 0:
            raise ValueError(
                "normalized_threshold must be >= 0, "
                f"got {self.normalized_threshold}"
            )
        if self.n_workers is not None and self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.kernel_backend not in KERNEL_BACKENDS:
            raise ValueError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, "
                f"got {self.kernel_backend!r}"
            )
