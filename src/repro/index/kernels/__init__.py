"""Two edit-distance kernel backends behind one equivalence contract.

Every join in the Eq. 5 resolution path bottoms out in **one** kernel
function, ``edit_distance_pairs(query_rows, query_lengths, query_ids,
cand_codes, cand_lengths, cap)`` — lockstep per-pair scoring: a padded
table of distinct queries of any mix of lengths, each row's true
length, and per pair the row it scores against, at that row's own
length.  That is the whole contract a backend implements — one call
carries a whole verification stratum — and the blocked joiner's
``_pair_distances`` is its one caller.  The registry
(:data:`KERNEL_BACKENDS`):

* ``"reference"`` — the plain numpy DP in :mod:`repro.index.kernel`,
  always available; it defines the capped contract the fast path must
  match byte-for-byte (values ``<= cap`` exact, everything else
  ``cap + 1``), has no early exit and is nobody's fast path.
* ``"bitparallel"`` — Myers' bit-parallel DP over uint64 bit-vectors
  (:mod:`repro.index.kernels.bitparallel`); the fast path and the
  default (queries up to 64 characters in one word, multi-block
  chaining beyond).

Selection: :func:`resolve_backend` reads the ``REPRO_KERNEL_BACKEND``
environment variable (unset or empty = ``"bitparallel"``), so CI can
run the whole test suite on the oracle lane without touching call
sites.  Unknown names raise ``ValueError``.

Both backends count the candidate pairs they score — once, at the pair
door — into a process-wide tally (:func:`pairs_scored_snapshot`),
which ``IndexedJoiner.join_many`` turns into per-call ``JoinStats``
deltas — parallel workers report their own deltas per shard — and the
serving layer exports through ``/v1/stats`` and ``/metrics``.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable

import numpy as np

from repro.index import kernel as _reference
from repro.index.kernels import bitparallel as _bitparallel

#: Edit-distance kernel backends understood by the join engines: the
#: oracle, then the fast path (the default).
KERNEL_BACKENDS = ("reference", "bitparallel")

_COUNTS_LOCK = threading.Lock()
_PAIRS_SCORED: dict[str, int] = dict.fromkeys(KERNEL_BACKENDS, 0)


def pairs_scored_snapshot() -> dict[str, int]:
    """Cumulative pairs scored per backend, process-wide.

    Callers (``join_many``, parallel shard workers) snapshot before and
    after a unit of work and report the difference, so the tally never
    needs resetting between calls.
    """
    with _COUNTS_LOCK:
        return dict(_PAIRS_SCORED)


class KernelBackend:
    """One edit-distance kernel: a registry name and its pair function.

    ``pair_fn`` has the signature and byte-identical results of
    :func:`repro.index.kernel.edit_distance_pairs` (enforced by
    ``tests/test_kernels.py``).  :meth:`edit_distance_pairs` is the one
    door every scoring call goes through, and the only place pairs are
    credited to the process-wide tally, under ``name``.
    """

    def __init__(self, name: str, pair_fn: Callable[..., np.ndarray]) -> None:
        self.name = name
        self._pair_fn = pair_fn

    def edit_distance_pairs(
        self,
        query_rows: np.ndarray,
        query_lengths: np.ndarray,
        query_ids: np.ndarray,
        cand_codes: np.ndarray,
        cand_lengths: np.ndarray,
        cap: int,
    ) -> np.ndarray:
        """Capped distances of each ``(query_ids[i], cand_codes[i])`` pair.

        Credits the pairs to this backend's tally, then scores them with
        ``pair_fn``; arguments and result are those of
        :func:`repro.index.kernel.edit_distance_pairs`.
        """
        if cand_codes.shape[0]:
            with _COUNTS_LOCK:
                _PAIRS_SCORED[self.name] += cand_codes.shape[0]
        return self._pair_fn(
            query_rows, query_lengths, query_ids, cand_codes, cand_lengths, cap
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


_BACKENDS: dict[str, KernelBackend] = {
    "reference": KernelBackend("reference", _reference.edit_distance_pairs),
    "bitparallel": KernelBackend("bitparallel", _bitparallel.edit_distance_pairs),
}


def get_backend(name: str) -> KernelBackend:
    """Look a backend up by exact name; raises on unknown names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{KERNEL_BACKENDS}"
        ) from None


def resolve_backend() -> KernelBackend:
    """The backend ``REPRO_KERNEL_BACKEND`` names (unset or empty = bit-parallel).

    Unknown names raise ``ValueError``.
    """
    name = os.environ.get("REPRO_KERNEL_BACKEND", "").strip() or "bitparallel"
    return get_backend(name)


__all__ = [
    "KERNEL_BACKENDS",
    "KernelBackend",
    "get_backend",
    "pairs_scored_snapshot",
    "resolve_backend",
]
