"""Pluggable edit-distance kernel backends behind one equivalence contract.

Every join in the Eq. 5 resolution path bottoms out in **one** kernel
function, ``edit_distance_pairs(query_rows, query_lengths, query_ids,
cand_codes, cand_lengths, cap)`` — lockstep per-pair scoring: a padded
table of distinct queries of any mix of lengths, each row's true
length, and per pair the row it scores against, at that row's own
length.  That is the whole contract a backend implements — one call
carries a whole verification stratum — and the blocked joiner's
``_pair_distances`` is its one caller.  The registry:

* ``"reference"`` — the plain numpy DP in :mod:`repro.index.kernel`,
  always available; it defines the capped contract every other backend
  must match byte-for-byte (values ``<= cap`` exact, everything else
  ``cap + 1``), has no early exit and is nobody's fast path.
* ``"bitparallel"`` — Myers' bit-parallel DP over uint64 bit-vectors
  (:mod:`repro.index.kernels.bitparallel`); the fast path for the
  short-string regime (queries up to 64 characters in one word,
  multi-block chaining beyond).
* ``"banded"`` — Ukkonen's diagonal-band DP
  (:mod:`repro.index.kernels.banded`); wins when strings are long but
  the cap keeps the band narrow, and stays exact (on its own) when not.
* ``"auto"`` — per-pair dispatch between the above, by each pair's own
  query length.

Selection: an explicit ``JoinConfig(kernel_backend=...)`` wins; a
config left at ``"auto"`` defers to the ``REPRO_KERNEL_BACKEND``
environment variable (so CI can sweep the whole test suite across
backends without touching call sites); otherwise the auto heuristic
picks per pair.  Backend names are validated against
:data:`repro.core.join_config.KERNEL_BACKENDS`.

Every concrete backend counts the candidate pairs it scores — once, at
the pair door — into a process-wide tally
(:func:`pairs_scored_snapshot`), which ``IndexedJoiner.join_many``
turns into per-call ``JoinStats`` deltas — parallel workers report
their own deltas per shard — and the serving layer exports through
``/v1/stats`` and ``/metrics``.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable

import numpy as np

from repro.core.join_config import KERNEL_BACKENDS
from repro.index import kernel as _reference
from repro.index.kernels import banded as _banded
from repro.index.kernels import bitparallel as _bitparallel

#: Query length (code points) that fits a single bit-parallel word.
_BLOCK = 64

_COUNTS_LOCK = threading.Lock()
_PAIRS_SCORED: dict[str, int] = {
    "reference": 0,
    "bitparallel": 0,
    "banded": 0,
}


def pairs_scored_snapshot() -> dict[str, int]:
    """Cumulative pairs scored per concrete backend, process-wide.

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

    def __init__(
        self, name: str, pair_fn: Callable[..., np.ndarray] | None
    ) -> None:
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
        if cand_codes.shape[0]:
            with _COUNTS_LOCK:
                _PAIRS_SCORED[self.name] += cand_codes.shape[0]
        return self._pair_fn(
            query_rows, query_lengths, query_ids, cand_codes, cand_lengths, cap
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class AutoBackend(KernelBackend):
    """Per-pair dispatch between the concrete backends.

    The heuristic keys on the two quantities that decide each backend's
    cost: the query length ``m`` (bit-parallel does one word of work
    per 64 query characters) and the band width ``2*cap + 1`` (banded
    work per DP row).  Queries that fit one word always take the
    bit-parallel kernel; longer queries take the banded kernel while
    the band is narrower than a word, else multi-block bit-parallel.
    The rule reads each pair's own ``m``, so a few long probes do not
    move the short ones sharing their call onto another kernel.  It has
    no pair function of its own: pairs scored are credited to whichever
    concrete backend ran, never to ``"auto"``.
    """

    def edit_distance_pairs(
        self,
        query_rows: np.ndarray,
        query_lengths: np.ndarray,
        query_ids: np.ndarray,
        cand_codes: np.ndarray,
        cand_lengths: np.ndarray,
        cap: int,
    ) -> np.ndarray:
        m = query_lengths[query_ids]
        picked = {"reference": m == 0, "bitparallel": (m > 0) & (m <= _BLOCK)}
        long_kernel = "banded" if 2 * cap + 1 <= _BLOCK else "bitparallel"
        picked[long_kernel] = picked.get(long_kernel, False) | (m > _BLOCK)
        out = np.empty(m.size, dtype=np.int64)
        for name, pairs in picked.items():
            count = int(np.count_nonzero(pairs))
            if count == m.size:
                # The usual case: one kernel takes the whole call as is.
                return _BACKENDS[name].edit_distance_pairs(
                    query_rows, query_lengths, query_ids, cand_codes, cand_lengths, cap
                )
            if count:
                out[pairs] = _BACKENDS[name].edit_distance_pairs(
                    query_rows,
                    query_lengths,
                    query_ids[pairs],
                    cand_codes[pairs],
                    cand_lengths[pairs],
                    cap,
                )
        return out


_BACKENDS: dict[str, KernelBackend] = {
    "reference": KernelBackend("reference", _reference.edit_distance_pairs),
    "bitparallel": KernelBackend("bitparallel", _bitparallel.edit_distance_pairs),
    "banded": KernelBackend("banded", _banded.edit_distance_pairs),
    "auto": AutoBackend("auto", None),
}
assert set(_BACKENDS) == set(KERNEL_BACKENDS)


def get_backend(name: str) -> KernelBackend:
    """Look a backend up by exact name; raises on unknown names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of "
            f"{KERNEL_BACKENDS}"
        ) from None


def resolve_backend(name: str | None = None) -> KernelBackend:
    """Resolve a configured backend name to a backend object.

    An explicit name other than ``"auto"`` wins outright.  ``None`` /
    ``""`` / ``"auto"`` defer to the ``REPRO_KERNEL_BACKEND``
    environment variable (empty value = unset), falling back to the
    auto heuristic.  Unknown names — from config or environment —
    raise ``ValueError``.
    """
    if name in (None, "", "auto"):
        name = os.environ.get("REPRO_KERNEL_BACKEND", "").strip() or "auto"
    return get_backend(name)


__all__ = [
    "AutoBackend",
    "KernelBackend",
    "get_backend",
    "pairs_scored_snapshot",
    "resolve_backend",
]
