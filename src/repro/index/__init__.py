"""Blocked join engine: sub-linear candidate generation for Eq. 5.

The brute joiner scans every target with a scalar DP — O(|sources| x
|targets| x len^2) — which caps the join at toy column sizes.  This
package keeps the paper's exact semantics while scaling the target
column:

* :mod:`repro.index.qgram` — an inverted q-gram index whose length and
  count filters (Gravano-style bounds) yield a **provably complete**
  candidate set for any distance cap.
* :mod:`repro.index.kernel` — :func:`edit_distance_pairs`, the whole
  kernel contract: a capped DP over (query, candidate) pairs, each
  scored at its own query's length, kept plain because it is the oracle.
* :mod:`repro.index.kernels` — the two backends for that one function:
  Myers bit-parallel (the fast path) and the reference DP as the
  oracle, picked by the ``REPRO_KERNEL_BACKEND`` environment variable;
  bit-parallel is byte-identical to the reference DP.
* :mod:`repro.index.joiner` — :class:`IndexedJoiner` (drop-in,
  byte-identical results to :class:`~repro.core.joiner.EditDistanceJoiner`),
  :class:`AutoJoiner` (switches strategy on target-column size), and the
  :func:`make_joiner` factory used by ``DTTPipeline(joiner="auto")``.

Batch execution rides on top of the same guarantee:

* :mod:`repro.index.cache` — :class:`IndexCache`, a process-level LRU of
  indexes keyed on **column content** (so equal columns share one index
  and any mutation — even a same-length in-place edit — forces a
  rebuild), plus adaptive gram-size selection.
* :meth:`IndexedJoiner.join_many` — the many-probe batch API: dedupe,
  exact-match short-circuit, candidate generation at each probe's own
  length, and the pair kernel scoring all (probe, candidate) pairs of
  a verification stratum — probes of every length — in one sweep.

The guarantee throughout is *exact equivalence* with the brute scan —
enforced by the equivalence test harness in ``tests/`` — so blocking and
batching are purely performance choices.
"""

# Kept only because benchmarks/e2e imports these names from the package.
from repro.index.cache import IndexCache
from repro.index.joiner import IndexedJoiner
from repro.index.kernels import pairs_scored_snapshot

__all__ = ["IndexCache", "IndexedJoiner", "pairs_scored_snapshot"]
