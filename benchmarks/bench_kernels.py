"""Edit-distance kernel backends at the pair door, at the ladder's shapes.

Every join the repo benchmark's workloads run bottoms out in one kernel
call, ``edit_distance_pairs`` (``repro.index.kernels``): a table of
same-length probes, one table row per pair, and a chunk of candidates
the length and count filters admitted — so the candidates sit *inside*
the cap's length window and the chunk is as big as the ladder stage
made it.  This bench times exactly that call, for every backend, on the
two regimes and two chunk sizes the JAB workload produces:

* **short** — journal titles (the ``m = 27`` bucket, one 64-bit word)
  and **long** — four titles concatenated (the ``m = 100`` bucket:
  multi-block bit-parallel, the regime ``auto`` hands to the banded
  kernel);
* **30 pairs** — a cap-1/cap-2 ladder round of a small bucket, where
  per-call set-up and numpy dispatch are the cost — and **2 000 pairs**
  — a bound or wave round, where the sweep is;
* caps 2 and 4.

Each row is timed under the emitters' shared protocol
(``bench_utils.measure``: the median of repeated timings, the spread
recorded beside it) after asserting the backend's output is
byte-identical to the reference's.  The gated number is an **absolute
throughput**, ``mpairs_per_s`` of the bit-parallel backend on the short
/ cap 2 / 2 000-pair row — the shape and backend the workloads execute —
against ``BENCH_FLOORS["kernels"]``.  No row is a ratio over the
reference DP: the reference is the oracle, kept plain on purpose, and a
ratio over it moves whenever the *oracle* changes.

Results go to ``BENCH_kernels.json`` at the repository root.  Run
directly for the full sweep, or with ``--smoke`` for the CI-gated
seconds-scale run (same shapes, fewer and shorter repeats).
"""

from __future__ import annotations

import sys
from functools import partial

import numpy as np

from bench_utils import bench_main, measure

from repro.datagen.benchmarks.journals import JOURNAL_TITLES
from repro.index.kernel import encode_strings
from repro.index.kernels import get_backend

_SEED = 31
_CAPS = (2, 4)
_BACKENDS = ("reference", "bitparallel", "banded")
# (titles concatenated per candidate value, probe length m of the bucket).
_REGIMES = {"short": (1, 27), "long": (4, 100)}
# (pairs, pairs per probe): a small ladder round and a bound/wave round.
_CHUNKS = ((30, 15), (2000, 100))
_COLUMN_ROWS = 4000
# The one gated row (see the module docstring); its floor is in the
# shared BENCH_FLOORS schema.
_GATED_ROW = "short/cap2/n2000/bitparallel"

#: Vocabulary harvested from the canonical titles, for scaling the
#: column past the real pool without leaving the domain.
_VOCABULARY = sorted({word for title in JOURNAL_TITLES for word in title.split()})


def _titles(rng: np.random.Generator, n_rows: int) -> list[str]:
    """The canonical titles, scaled past the real pool from their own words."""
    targets = list(JOURNAL_TITLES)
    seen = set(targets)
    while len(targets) < n_rows:
        n_words = int(rng.integers(2, 6))
        words = [
            _VOCABULARY[int(i)]
            for i in rng.integers(0, len(_VOCABULARY), size=n_words)
        ]
        title = " ".join(words)
        if title not in seen:
            seen.add(title)
            targets.append(title)
    return targets[:n_rows]


def _chunk(
    rng: np.random.Generator,
    values: list[str],
    m: int,
    n_pairs: int,
    per_probe: int,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One pair-door call shaped like a ladder round of one length bucket.

    Probes all have length ``m``; each scores its own (noised) base
    value plus other values drawn from the cap's length window, and the
    ids come in ascending runs — what ``IndexedJoiner._scored_lists``
    hands the kernel.
    """
    window = [value for value in values if abs(len(value) - m) <= cap]
    probes, candidates = [], []
    for _ in range(n_pairs // per_probe):
        base = window[int(rng.integers(0, len(window)))]
        chars = list(base[:m].ljust(m, "x"))
        for _ in range(int(rng.integers(0, cap + 1))):
            chars[int(rng.integers(0, m))] = chr(ord("a") + int(rng.integers(0, 26)))
        probes.append("".join(chars))
        others = rng.integers(0, len(window), size=per_probe - 1)
        candidates += [base, *(window[int(i)] for i in others)]
    query_rows, _ = encode_strings(probes)
    query_ids = np.repeat(np.arange(len(probes)), per_probe)
    cand_codes, cand_lengths = encode_strings(candidates)
    return query_rows, query_ids, cand_codes, cand_lengths


def run_kernels(smoke: bool) -> dict:
    """Run the sweep and return the JSON-serializable report."""
    rows = []
    for regime, (n_titles, m) in _REGIMES.items():
        rng = np.random.default_rng(_SEED + n_titles)
        titles = _titles(rng, _COLUMN_ROWS * n_titles)
        values = [
            " ".join(titles[i : i + n_titles])
            for i in range(0, len(titles), n_titles)
        ]
        for n_pairs, per_probe in _CHUNKS:
            for cap in _CAPS:
                chunk = _chunk(rng, values, m, n_pairs, per_probe, cap)
                # Equivalence before any clock is trusted.
                want = get_backend("reference").edit_distance_pairs(*chunk, cap)
                for name in _BACKENDS:
                    backend = get_backend(name)
                    got = backend.edit_distance_pairs(*chunk, cap)
                    assert np.array_equal(got, want), (
                        f"{name} != reference: regime={regime} cap={cap} "
                        f"pairs={n_pairs}"
                    )
                    timing = measure(
                        partial(backend.edit_distance_pairs, *chunk, cap), smoke
                    )
                    rows.append(
                        {
                            "config": f"{regime}/cap{cap}/n{n_pairs}/{name}",
                            "regime": regime,
                            "m": m,
                            "cap": cap,
                            "pairs": n_pairs,
                            "backend": name,
                            **timing,
                            "mpairs_per_s": round(
                                n_pairs / timing["seconds"] / 1e6, 4
                            ),
                        }
                    )
    key_metrics = {
        f"mpairs_per_s[{row['config']}]": row["mpairs_per_s"] for row in rows
    }
    key_metrics["mpairs_per_s"] = key_metrics[f"mpairs_per_s[{_GATED_ROW}]"]
    return {
        "seed": _SEED,
        "caps": list(_CAPS),
        "workload": "edit_distance_pairs chunks shaped like ladder rounds "
        "of one length bucket: noised same-length probes over a "
        "vocabulary-scaled canonical title column (long regime: four "
        "titles concatenated), candidates inside the cap's length "
        "window, 15 or 100 per probe",
        "gated_row": _GATED_ROW,
        "needs_cores": 1,
        "rows": rows,
        "key_metrics": key_metrics,
    }


if __name__ == "__main__":
    sys.exit(bench_main("kernels", run_kernels, __doc__))
