"""Edit-distance kernel backends at the pair door, at the joiner's shapes.

Every join the repo benchmark's workloads run bottoms out in one kernel
call, ``edit_distance_pairs`` (``repro.index.kernels``): a table of
probes of any mix of lengths, one table row per pair, and a chunk of
candidates the length and count filters admitted — so the candidates
sit *inside* the cap's length window of their own probe and the chunk
is as big as the joiner's stratum made it.  This bench times exactly that
call, for every backend, on the shapes the JAB workload produces:

* **rung** — one mixed-length call: 40 probes with the length
  spread of an ``offline_join`` call (5 to 101 characters, three of
  them past one 64-bit word), 25 candidates each, 1 000 pairs.  This is
  what the engine's seed and stratum calls hand the kernel, and where
  per-call set-up and the word-count grouping show;
* **short** — 2 000 pairs against journal titles at ``m = 27`` (one
  word) and **long** — against four titles concatenated at ``m = 100``
  (multi-block bit-parallel): a wide stratum's chunk, where the sweep
  itself is the cost;
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
_BACKENDS = ("reference", "bitparallel")
# (titles concatenated per candidate value, probe length m): a wave's
# 2 000-pair chunk, 100 candidates per probe.
_REGIMES = {"short": (1, 27), "long": (4, 100)}
# Probe lengths of one ``offline_join`` call (seed 11): the mixed rung,
# scored over both regimes' values at 25 candidates per probe.
_RUNG_LENGTHS = (
    5, 11, 12, 12, 13, 14, 14, 14, 14, 15, 17, 19, 19, 19, 20, 20, 21, 21, 23, 24,
    25, 25, 26, 26, 26, 28, 28, 31, 34, 36, 38, 40, 40, 42, 43, 51, 60, 91, 97, 101,
)  # fmt: skip
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
    lengths: tuple[int, ...],
    per_probe: int,
    cap: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One pair-door call shaped like a mixed-length stratum.

    One probe per entry of ``lengths``; each scores its own (noised)
    base value plus other values drawn from the cap's length window
    around its own length, and the ids come in ascending runs — what
    ``IndexedJoiner._pair_distances`` hands the kernel.
    """
    probes, candidates = [], []
    for m in lengths:
        window = [value for value in values if abs(len(value) - m) <= cap]
        base = window[int(rng.integers(0, len(window)))]
        chars = list(base[:m].ljust(m, "x"))
        for _ in range(int(rng.integers(0, cap + 1))):
            chars[int(rng.integers(0, m))] = chr(ord("a") + int(rng.integers(0, 26)))
        probes.append("".join(chars))
        others = rng.integers(0, len(window), size=per_probe - 1)
        candidates += [base, *(window[int(i)] for i in others)]
    query_rows, query_lengths = encode_strings(probes)
    query_ids = np.repeat(np.arange(len(probes)), per_probe)
    cand_codes, cand_lengths = encode_strings(candidates)
    return query_rows, query_lengths, query_ids, cand_codes, cand_lengths


def run_kernels(smoke: bool) -> dict:
    """Run the sweep and return the JSON-serializable report."""
    columns = {}
    for regime, (n_titles, _) in _REGIMES.items():
        titles = _titles(
            np.random.default_rng(_SEED + n_titles), _COLUMN_ROWS * n_titles
        )
        columns[regime] = [
            " ".join(titles[i : i + n_titles])
            for i in range(0, len(titles), n_titles)
        ]
    shapes = [("rung", columns["short"] + columns["long"], _RUNG_LENGTHS, 25)]
    shapes += [
        (regime, columns[regime], (m,) * 20, 100)
        for regime, (_, m) in _REGIMES.items()
    ]
    rows = []
    for regime, values, lengths, per_probe in shapes:
        rng = np.random.default_rng(_SEED + len(lengths))
        n_pairs = len(lengths) * per_probe
        for cap in _CAPS:
            chunk = _chunk(rng, values, lengths, per_probe, cap)
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
                        "m": max(lengths),
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
        "workload": "edit_distance_pairs chunks shaped like ladder rungs: "
        "noised probes over a vocabulary-scaled canonical title column "
        "(long regime: four titles concatenated), candidates inside the "
        "cap's length window of their own probe; rung = 40 probes with "
        "the offline_join length spread x 25, short / long = 20 "
        "same-length probes x 100",
        "gated_row": _GATED_ROW,
        "needs_cores": 1,
        "rows": rows,
        "key_metrics": key_metrics,
    }


if __name__ == "__main__":
    sys.exit(bench_main("kernels", run_kernels, __doc__))
