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

Each row is the median of repeated timings (the spread is recorded
beside it) after asserting the backend's output is byte-identical to
the reference's.  The gated number is an **absolute throughput**,
``mpairs_per_s`` of the bit-parallel backend on the short / cap 2 /
2 000-pair row — the shape and backend the workloads execute — against
``BENCH_FLOORS["kernels"]``.  The ``speedup`` ratios against the
reference DP are information only: the reference is the oracle, kept
plain on purpose, and a ratio over it moves whenever the *oracle*
changes.  A separate row records the ``encode_strings`` vectorized
codepoint path against the retired per-string loop.

Results go to ``BENCH_kernels.json`` at the repository root.  Run
directly for the full sweep, or with ``--smoke`` for the CI-gated
seconds-scale run (same shapes, fewer repeats).
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

from bench_utils import (
    artifact_path,
    emit_report,
    parse_bench_args,
    stamp_provenance,
)
from conftest import persist

from repro.datagen.benchmarks.journals import JOURNAL_TITLES
from repro.index.kernel import encode_strings
from repro.index.kernels import get_backend
from repro.obs.manifest import BENCH_FLOORS
from repro.text.edit_distance import codepoints

_SEED = 31
_CAPS = (2, 4)
_BACKENDS = ("reference", "bitparallel", "banded")
# (titles concatenated per candidate value, probe length m of the bucket).
_REGIMES = {"short": (1, 27), "long": (4, 100)}
# (pairs, pairs per probe): a small ladder round and a bound/wave round.
_CHUNKS = ((30, 15), (2000, 100))
_COLUMN_ROWS = 4000
# Timed repeats per row and the least wall time one repeat covers.
_REPEATS, _MIN_SECONDS = 9, 0.05
_SMOKE_REPEATS, _SMOKE_MIN_SECONDS = 5, 0.02
_JSON_PATH = artifact_path("kernels")

# The one gated row (see the module docstring) and its floor, from the
# shared BENCH_FLOORS schema: an absolute Mpairs/s, one third of the
# median recorded on the host named beside the schema entry.
_GATED_ROW = "short/cap2/n2000/bitparallel"
_FLOOR = BENCH_FLOORS["kernels"][0]["min"]

#: Vocabulary harvested from the canonical titles, for scaling the
#: column past the real pool without leaving the domain.
_VOCABULARY = sorted({word for title in JOURNAL_TITLES for word in title.split()})


def _titles(rng: np.random.Generator, n_rows: int) -> list[str]:
    """The JAB-style scaled title column (same recipe as bench_join_topk)."""
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


def _time_call(backend, chunk, cap, repeats, min_seconds) -> list[float]:
    """Seconds per ``edit_distance_pairs`` call, one entry per repeat."""
    samples = []
    for _ in range(repeats):
        calls = 0
        started = time.perf_counter()
        while True:
            backend.edit_distance_pairs(*chunk, cap)
            calls += 1
            elapsed = time.perf_counter() - started
            if elapsed >= min_seconds:
                break
        samples.append(elapsed / calls)
    return samples


def _encode_loop(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The retired per-string ``encode_strings`` loop, kept as baseline."""
    lengths = np.fromiter(
        (len(s) for s in strings), count=len(strings), dtype=np.int64
    )
    max_len = int(lengths.max()) if lengths.size else 0
    codes = np.full((len(strings), max_len), 0xFFFFFFFF, dtype=np.uint32)
    for i, value in enumerate(strings):
        if value:
            codes[i, : lengths[i]] = codepoints(value)
    return codes, lengths


def run_kernels(seed: int = _SEED, smoke: bool = False) -> dict:
    """Run the sweep and return the JSON-serializable report."""
    repeats = _SMOKE_REPEATS if smoke else _REPEATS
    min_seconds = _SMOKE_MIN_SECONDS if smoke else _MIN_SECONDS
    rows = []
    for regime, (n_titles, m) in _REGIMES.items():
        rng = np.random.default_rng(seed + n_titles)
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
                medians = {}
                for name in _BACKENDS:
                    backend = get_backend(name)
                    got = backend.edit_distance_pairs(*chunk, cap)
                    assert np.array_equal(got, want), (
                        f"{name} != reference: regime={regime} cap={cap} "
                        f"pairs={n_pairs}"
                    )
                    samples = _time_call(backend, chunk, cap, repeats, min_seconds)
                    medians[name] = statistics.median(samples)
                    rows.append(
                        {
                            "config": f"{regime}/cap{cap}/n{n_pairs}/{name}",
                            "regime": regime,
                            "m": m,
                            "cap": cap,
                            "pairs": n_pairs,
                            "backend": name,
                            "repeats": repeats,
                            "seconds": round(medians[name], 7),
                            "seconds_min": round(min(samples), 7),
                            "seconds_max": round(max(samples), 7),
                            "mpairs_per_s": round(
                                n_pairs / medians[name] / 1e6, 4
                            ),
                        }
                    )
                for row in rows[-len(_BACKENDS) :]:
                    row["speedup"] = round(
                        medians["reference"] / medians[row["backend"]], 2
                    )
    # encode_strings micro-bench: vectorized frombuffer path vs the
    # retired per-string loop, on a short-regime column.
    column = _titles(np.random.default_rng(seed), _COLUMN_ROWS)
    started = time.perf_counter()
    loop_codes, loop_lengths = _encode_loop(column)
    loop_seconds = time.perf_counter() - started
    started = time.perf_counter()
    fast_codes, fast_lengths = encode_strings(column)
    fast_seconds = time.perf_counter() - started
    assert np.array_equal(loop_codes, fast_codes)
    assert np.array_equal(loop_lengths, fast_lengths)
    encode = {
        "rows": len(column),
        "loop_seconds": round(loop_seconds, 5),
        "vectorized_seconds": round(fast_seconds, 5),
        "speedup": round(loop_seconds / fast_seconds, 2),
    }
    return stamp_provenance({
        "bench": "kernels",
        "seed": seed,
        "caps": list(_CAPS),
        "workload": "edit_distance_pairs chunks shaped like ladder rounds "
        "of one length bucket: noised same-length probes over a "
        "vocabulary-scaled canonical title column (long regime: four "
        "titles concatenated), candidates inside the cap's length "
        "window, 15 or 100 per probe",
        "gated_row": _GATED_ROW,
        "rows": rows,
        "encode": encode,
    })


def _gated_row(report: dict) -> dict:
    (row,) = (
        row for row in report["rows"] if row["config"] == report["gated_row"]
    )
    return row


def _assert_floor(report: dict) -> None:
    row = _gated_row(report)
    assert row["mpairs_per_s"] >= _FLOOR, (
        f"bit-parallel pair sweep under {_FLOOR} Mpairs/s: {row}"
    )


def test_kernels(results_dir):
    report = run_kernels()
    _JSON_PATH.write_text(json.dumps(report, indent=2) + "\n")

    lines = ["Kernel backend sweep at the pair door (median seconds per call)"]
    lines.append(
        "config".ljust(34)
        + "seconds".rjust(12)
        + "Mpairs/s".rjust(10)
        + "vs ref".rjust(8)
    )
    for row in report["rows"]:
        lines.append(
            f"{row['config']:<34s}{row['seconds']:>12.6f}"
            f"{row['mpairs_per_s']:>10.3f}{row['speedup']:>7.2f}x"
        )
    encode = report["encode"]
    lines.append(
        f"\nencode_strings: {encode['loop_seconds']:.4f}s loop vs "
        f"{encode['vectorized_seconds']:.4f}s vectorized "
        f"({encode['speedup']:.1f}x) over {encode['rows']} rows"
    )
    lines.append(f"\n[json written to {_JSON_PATH}]")
    persist(results_dir, "kernels", "\n".join(lines))
    _assert_floor(report)


if __name__ == "__main__":
    args = parse_bench_args(__doc__)
    report = run_kernels(smoke=args.smoke)
    emit_report(report, _JSON_PATH, args)
    _assert_floor(report)
