"""The one protocol the ``BENCH_*.json`` emitters share.

Two emitters remain beside the repo benchmark (``benchmarks/e2e``),
each for something none of its workloads reaches: ``bench_kernels.py``
(forced kernel backends) and ``bench_serve.py`` (the serve worker
pool).  They differ only in what they time; everything else is here:

* :func:`measure` — the timing rule.  Every timed row is the median of
  several repeats, each long enough for the clock to resolve, with the
  fastest and slowest repeat recorded beside it.
* :func:`bench_main` — the CLI (``--smoke`` / ``--json-out``), the
  provenance stamp (:func:`repro.obs.manifest.provenance`: a recorded
  number can always answer "on what host, under which interpreter?"),
  the artifact write, and the floor check against the report's own
  ``key_metrics`` block (:data:`repro.obs.manifest.BENCH_FLOORS`), which
  is the exit status.

A report is a dict with ``seed``, ``rows``, ``key_metrics`` (stable label
-> number; the only part ``reproduce_all.py`` and the run manifest read)
and ``needs_cores`` (the cores its widest row needs, so a recording on a
smaller host flags itself).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections.abc import Callable
from pathlib import Path

from repro.obs.manifest import check_floors, key_metrics, provenance

REPO_ROOT = Path(__file__).resolve().parent.parent

# (repeats per timed row, least wall seconds one repeat covers).
_FULL_PROTOCOL = (5, 1.0)
_SMOKE_PROTOCOL = (3, 0.3)


def measure(call: Callable[[], object], smoke: bool) -> dict:
    """Time ``call()`` under the protocol; seconds are per call.

    One repeat calls ``call`` until the protocol's minimum wall time has
    passed and reports the mean seconds per call; the row is the median
    repeat, with the extremes kept so a reader sees the spread.
    """
    repeats, min_seconds = _SMOKE_PROTOCOL if smoke else _FULL_PROTOCOL
    samples = []
    for _ in range(repeats):
        calls = 0
        started = time.perf_counter()
        while True:
            call()
            calls += 1
            elapsed = time.perf_counter() - started
            if elapsed >= min_seconds:
                break
        samples.append(elapsed / calls)
    return {
        "repeats": repeats,
        "seconds": round(statistics.median(samples), 7),
        "seconds_min": round(min(samples), 7),
        "seconds_max": round(max(samples), 7),
    }


def bench_main(
    name: str,
    run: Callable[[bool], dict],
    doc: str | None,
    argv: list[str] | None = None,
) -> int:
    """Run one emitter end to end; the exit status is its floor verdict.

    The full sweep refreshes the committed ``BENCH_<name>.json``; a
    ``--smoke`` run writes nothing unless ``--json-out`` names a path
    (how ``reproduce_all.py`` archives a fresh report without touching
    the committed trajectory).  The report is written and echoed before
    the floors are judged, so a failing run leaves its numbers behind.
    """
    parser = argparse.ArgumentParser(description=doc)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="the CI-scale sweep (fewer, shorter repeats); writes no "
        "artifact unless --json-out names one",
    )
    parser.add_argument(
        "--json-out",
        type=Path,
        default=None,
        help="write the JSON report here instead of the committed "
        "artifact location",
    )
    args = parser.parse_args(argv)
    report = {"bench": name, **run(args.smoke), "provenance": provenance()}
    text = json.dumps(report, indent=2)
    path = args.json_out
    if path is None and not args.smoke:
        path = REPO_ROOT / f"BENCH_{name}.json"
    if path is not None:
        path.write_text(text + "\n")
    print(text)
    floors = check_floors(
        name, key_metrics(report), cores=report["provenance"]["cpu_affinity"]
    )
    print(f"[bench_{name}] floors: {floors['detail']}", file=sys.stderr)
    return 0 if floors["passed"] else 1
