"""The run-manifest schema: one machine-readable ledger per repro run.

``scripts/reproduce_all.py`` runs the repo benchmark
(``benchmarks/e2e/run.py``), re-runs every gated bench emitter and the
eval tables, then folds the results into a single manifest JSON via
this module.  The schema (``MANIFEST_VERSION`` 2):

* ``run_id`` — sortable unique id (UTC timestamp + random hex);
* ``environment`` — interpreter/numpy/platform versions, host
  ``cpu_count`` and scheduler affinity (:func:`provenance`), so every
  number in the manifest is self-describing about the host that
  produced it;
* ``benchmark`` — the repo benchmark's exit status and, per workload of
  its ``results.json``, ``correct`` / ``attempted`` / ``failed`` and the
  four end-to-end metrics;
* ``benches.<name>`` — the fresh report's seed and key metrics, the
  committed ``BENCH_<name>.json`` artifact's key metrics and recorded
  provenance, per-metric deltas (:func:`bench_deltas`), the floor
  verdict, and :func:`artifact_flags` calling out committed artifacts
  whose provenance invalidates a class of claims (the canonical case:
  parallel speedups recorded on a single-core host);
* ``eval`` — dataset-level score rows from the eval runner;
* ``verdict`` — overall pass/fail plus the reasons.

A report's format is known by its emitter alone: every report carries
its own ``key_metrics`` block (stable labels such as
``speedup[workers=4]`` or ``mpairs_per_s``) and ``needs_cores``, the
cores its widest row needs, and this module reads nothing else of it.
A smoke run and the committed full sweep only share the labels both
produce; ``scale_matches_committed`` says whether they all did.
"""

from __future__ import annotations

import json
import os
import platform
import secrets
import time
from pathlib import Path

MANIFEST_VERSION = 2

#: The gated benches (``BENCH_<name>.json`` at the repo root) every
#: reproduction covers; ``reproduce_all.py`` fails when one is missing.
#: Each measures something no repo-benchmark workload reaches: forced
#: kernel backends, the serve worker pool.
GATED_BENCHES = ("kernels", "serve")

#: Smoke-floor schema: the single source of truth for the CI acceptance
#: bars, keyed by :data:`GATED_BENCHES` name.  Each spec names a label of
#: the report's ``key_metrics`` block, the minimum acceptable value, and
#: an optional ``min_cores`` gate — parallel-scaling floors only apply
#: on hosts whose scheduler actually grants that many cores (starved
#: runners record the numbers and rely on :func:`artifact_flags` for
#: the caveat instead of failing spuriously).  The emitters and
#: ``reproduce_all.py`` both apply it through :func:`check_floors`, so
#: the bars cannot drift apart.  Every floor is either an absolute rate
#: or a ratio of live code against live code on the same host in the
#: same run — never a ratio over a reference implementation, a cold
#: path or a frozen baseline, which a genuine speed-up would break.
BENCH_FLOORS: dict[str, tuple[dict, ...]] = {
    # An absolute throughput, not a ratio over the reference DP (the
    # oracle is kept plain on purpose, so a ratio over it moves when the
    # oracle does): Mpairs/s of the bit-parallel pair sweep on the
    # bench's gated row.  Recorded median 0.96 Mpairs/s
    # (BENCH_kernels.json, the 2-core host in its provenance: the middle
    # of three full sweeps reading 0.67 / 0.96 / 1.04, beside ten smoke
    # readings of 0.67-1.35); the floor is one third of it.
    "kernels": ({"metric": "mpairs_per_s", "min": 0.32},),
    # Serve worker pool vs in-process serving of the same route in the
    # same run.
    "serve": (
        {"metric": "speedup[serve_workers=4]", "min": 2.0, "min_cores": 4},
    ),
}


def check_floors(
    bench: str, metrics: dict[str, float], cores: int | None = None
) -> dict:
    """Apply the :data:`BENCH_FLOORS` schema to one bench's key metrics.

    Returns ``{"passed", "detail", "checked", "skipped"}``.  A floor
    whose ``min_cores`` exceeds ``cores`` (or whose metric is absent
    from the report — e.g. a sweep shape that omitted the labeled row)
    is *skipped*, not failed: the schema encodes acceptance bars, and a
    bar you could not measure is a hole to report, not a regression.
    ``passed`` is ``True`` iff every floor that could be checked held.
    """
    checked: list[str] = []
    skipped: list[str] = []
    failures: list[str] = []
    for spec in BENCH_FLOORS.get(bench, ()):
        metric = spec["metric"]
        min_cores = spec.get("min_cores")
        if min_cores is not None and (cores is None or cores < min_cores):
            skipped.append(
                f"{metric} skipped: needs >= {min_cores} cores "
                f"(host grants {cores})"
            )
            continue
        value = metrics.get(metric)
        if value is None:
            skipped.append(f"{metric} skipped: absent from report")
            continue
        if value < spec["min"]:
            failures.append(
                f"{metric} {value:.2f} < floor {spec['min']}"
            )
        else:
            checked.append(f"{metric} {value:.2f} >= {spec['min']}")
    return {
        "passed": not failures,
        # The failed bars, or every reading and skip when none failed.
        "detail": "; ".join(failures or checked + skipped),
        "checked": checked,
        "skipped": skipped,
    }


def provenance() -> dict:
    """Environment/host provenance stamped into reports and manifests.

    ``cpu_count`` is the raw host count; ``cpu_affinity`` is how many
    cores the scheduler actually grants this process (cgroup-limited CI
    runners often differ) — parallel-scaling claims need the latter.
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux
        affinity = os.cpu_count() or 1
    import numpy

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
        "cpu_affinity": affinity,
        "recorded_unix": round(time.time(), 3),
    }


def new_run_id(now: float | None = None) -> str:
    """Sortable run id: UTC timestamp plus 4 random bytes."""
    stamp = time.strftime(
        "%Y%m%dT%H%M%SZ", time.gmtime(time.time() if now is None else now)
    )
    return f"{stamp}-{secrets.token_hex(4)}"


def key_metrics(report: dict) -> dict[str, float]:
    """The report's own ``key_metrics`` block: stable label -> number.

    Returns an empty dict for a report without one — the caller records
    the absence rather than crashing, because a manifest that cannot be
    built is worse than a manifest with a hole it can point at.
    """
    block = report.get("key_metrics")
    if not isinstance(block, dict):
        return {}
    return {
        label: float(value)
        for label, value in block.items()
        if isinstance(value, (int, float))
    }


def bench_deltas(
    current: dict[str, float], committed: dict[str, float]
) -> dict:
    """Per-metric deltas between a fresh run and the committed artifact.

    Only keys present on both sides produce a delta; one-sided keys are
    listed so a sweep-shape change is visible instead of silently
    shrinking the comparison.
    """
    shared = sorted(current.keys() & committed.keys())
    deltas = {}
    for key in shared:
        new, old = current[key], committed[key]
        deltas[key] = {
            "current": new,
            "committed": old,
            "delta": round(new - old, 4),
            "ratio": round(new / old, 4) if old else None,
        }
    return {
        "metrics": deltas,
        "only_current": sorted(current.keys() - committed.keys()),
        "only_committed": sorted(committed.keys() - current.keys()),
    }


def manifest_trends(current: dict, previous: dict) -> dict:
    """Per-bench metric deltas between two runs' *fresh* measurements.

    Where :func:`bench_deltas` compares a fresh run against the
    committed artifacts (drift vs the recorded trajectory), this
    compares two manifests against each other — run-over-run trend
    history, e.g. today's CI run against yesterday's.  ``comparable``
    flags whether the two runs used the same mode (``smoke`` vs
    ``full``); cross-mode deltas compare different sweep scales and
    should be read as shape changes, not regressions.
    """
    current_benches = current.get("benches") or {}
    previous_benches = previous.get("benches") or {}
    benches: dict[str, dict] = {}
    for name in GATED_BENCHES:
        cur = (current_benches.get(name) or {}).get("metrics") or {}
        prev = (previous_benches.get(name) or {}).get("metrics") or {}
        if not cur and not prev:
            continue
        raw = bench_deltas(cur, prev)
        benches[name] = {
            # bench_deltas names its older side "committed"; in a
            # run-over-run trend that side is the previous manifest.
            "metrics": {
                key: {
                    "current": row["current"],
                    "previous": row["committed"],
                    "delta": row["delta"],
                    "ratio": row["ratio"],
                }
                for key, row in raw["metrics"].items()
            },
            "only_current": raw["only_current"],
            "only_previous": raw["only_committed"],
        }
    return {
        "against_run_id": previous.get("run_id"),
        "against_mode": previous.get("mode"),
        "comparable": current.get("mode") == previous.get("mode"),
        "benches": benches,
    }


def artifact_flags(report: dict) -> list[str]:
    """Self-describing red flags derived from a report's provenance.

    One rule: a report states the cores its widest row needs
    (``needs_cores``), and a recording host that granted fewer is
    flagged — its parallel "speedups" measure dispatch overhead, not
    parallelism.  CI skips the ``min_cores`` floors on such hosts
    instead of failing them, and readers see the caveat in the artifact
    itself.
    """
    prov = report.get("provenance") or {}
    cores = prov.get("cpu_affinity") or prov.get("cpu_count")
    if cores is None:
        return ["no_host_provenance"]
    needs = report.get("needs_cores", 1)
    if cores < needs:
        return [
            f"recorded_with_{cores}_cores_for_rows_needing_{needs}:"
            "_parallel_speedups_do_not_measure_parallelism"
        ]
    return []


def build_manifest(
    run_id: str,
    environment: dict,
    benchmark: dict,
    benches: dict[str, dict],
    eval_rows: list[dict] | None = None,
    mode: str = "full",
) -> dict:
    """Assemble the manifest and derive the overall verdict.

    ``benchmark`` is the repo benchmark's block: ``exit_code`` and
    ``workloads`` (one entry per workload of its ``results.json``, empty
    when the file was missing).  Each value of ``benches`` is the
    per-bench block assembled by the reproduction driver: ``ran``,
    ``seed``, ``metrics``, ``committed_artifact`` (``found`` /
    ``missing`` / ``unreadable``), ``committed`` (metrics + provenance +
    flags), ``deltas``, ``floors`` (``{"passed": bool, "detail": str}``).
    The verdict fails on a benchmark that exited non-zero, left no
    results or got an output wrong, and on any missing bench, missing or
    unreadable committed artifact, or failed floor — the regression
    classes CI must catch.
    """
    failures: list[str] = []
    if benchmark.get("exit_code") != 0:
        failures.append(
            f"repo benchmark: exited with {benchmark.get('exit_code')}"
        )
    workloads = benchmark.get("workloads") or {}
    if not workloads:
        failures.append("repo benchmark: no results.json")
    for name, outcome in workloads.items():
        if not outcome.get("correct"):
            failures.append(
                f"repo benchmark {name}: {outcome.get('failed')} of "
                f"{outcome.get('attempted')} output checks failed"
            )
    for name in GATED_BENCHES:
        block = benches.get(name)
        if block is None or not block.get("ran"):
            failures.append(f"bench {name}: did not run")
            continue
        committed = block.get("committed_artifact", "missing")
        if committed != "found":
            failures.append(f"bench {name}: committed artifact {committed}")
        floors = block.get("floors") or {}
        if not floors.get("passed", False):
            failures.append(
                f"bench {name}: floor check failed"
                + (f" ({floors['detail']})" if floors.get("detail") else "")
            )
    return {
        "manifest_version": MANIFEST_VERSION,
        "run_id": run_id,
        "mode": mode,
        "environment": environment,
        "benchmark": benchmark,
        "benches": benches,
        "eval": eval_rows or [],
        "verdict": {"passed": not failures, "failures": failures},
    }


def save_manifest(manifest: dict, path: str | os.PathLike[str]) -> None:
    """Write the manifest JSON (stable key order, trailing newline)."""
    Path(path).write_text(
        json.dumps(manifest, indent=2, sort_keys=False) + "\n"
    )


def load_manifest(path: str | os.PathLike[str]) -> dict:
    """Read a manifest back; raises on version mismatch.

    A hard version check, not a warning: manifests are compared across
    runs, and silently mixing schema versions poisons every delta
    downstream.
    """
    manifest = json.loads(Path(path).read_text())
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ValueError(
            f"manifest {path} has version {version!r}, "
            f"expected {MANIFEST_VERSION}"
        )
    return manifest
