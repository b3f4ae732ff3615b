"""The run-manifest schema: one machine-readable ledger per repro run.

``scripts/reproduce_all.py`` runs the repo benchmark
(``benchmarks/e2e/run.py``) and a slice of the eval tables, then folds
the results into a single manifest JSON via this module.  The schema
(``MANIFEST_VERSION`` 3):

* ``run_id`` — sortable unique id (UTC timestamp + random hex);
* ``environment`` — interpreter/numpy/platform versions, host
  ``cpu_count`` and scheduler affinity (:func:`provenance`), so every
  number in the manifest is self-describing about the host that
  produced it;
* ``benchmark`` — the repo benchmark's exit status and, per workload of
  its ``results.json``, ``correct`` / ``attempted`` / ``failed`` and the
  four end-to-end metrics;
* ``eval`` — dataset-level score rows from the eval runner;
* ``verdict`` — overall pass/fail plus the reasons, all of them read
  from the benchmark block.
"""

from __future__ import annotations

import json
import os
import platform
import secrets
import time
from pathlib import Path

MANIFEST_VERSION = 3


def provenance() -> dict:
    """Environment/host provenance stamped into manifests and results.

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


def build_manifest(
    run_id: str,
    environment: dict,
    benchmark: dict,
    eval_rows: list[dict] | None = None,
    mode: str = "full",
) -> dict:
    """Assemble the manifest and derive the overall verdict.

    ``benchmark`` is the repo benchmark's block: ``exit_code`` and
    ``workloads`` (one entry per workload of its ``results.json``, empty
    when the file was missing).  The verdict fails on a benchmark that
    exited non-zero, left no results or got an output wrong.
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
    return {
        "manifest_version": MANIFEST_VERSION,
        "run_id": run_id,
        "mode": mode,
        "environment": environment,
        "benchmark": benchmark,
        "eval": eval_rows or [],
        "verdict": {"passed": not failures, "failures": failures},
    }


def save_manifest(manifest: dict, path: str | os.PathLike[str]) -> None:
    """Write the manifest JSON (stable key order, trailing newline)."""
    Path(path).write_text(
        json.dumps(manifest, indent=2, sort_keys=False) + "\n"
    )
