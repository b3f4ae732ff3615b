"""The import graph: importing one layer loads that layer only.

Package ``__init__`` files re-export nothing beyond the names
``benchmarks/e2e`` imports from ``repro.index``, ``repro.serve`` and
``repro.model``, so a worker process or a batch join never pays for the
HTTP tier.  Each check runs in a fresh interpreter: the test process
itself has long since imported everything.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Layers a join or a worker process never needs.
_FOREIGN = (
    "repro.serve",
    "http.server",
    "repro.surrogate",
    "repro.datagen",
    "repro.eval",
    "repro.baselines",
    "repro.metrics",
)

#: The process layer: a worker process loads it, a join never does
#: (every join runs in the calling thread).
_PROCESSES = ("multiprocessing", "repro.procs")

#: Every module whose top level is imported (but whose ``main()`` is
#: not run) by the body check.
_BODIES = sorted(
    [
        *(REPO_ROOT / "examples").glob("*.py"),
        *(REPO_ROOT / "scripts").glob("*.py"),
        *(REPO_ROOT / "benchmarks").glob("*.py"),
        *(
            REPO_ROOT / "benchmarks" / "e2e" / f"{name}.py"
            for name in ("workloads", "offline", "serving", "server")
        ),
    ]
)


def _run(code: str) -> object:
    """Run ``code`` in a fresh interpreter; return the JSON it prints."""
    paths = [
        REPO_ROOT / "src",
        REPO_ROOT / "benchmarks",
        REPO_ROOT / "benchmarks" / "e2e",
    ]
    prelude = f"import json, sys\nsys.path[:0] = {[str(p) for p in paths]!r}\n"
    proc = subprocess.run(
        [sys.executable, "-c", prelude + code],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_after(statement: str) -> set[str]:
    return set(_run(f"{statement}\nprint(json.dumps(sorted(sys.modules)))"))


def test_the_worker_layer_loads_nothing_else():
    loaded = _loaded_after("import repro.procs")
    ours = {name for name in loaded if name.split(".")[0] == "repro"}
    assert ours == {"repro", "repro.exceptions", "repro.procs"}


@pytest.mark.parametrize("module", ["repro.index", "repro.core.pipeline"])
def test_the_join_layers_do_not_load_serving_or_evaluation(module):
    loaded = _loaded_after(f"import {module}")
    assert module in loaded
    foreign = sorted(
        name
        for name in loaded
        if any(
            name == f or name.startswith(f"{f}.") for f in _FOREIGN + _PROCESSES
        )
    )
    assert foreign == []


def test_script_example_and_benchmark_bodies_import():
    # A module body imports under a name other than "__main__", so
    # nothing behind its main guard runs.
    failures = _run(
        "import importlib.util, traceback\n"
        "failures = {}\n"
        f"for i, path in enumerate({[str(p) for p in _BODIES]!r}):\n"
        "    spec = importlib.util.spec_from_file_location(f'_body_{i}', path)\n"
        "    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)\n"
        "    try:\n"
        "        spec.loader.exec_module(module)\n"
        "    except Exception:\n"
        "        failures[path] = traceback.format_exc(limit=-1)\n"
        "print(json.dumps(failures))"
    )
    assert failures == {}
    assert len(_BODIES) >= 29
