"""Self-check of the e2e benchmark (``python -m pytest benchmarks/e2e``).

Not part of tier-1 (``testpaths`` is ``tests/``): it starts servers.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_HERE))

import procs  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: ``--smoke`` alone takes ~17 s here; with the traced half, ~40 s.
SMOKE_LIMIT_S = 60.0


@pytest.fixture(scope="module")
def contract() -> dict:
    return json.loads((_ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_run() -> tuple[float, subprocess.CompletedProcess]:
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(_HERE / "run.py"), "--smoke", "--traced"],
        capture_output=True, text=True, timeout=170.0,
    )
    return time.monotonic() - started, done


def test_smoke_prints_exactly_the_declared_names(contract, smoke_run):
    wall, done = smoke_run
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert wall < SMOKE_LIMIT_S
    workloads = {w["name"] for w in contract["workloads"]}
    declared = {
        m["name"]: m["unit"]
        for m in contract["end_to_end"] + contract["per_layer"]
    }
    printed: dict[str, dict[str, str]] = {}
    for line in done.stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] in workloads:
            float(parts[2])
            printed.setdefault(parts[0], {})[parts[1]] = parts[3]
    assert set(printed) == workloads
    for name in workloads | set(declared):
        assert NAME.fullmatch(name), name
    for workload, metrics in printed.items():
        assert metrics == declared, workload


def test_server_tree_is_gone_after_close():
    server = procs.ServerProcess("workers", 0.0, 16)
    try:
        assert server.port != 0  # bound by the kernel, read from the banner
        tree = server.tree_pids()
        assert len(tree) >= 3  # the HTTP parent and two workers
    finally:
        server.close()
    assert server.tree_pids() == []
    for pid in tree:
        assert not Path(f"/proc/{pid}").exists()


def test_server_tree_is_gone_when_startup_raises(monkeypatch):
    seen: list[procs.ServerProcess] = []

    def never_ready(self):
        seen.append(self)
        # Let the pre-fork workers come up, so there is a tree to reap.
        self.process.stdout.readline()
        raise RuntimeError("injected")

    monkeypatch.setattr(procs.ServerProcess, "_wait_ready", never_ready)
    with pytest.raises(RuntimeError, match="injected"):
        procs.ServerProcess("workers", 0.0, 16)
    assert seen[0].process.poll() is not None
    assert seen[0].tree_pids() == []


def test_server_deaf_to_signals_is_killed():
    # A server that ignores the polite signals still goes: close()
    # escalates to SIGKILL on the process group.
    server = procs.ServerProcess("inprocess", 0.0, 16)
    try:
        os.kill(server.process.pid, signal.SIGSTOP)  # deaf to INT and TERM
    finally:
        server.close()
    assert server.tree_pids() == []


def test_disk_index_cache_is_off_for_the_child(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_INDEX_CACHE_DIR", str(tmp_path))
    server = procs.ServerProcess("inprocess", 0.0, 16)
    try:
        assert "REPRO_INDEX_CACHE_DIR" not in server.env
        environ = Path(f"/proc/{server.process.pid}/environ").read_bytes()
        assert b"REPRO_INDEX_CACHE_DIR" not in environ
    finally:
        server.close()
    assert list(tmp_path.iterdir()) == []
