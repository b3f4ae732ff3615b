"""Server subprocess lifecycle and /proc accounting for the serve workloads.

The server runs in its own session so the whole tree (the HTTP parent
plus any pre-fork workers) can be measured and torn down as a unit:
``close`` interrupts it (the clean path: ``serve_http`` drains and
closes the pool), then terminates, then kills the process group, and
waits until every member is gone — on every exit path, including an
exception while the server is still starting.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_READY_TIMEOUT_S = 60.0


def vm_hwm_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def session_pids(session_id: int) -> list[int]:
    """Every live process whose session is ``session_id``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the parenthesised command name: state ppid pgrp session
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[3]) == session_id and fields[0] != "Z":
            pids.append(int(entry))
    return pids


class ServerProcess:
    """One ``server.py`` subprocess, from launch to a verified-empty tree."""

    def __init__(self, tier: str, trace_sample_rate: float, trace_capacity: int):
        env = dict(os.environ)
        # Disk tier off: a warm on-disk index from an earlier run would
        # make set-up and the first join cheaper than a user's.
        env.pop("REPRO_INDEX_CACHE_DIR", None)
        self.env = env
        self.process = subprocess.Popen(
            [
                sys.executable, "-u", str(_HERE / "server.py"),
                "--tier", tier,
                "--trace-sample-rate", str(trace_sample_rate),
                "--trace-capacity", str(trace_capacity),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            start_new_session=True,
            text=True,
        )
        self.host = "127.0.0.1"
        self.port = 0
        try:
            self._wait_ready()
        except BaseException:
            self.close()
            raise

    def _wait_ready(self) -> None:
        assert self.process.stdout is not None
        line = self.process.stdout.readline()
        if "serving on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
        deadline = time.monotonic() + _READY_TIMEOUT_S
        while time.monotonic() < deadline:
            status, body = self.get("/readyz")
            if status == 200 and json.loads(body).get("ready"):
                return
            time.sleep(0.05)
        raise RuntimeError("server never became ready")

    def get(self, path: str) -> tuple[int, bytes]:
        """One GET on a fresh connection (stats/traces, off the clock)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, body = self.get(path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return json.loads(body)

    def tree_pids(self) -> list[int]:
        return session_pids(self.process.pid)

    def peak_rss_mib(self) -> float:
        """``VmHWM`` summed over the live server process tree."""
        return sum(vm_hwm_mib(pid) for pid in self.tree_pids())

    def close(self) -> None:
        """Stop the whole tree: interrupt, terminate, kill; then wait."""
        pgid = self.process.pid
        for sig, grace in (
            (signal.SIGINT, 5.0),
            (signal.SIGTERM, 3.0),
            (signal.SIGKILL, 5.0),
        ):
            if not self.tree_pids():
                break
            try:
                if sig == signal.SIGINT:
                    self.process.send_signal(sig)
                else:
                    os.killpg(pgid, sig)
            except (ProcessLookupError, PermissionError):
                pass
            deadline = time.monotonic() + grace
            while time.monotonic() < deadline:
                self.process.poll()  # reap, so the parent leaves /proc
                if not self.tree_pids():
                    break
                time.sleep(0.02)
        self.process.wait(timeout=10.0)
        if self.process.stdout is not None:
            self.process.stdout.close()
        leftover = self.tree_pids()
        if leftover:
            raise RuntimeError(f"server processes survived shutdown: {leftover}")

    def __enter__(self) -> ServerProcess:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
