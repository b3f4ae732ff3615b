"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table/figure of the paper at a reduced
``scale`` (the ``_SCALE`` each bench file sets) and writes its rendered
output to ``benchmarks/results/`` so the artifacts survive output
capture.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benches persist their rendered tables."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def persist(results_dir: Path, name: str, text: str) -> None:
    """Write one rendered artifact and echo it to stdout."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[written to {path}]")
