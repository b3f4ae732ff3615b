"""The timing rule and the floor check of the slow-lane throughput floors.

A timed figure is the median of three repeats.  One repeat calls the
function until 0.3 s of wall time have passed and reports the mean
seconds per call, so the clock always resolves what it times.
"""

from __future__ import annotations

import os
import statistics
import time
from collections.abc import Callable

import pytest

_REPEATS = 3
_MIN_SECONDS = 0.3


def median_seconds(call: Callable[[], object]) -> float:
    """Seconds per ``call()``: the median repeat under the rule above."""
    samples = []
    for _ in range(_REPEATS):
        calls = 0
        started = time.perf_counter()
        while True:
            call()
            calls += 1
            elapsed = time.perf_counter() - started
            if elapsed >= _MIN_SECONDS:
                break
        samples.append(elapsed / calls)
    return statistics.median(samples)


def check_floor(
    metric: str,
    value: float,
    floor: float,
    *,
    min_cores: int = 0,
    cores: int | None = None,
) -> None:
    """Fail unless ``value >= floor``, naming the reading and the floor.

    A floor that needs ``min_cores`` is skipped, with the reading in the
    reason, where the host grants fewer cores (``cores`` defaults to
    this process's affinity): there it would measure dispatch overhead,
    not the parallelism it guards.
    """
    if cores is None:
        cores = len(os.sched_getaffinity(0))
    if cores < min_cores:
        pytest.skip(
            f"{metric} {value:.2f}: the {floor} floor needs >= "
            f"{min_cores} cores (host grants {cores})"
        )
    assert value >= floor, f"{metric} {value:.2f} < floor {floor}"
