"""Parallel join scaling: sharded ``join_many`` vs the serial engine.

No workload of the repo benchmark engages ``JoinWorkerPool``
(``index.parallel.shards`` reads 0 in every ledger run), so this emitter
is where it is measured.  It joins a whole source column into a large
target column with the same blocked engine at 1/2/4/8 workers.  Every
configuration must produce **byte-identical** results (the bench
cross-checks outputs before trusting the clocks); ``speedup_vs_serial``
is therefore pure execution scaling, live code against live code in one
run.  Each timed call builds a fresh joiner over one pre-warmed on-disk
index cache, so the comparison isolates bucket sharding (and charges
the pool its own start-up), not index construction.

A second section times the disk tier itself on a fixed-size column: a
**warm** lookup (load the persisted snapshot — what every parallel
worker and every later process pays instead of a rebuild), gated as an
absolute rate, beside a **cold** lookup (build the q-gram index, then
persist it) for scale.  Their ratio is deliberately not a metric: a
faster index build would lower it.

Rows are timed under the emitters' shared protocol
(``bench_utils.measure``).  Results go to ``BENCH_join_parallel.json``
at the repository root.  Run directly for the full sweep, or with
``--smoke`` for the CI-gated run; the floors
(``BENCH_FLOORS["join_parallel"]``) on the 2- and 4-worker speedups
apply only on hosts that grant that many cores.
"""

from __future__ import annotations

import random
import sys
import tempfile

from bench_utils import bench_main, measure

from repro.core.join_config import JoinConfig
from repro.index import IndexCache, IndexedJoiner
from repro.utils.fuzz import random_edits, random_unicode_string

_SEED = 41
_ROWS, _SMOKE_ROWS = 20000, 4000
_WORKER_COUNTS, _SMOKE_WORKER_COUNTS = (1, 2, 4, 8), (1, 2, 4)
# The disk-tier rows use one column size in both modes, so the gated
# warm-load rate means the same thing in a smoke run and a full sweep.
_DISK_ROWS = 20000
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 .-_/"


def _random_string(rng: random.Random) -> str:
    return random_unicode_string(
        rng, max_length=18, min_length=6, alphabet=_ALPHABET
    )


def _workload(rng: random.Random, n_rows: int) -> tuple[list[str], list[str]]:
    targets = [_random_string(rng) for _ in range(n_rows)]
    probes = []
    for _ in range(n_rows):
        roll = rng.random()
        base = rng.choice(targets)
        if roll < 0.4:
            probes.append(base)
        elif roll < 0.8:
            probes.append(
                random_edits(rng, base, rng.randint(1, 3), alphabet=_ALPHABET)
            )
        else:
            probes.append(_random_string(rng))
    return targets, probes


def _disk_tier(smoke: bool) -> dict:
    """Cold build + persist vs warm load of one ``_DISK_ROWS`` column."""
    rng = random.Random(_SEED)
    column = tuple(_random_string(rng) for _ in range(_DISK_ROWS))
    with tempfile.TemporaryDirectory() as root:

        def cold() -> None:
            cache = IndexCache(cache_dir=tempfile.mkdtemp(dir=root))
            cache.get(column)
            assert (cache.disk_hits, cache.disk_misses) == (0, 1)

        warm_dir = tempfile.mkdtemp(dir=root)
        IndexCache(cache_dir=warm_dir).get(column)

        def warm() -> None:
            cache = IndexCache(cache_dir=warm_dir)
            cache.get(column)
            assert (cache.disk_hits, cache.disk_misses) == (1, 0)

        cold_build, warm_load = measure(cold, smoke), measure(warm, smoke)
    return {
        "rows": _DISK_ROWS,
        "cold_build": cold_build,
        "warm_load": warm_load,
        "warm_load_krows_per_s": round(
            _DISK_ROWS / warm_load["seconds"] / 1e3, 1
        ),
    }


def run_join_parallel(smoke: bool) -> dict:
    """Run the sweep and return the JSON-serializable report."""
    n_rows = _SMOKE_ROWS if smoke else _ROWS
    worker_counts = _SMOKE_WORKER_COUNTS if smoke else _WORKER_COUNTS
    targets, probes = _workload(random.Random(_SEED + n_rows), n_rows)
    rows = []
    with tempfile.TemporaryDirectory() as cache_dir:
        IndexCache(cache_dir=cache_dir).get(tuple(targets))
        outputs: dict[int, list] = {}
        for n_workers in worker_counts:

            def join(n_workers: int = n_workers) -> None:
                with IndexedJoiner(
                    JoinConfig(n_workers=n_workers),
                    cache=IndexCache(cache_dir=cache_dir),
                ) as joiner:
                    outputs[n_workers] = joiner.join_many(probes, targets)

            timing = measure(join, smoke)
            assert outputs[n_workers] == outputs[worker_counts[0]], (
                f"parallel output diverged from serial at {n_workers} workers"
            )
            serial = rows[0] if rows else timing
            rows.append(
                {
                    "rows": n_rows,
                    "workers": n_workers,
                    **timing,
                    "speedup_vs_serial": round(
                        serial["seconds"] / timing["seconds"], 2
                    ),
                }
            )
    disk = _disk_tier(smoke)
    key_metrics = {
        f"speedup[workers={row['workers']}]": row["speedup_vs_serial"]
        for row in rows[1:]
    }
    key_metrics["disk_warm_load_krows_per_s"] = disk["warm_load_krows_per_s"]
    return {
        "seed": _SEED,
        "query_mix": {"exact": 0.4, "corrupted_1_3_edits": 0.4, "random": 0.2},
        "warm_disk_cache_shared_by_all_runs": True,
        "interpretation": (
            "speedup_vs_serial combines core parallelism with shard-"
            "locality effects (smaller per-shard kernel working sets); "
            "on hosts granting fewer cores than workers it measures only "
            "the latter"
        ),
        "needs_cores": max(worker_counts),
        "rows": rows,
        "disk_cache": disk,
        "key_metrics": key_metrics,
    }


if __name__ == "__main__":
    sys.exit(bench_main("join_parallel", run_join_parallel, __doc__))
