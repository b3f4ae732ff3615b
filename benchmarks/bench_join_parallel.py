"""Parallel join scaling: sharded ``join_many`` vs the serial engine.

No workload of the repo benchmark engages ``JoinWorkerPool``
(``index.parallel.shards`` reads 0 in every ledger run), so this emitter
is where it is measured.  It joins a whole source column into a large
target column with the same blocked engine at 1/2/4/8 workers.  Every
configuration must produce **byte-identical** results (the bench
cross-checks outputs before trusting the clocks); ``speedup_vs_serial``
is therefore pure execution scaling, live code against live code in one
run.  Each timed call builds a fresh joiner over one pre-warmed
in-memory index cache, so the comparison isolates probe sharding (and
charges the pool its own start-up), not index construction.

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

from bench_utils import bench_main, measure

from repro.core.join_config import JoinConfig
from repro.index import IndexCache, IndexedJoiner
from repro.utils.fuzz import random_edits, random_unicode_string

_SEED = 41
_ROWS, _SMOKE_ROWS = 20000, 4000
_WORKER_COUNTS, _SMOKE_WORKER_COUNTS = (1, 2, 4, 8), (1, 2, 4)
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


def run_join_parallel(smoke: bool) -> dict:
    """Run the sweep and return the JSON-serializable report."""
    n_rows = _SMOKE_ROWS if smoke else _ROWS
    worker_counts = _SMOKE_WORKER_COUNTS if smoke else _WORKER_COUNTS
    targets, probes = _workload(random.Random(_SEED + n_rows), n_rows)
    rows = []
    cache = IndexCache()
    cache.get(tuple(targets))
    outputs: dict[int, list] = {}
    for n_workers in worker_counts:

        def join(n_workers: int = n_workers) -> None:
            with IndexedJoiner(
                JoinConfig(n_workers=n_workers), cache=cache
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
    key_metrics = {
        f"speedup[workers={row['workers']}]": row["speedup_vs_serial"]
        for row in rows[1:]
    }
    return {
        "seed": _SEED,
        "query_mix": {"exact": 0.4, "corrupted_1_3_edits": 0.4, "random": 0.2},
        "warm_index_cache_shared_by_all_runs": True,
        "interpretation": (
            "speedup_vs_serial combines core parallelism with shard-"
            "locality effects (smaller per-shard kernel working sets); "
            "on hosts granting fewer cores than workers it measures only "
            "the latter"
        ),
        "needs_cores": max(worker_counts),
        "rows": rows,
        "key_metrics": key_metrics,
    }


if __name__ == "__main__":
    sys.exit(bench_main("join_parallel", run_join_parallel, __doc__))
