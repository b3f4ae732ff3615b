"""Serve worker pool scaling: one route in-process vs 1 / 2 / 4 workers.

No workload of the repo benchmark varies the serve worker count
(``serve_transform_workers`` fixes it at 2), so this emitter is where the
process tier is held against the in-process service.  It drives the same
route — the tiny incremental transformer, whose decode micro-batches
vectorize across requests — with 16 concurrent clients issuing
single-row transform requests, first against a
:class:`~repro.serve.router.ServiceRouter` serving in-process
(``serve_workers`` 0) and then fronting 1 / 2 / 4 pre-fork worker
processes.  ``speedup_vs_inprocess`` is live code against live code in
one run: what the process tier adds over micro-batching alone.

A timed call is one *wave* of distinct requests no earlier wave of that
configuration sent, so no cache tier ever answers one; every reply of
every wave is checked against a direct one-at-a-time ``DTTPipeline``
call before any number is reported — the tier's contract is
byte-equivalence, so the rows measure pure scheduling.  Rows are timed
under the emitters' shared protocol (``bench_utils.measure``).

Results go to ``BENCH_serve.json`` at the repository root.  Run directly
for the full sweep, or with ``--smoke`` for the CI-gated run; the floor
(``BENCH_FLOORS["serve"]``) on the 4-worker speedup applies only on
hosts that grant 4 cores.  What the removed sections of this bench
measured — coalescing, cache-hit cost, span evidence — are rows of the
repo benchmark's ``serve_join`` ledger.
"""

from __future__ import annotations

import itertools
import random
import sys
from concurrent.futures import ThreadPoolExecutor

from bench_utils import bench_main, measure

from repro.core.pipeline import DTTPipeline
from repro.model.config import DTTModelConfig
from repro.model.seq2seq import ByteSeq2SeqModel
from repro.serve.router import RouteSpec, ServiceRouter
from repro.types import ExamplePair
from repro.utils.fuzz import random_unicode_string

_SEED = 59
_CLIENTS = 16
_WAVE_REQUESTS = 64
_WORKER_COUNTS = (0, 1, 2, 4)
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789 .-_/"

_EXAMPLES = [
    ExamplePair("Justin Trudeau", "jtrudeau"),
    ExamplePair("Stephen Harper", "sharper"),
    ExamplePair("Paul Martin", "pmartin"),
]

# Tiny width (per-step overhead dominates, which is what cross-request
# batching amortizes) but a full-length decode budget, so each request
# does realistic work.
_MODEL_CONFIG = DTTModelConfig(
    dim=32,
    n_heads=2,
    encoder_layers=2,
    decoder_layers=1,
    ffn_hidden=64,
    max_input_length=96,
    max_output_length=48,
)


def _pipeline() -> DTTPipeline:
    return DTTPipeline(ByteSeq2SeqModel(_MODEL_CONFIG), n_trials=1, seed=_SEED)


def _wave(index: int) -> list[str]:
    """The ``index``-th wave: requests no other wave contains."""
    rng = random.Random(_SEED * 100003 + index)
    return [
        random_unicode_string(
            rng, max_length=14, min_length=6, alphabet=_ALPHABET
        )
        + f"-{index}-{i}"
        for i in range(_WAVE_REQUESTS)
    ]


def _timed_waves(workers: int, smoke: bool) -> tuple[dict, dict[str, list]]:
    """Time waves against one configuration; returns (timing, replies)."""
    replies: dict[str, list] = {}
    wave_ids = itertools.count()
    router = ServiceRouter(
        [RouteSpec("bench", _pipeline)],
        n_workers=workers,
        service_kwargs={"max_queue": 4 * _WAVE_REQUESTS},
    )
    try:
        with ThreadPoolExecutor(max_workers=_CLIENTS) as clients:

            def send_wave() -> None:
                sources = _wave(next(wave_ids))
                futures = [
                    clients.submit(router.transform, [source], _EXAMPLES)
                    for source in sources
                ]
                for source, future in zip(sources, futures):
                    replies[source] = future.result()

            send_wave()  # untimed: workers imported, BLAS warm, threads up
            timing = measure(send_wave, smoke)
    finally:
        router.close()
    return timing, replies


def run_serve_bench(smoke: bool) -> dict:
    """Run the sweep and return the JSON-serializable report."""
    direct = _pipeline()
    expected: dict[str, list] = {}
    rows = []
    for workers in _WORKER_COUNTS:
        timing, replies = _timed_waves(workers, smoke)
        for source, reply in replies.items():
            if source not in expected:
                expected[source] = direct.transform_column([source], _EXAMPLES)
            assert reply == expected[source], (
                f"reply diverged from the direct pipeline at {workers} "
                f"serve workers: {source!r}"
            )
        inprocess = rows[0] if rows else timing
        rows.append(
            {
                "serve_workers": workers,
                "clients": _CLIENTS,
                "requests_per_wave": _WAVE_REQUESTS,
                "waves_checked": len(replies) // _WAVE_REQUESTS,
                **timing,
                "throughput_rps": round(_WAVE_REQUESTS / timing["seconds"], 1),
                "speedup_vs_inprocess": round(
                    inprocess["seconds"] / timing["seconds"], 2
                ),
            }
        )
    key_metrics = {
        f"speedup[serve_workers={row['serve_workers']}]": row[
            "speedup_vs_inprocess"
        ]
        for row in rows[1:]
    }
    key_metrics["inprocess_rps"] = rows[0]["throughput_rps"]
    return {
        "seed": _SEED,
        "model": "ByteSeq2Seq(dim=32, 2+1 layers, 48-token decode), untrained",
        "needs_cores": max(_WORKER_COUNTS),
        "rows": rows,
        "key_metrics": key_metrics,
    }


if __name__ == "__main__":
    sys.exit(bench_main("serve", run_serve_bench, __doc__))
