"""The server subprocess of the serve workloads.

``python benchmarks/e2e/server.py --tier inprocess|workers
--trace-sample-rate R --trace-capacity N`` binds port 0, prints the
``serving on http://host:port`` line ``serve_http`` emits, and serves
until terminated.

* ``inprocess`` is ``python -m repro.serve`` itself (one ``pretrained``
  pipeline, default knobs); the only difference is that the trace
  collector is sized to hold the whole traced phase first.
* ``workers`` is a ``neural`` route behind ``ServiceRouter(n_workers=2)``,
  a topology the stock CLI cannot build because it only knows the
  surrogate routes.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parents[1] / "src"))
sys.path.insert(0, str(_HERE))

N_SERVE_WORKERS = 2


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tier", choices=("inprocess", "workers"), required=True)
    parser.add_argument("--trace-sample-rate", type=float, default=0.0)
    parser.add_argument("--trace-capacity", type=int, default=256)
    args = parser.parse_args(argv)

    from repro.obs.trace import configure_tracing

    configure_tracing(
        sample_rate=args.trace_sample_rate, capacity=args.trace_capacity
    )
    if args.tier == "inprocess":
        from repro.serve.__main__ import main as serve_main

        serve_main(
            [
                "--port", "0",
                "--quiet",
                "--trace-sample-rate", str(args.trace_sample_rate),
            ]
        )
        return

    from workloads import build_neural_pipeline

    from repro.serve import RouteSpec, ServiceRouter, serve_http

    router = ServiceRouter(
        [RouteSpec(name="neural", factory=build_neural_pipeline)],
        n_workers=N_SERVE_WORKERS,
    )
    serve_http(router, port=0, verbose=False)


if __name__ == "__main__":
    main()
