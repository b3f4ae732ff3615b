"""``python -m repro.serve`` — start the transform-join HTTP service.

Builds one or more pipeline routes (the deterministic pretrained
stand-in by default, or the DTT+GPT3 ensemble), wraps them in a
:class:`~repro.serve.router.ServiceRouter` — in-process with
``--serve-workers 0``, or fronting that many pre-fork worker processes
— and serves the JSON API of :mod:`repro.serve.http` in the foreground.

Example session::

    $ python -m repro.serve --port 8080 --serve-workers 4 \\
          --route pretrained --route ensemble &
    $ curl -s localhost:8080/v1/models
    $ curl -s 'localhost:8080/v1/join?model=ensemble' -d '{
        "sources": ["Jean Chretien"],
        "targets": ["jchretien", "kcampbell"],
        "examples": [["Justin Trudeau", "jtrudeau"],
                     ["Stephen Harper", "sharper"],
                     ["Paul Martin", "pmartin"]]}'
    $ curl -s localhost:8080/v1/stats

See ``docs/operations.md`` for choosing worker counts and cache sizes.
"""

from __future__ import annotations

import argparse
import functools

from repro.obs.trace import configure_tracing
from repro.serve.http import serve_http
from repro.serve.router import RouteSpec, ServiceRouter, build_pipeline


def build_router(args: argparse.Namespace) -> ServiceRouter:
    """Construct the route set and router from parsed CLI options.

    Without ``--route`` the one route is ``--model``; with
    ``--serve-workers 0`` every route runs as an in-process
    :class:`~repro.serve.service.TransformService`.
    """
    route_names = args.route or [args.model]
    routes = [
        RouteSpec(
            name=name,
            # functools.partial over the module-level builder stays
            # picklable, which spawn-started workers require.
            factory=functools.partial(
                build_pipeline,
                model=name,
                context_size=args.context_size,
                n_trials=args.n_trials,
                seed=args.seed,
            ),
        )
        for name in route_names
    ]
    return ServiceRouter(
        routes,
        n_workers=args.serve_workers,
        service_kwargs={
            "max_batch_rows": args.max_batch_rows,
            "max_queue": args.max_queue,
            "default_timeout": args.default_timeout_s,
            # One cache configuration for every tier: each service's
            # result and join caches and, behind workers, the router's
            # parent-side caches.
            "cache_kwargs": _cache_kwargs(args),
        },
    )


def _cache_kwargs(args: argparse.Namespace) -> dict:
    kwargs: dict = {"max_entries": args.cache_max_entries}
    if args.cache_ttl_s is not None:
        kwargs["ttl_seconds"] = args.cache_ttl_s
    return kwargs


def main(argv: list[str] | None = None) -> None:
    """Parse CLI options, build the router, serve until interrupted."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--model",
        choices=("pretrained", "ensemble"),
        default="pretrained",
        help="pretrained = the DTT stand-in; ensemble adds the GPT-3 "
        "surrogate (ignored when --route is given)",
    )
    parser.add_argument(
        "--route",
        action="append",
        choices=("pretrained", "ensemble"),
        default=None,
        help="serve this pipeline as a named route; repeat for a "
        "multi-model deployment (first route is the default)",
    )
    parser.add_argument(
        "--serve-workers",
        type=int,
        default=0,
        help="worker processes hosting the service stack; 0 (default) "
        "serves in-process",
    )
    parser.add_argument("--context-size", type=int, default=2)
    parser.add_argument("--n-trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-batch-rows", type=int, default=256)
    parser.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="pending-request bound; beyond it submits get HTTP 429",
    )
    parser.add_argument(
        "--default-timeout-s",
        type=float,
        default=None,
        help="per-request deadline when the client sends none",
    )
    parser.add_argument("--cache-max-entries", type=int, default=4096)
    parser.add_argument(
        "--cache-ttl-s",
        type=float,
        default=None,
        help="result- and join-cache entry lifetime (default: no expiry)",
    )
    parser.add_argument(
        "--max-request-bytes",
        type=int,
        default=16 << 20,
        help="declared-body bound; larger requests get HTTP 413",
    )
    parser.add_argument(
        "--request-timeout-s",
        type=float,
        default=30.0,
        help="socket timeout per connection; a client stalling mid-body "
        "gets HTTP 408",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        help="head-based trace sampling probability in [0, 1]; 0 "
        "records only errored requests' roots, 1 records every "
        "request (see GET /debug/traces)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit one structured JSON access-log line per request "
        "(method, path, route, status, duration_ms, trace_id)",
    )
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    if args.route is not None and len(set(args.route)) != len(args.route):
        parser.error("duplicate --route values")
    if not 0.0 <= args.trace_sample_rate <= 1.0:
        parser.error("--trace-sample-rate must be in [0, 1]")
    configure_tracing(sample_rate=args.trace_sample_rate)
    serve_http(
        build_router(args),
        args.host,
        args.port,
        verbose=not args.quiet,
        max_request_bytes=args.max_request_bytes,
        request_timeout_s=args.request_timeout_s,
        log_json=args.log_json,
    )


if __name__ == "__main__":
    main()
