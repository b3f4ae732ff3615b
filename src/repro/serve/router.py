"""Multi-pipeline routing over in-process services or a worker pool.

:class:`ServiceRouter` is the piece between the HTTP layer and
execution: it owns a set of named **routes** — one
:class:`~repro.core.pipeline.DTTPipeline` fingerprint each — and
resolves every request's ``model`` selector (route name, full
fingerprint, or unambiguous fingerprint prefix) to the service that
runs it.  Execution lives in one of two places:

* ``n_workers == 0`` — one in-process
  :class:`~repro.serve.service.TransformService` per route;
* ``n_workers >= 1`` — a :class:`~repro.serve.workers.ServeWorkerPool`
  whose worker processes each host every route's full service stack;
  the router dispatches whole requests to the least-loaded live worker
  and keeps **parent-side per-route caches** (whole-request transform
  and join memoization) so repeated requests hit without crossing a
  pipe — and regardless of which worker happened to serve them first.

One configuration feeds every tier: ``service_kwargs`` reaches every
service unchanged (in-process or in-worker, so it must pickle), and its
``cache_kwargs`` also sizes the pool mode's parent-side caches.

Byte-equivalence is preserved through every tier: per-route pipelines
are content-identical across workers (same factory or the same forked
memory), each request runs inside exactly one byte-equivalent
``TransformService``, and both parent cache tiers key on everything the
result depends on (see :mod:`repro.serve.cache`), so routing and
process placement can change latency, never answers.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.pipeline import DTTPipeline
from repro.exceptions import JoinError, UnknownModelError
from repro.obs.metrics import merge_labeled_snapshots, sum_snapshots
from repro.obs.trace import current_context, get_tracer
from repro.serve.cache import (
    JoinResultCache,
    ResultCache,
    examples_fingerprint,
    join_cache_key,
)
from repro.serve.service import (
    ServeStats,
    TransformService,
    kernel_pairs_total,
)
from repro.serve.workers import (
    PipelineFactory,
    ServeWorkerPool,
    snapshot_services,
)
from repro.types import ExamplePair, Prediction

#: Minimum ``model`` selector length for fingerprint-prefix matching;
#: shorter selectors only match route names exactly.
MIN_FINGERPRINT_PREFIX = 8


def build_pipeline(
    model: str = "pretrained",
    context_size: int = 2,
    n_trials: int = 5,
    seed: int = 0,
) -> DTTPipeline:
    """Build one of the standard serving pipelines, deterministically.

    This is the module-level factory behind ``python -m repro.serve``
    routes (``functools.partial`` over it pickles, so spawn-started and
    respawned workers can rebuild the exact pipeline): ``model`` is
    ``"pretrained"`` (the deterministic DTT stand-in) or ``"ensemble"``
    (adds the GPT-3 surrogate).  Every call with equal arguments builds
    a pipeline with the same fingerprint, in any process.
    """
    from repro.surrogate.llm import GPT3Surrogate
    from repro.surrogate.pretrained import PretrainedDTT

    if model == "ensemble":
        models: object = [PretrainedDTT(seed=seed), GPT3Surrogate(seed=seed)]
    elif model == "pretrained":
        models = PretrainedDTT(seed=seed)
    else:
        raise ValueError(
            f"model must be 'pretrained' or 'ensemble', got {model!r}"
        )
    return DTTPipeline(
        models,
        context_size=context_size,
        n_trials=n_trials,
        seed=seed,
    )


@dataclass(frozen=True)
class RouteSpec:
    """One named model route: a display name plus a pipeline factory.

    Attributes:
        name: Route name clients select with ``model=<name>`` (also the
            default selector namespace — names must be unique and are
            matched before fingerprints).
        factory: Zero-argument, picklable, deterministic pipeline
            constructor (see
            :data:`~repro.serve.workers.PipelineFactory`).
    """

    name: str
    factory: PipelineFactory


class _Route:
    """Parent-side state of one route: a service or a cache tier."""

    __slots__ = (
        "spec",
        "fingerprint",
        "service",
        "transform_cache",
        "join_cache",
    )

    def __init__(
        self,
        spec: RouteSpec,
        fingerprint: str,
        service: TransformService | None,
        cache_kwargs: dict,
    ) -> None:
        self.spec = spec
        self.fingerprint = fingerprint
        #: The in-process service (``n_workers == 0`` mode only).
        self.service = service
        #: The parent-side caches (worker-pool mode only: an in-process
        #: service memoizes in its own).
        self.transform_cache = self.join_cache = None
        if service is None:
            self.transform_cache = ResultCache(**cache_kwargs)
            self.join_cache = JoinResultCache(**cache_kwargs)


class ServiceRouter:
    """Route ``model`` selectors to per-route serving backends.

    Args:
        routes: The route specs, in priority order — the first is the
            default route (used when a request names no model).
        n_workers: ``0`` runs every route in-process; ``>= 1`` starts
            that many worker processes, each hosting all routes.
        service_kwargs: Picklable keyword arguments for every
            :class:`TransformService` built (in-process or in-worker):
            ``max_batch_rows``, ``max_queue``, ``cache_kwargs``, ...
            In pool mode ``cache_kwargs`` also sizes the parent-side
            caches.
    """

    def __init__(
        self,
        routes: Sequence[RouteSpec],
        n_workers: int = 0,
        service_kwargs: dict | None = None,
    ) -> None:
        if not routes:
            raise ValueError("ServiceRouter requires at least one route")
        names = [spec.name for spec in routes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate route names: {names}")
        if n_workers < 0:
            raise ValueError(f"n_workers must be >= 0, got {n_workers}")
        self.n_workers = n_workers
        service_kwargs = dict(service_kwargs or {})
        # Pipelines are built in the parent either way: they are the
        # fingerprint source for routing, and under the fork start
        # method the worker pool inherits them copy-on-write.
        pipelines = {spec.name: spec.factory() for spec in routes}
        self._routes = {
            spec.name: _Route(
                spec,
                pipelines[spec.name].fingerprint(),
                TransformService(pipelines[spec.name], **service_kwargs)
                if n_workers == 0
                else None,
                service_kwargs.get("cache_kwargs") or {},
            )
            for spec in routes
        }
        self._pool: ServeWorkerPool | None = None
        if n_workers > 0:
            self._pool = ServeWorkerPool(
                {spec.name: spec.factory for spec in routes},
                n_workers,
                prebuilt=pipelines,
                service_kwargs=service_kwargs,
            )
        self.default_route = routes[0].name

    # -- routing -----------------------------------------------------------

    def resolve(self, model: str | None) -> str:
        """Resolve a ``model`` selector to a route name.

        ``None`` selects the default route.  Otherwise the selector
        must be an exact route name, an exact pipeline fingerprint, or
        a fingerprint prefix of at least
        :data:`MIN_FINGERPRINT_PREFIX` characters matching exactly one
        route; anything else raises :class:`UnknownModelError`.
        """
        if model is None:
            return self.default_route
        if model in self._routes:
            return model
        matches = [
            name
            for name, route in self._routes.items()
            if route.fingerprint == model
            or (
                len(model) >= MIN_FINGERPRINT_PREFIX
                and route.fingerprint.startswith(model)
            )
        ]
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise UnknownModelError(
                f"model selector {model!r} is ambiguous: matches "
                f"{sorted(matches)}"
            )
        raise UnknownModelError(
            f"unknown model {model!r}; GET /v1/models lists the "
            f"{len(self._routes)} route(s) this service fronts"
        )

    def models(self) -> list[dict]:
        """The ``GET /v1/models`` listing: every route, default first."""
        ordered = [self.default_route] + sorted(
            name for name in self._routes if name != self.default_route
        )
        return [
            {
                "name": name,
                "fingerprint": self._routes[name].fingerprint,
                "default": name == self.default_route,
            }
            for name in ordered
        ]

    # -- execution ---------------------------------------------------------

    def _via_pool(
        self, route: _Route, kind: str, key, args: tuple, kwargs: dict
    ) -> list:
        """One request through the parent cache tier and a worker.

        A hit in the route's ``<kind>_cache`` answers without crossing
        a pipe; a miss runs ``submit_<kind>(*args, **kwargs)`` on the
        least-loaded worker and memoizes the reply.  Reverse-join
        groups are stored as immutable tuples and handed out as fresh
        lists.
        """
        assert self._pool is not None
        cache = route.join_cache if kind == "join" else route.transform_cache
        reverse = kwargs.get("mode") == "reverse"
        cached = cache.get(key)
        if cached is not None:
            return [list(g) for g in cached] if reverse else list(cached)
        payload = (route.spec.name, kind, args, kwargs, current_context())
        ok, result, spans = self._pool.submit("request", payload).result()
        # The worker's spans join the trace before the caller's root
        # span (the HTTP handler's) can close.
        get_tracer().ingest(spans)
        if not ok:
            raise result
        cache.put(key, (tuple(g) for g in result) if reverse else result)
        return result

    def transform(
        self,
        sources: Sequence[str],
        examples: Sequence[ExamplePair],
        timeout: float | None = None,
        model: str | None = None,
    ) -> list[Prediction]:
        """Run a transform on the selected route (blocking)."""
        route = self._routes[self.resolve(model)]
        if route.service is not None:
            return route.service.transform(sources, examples, timeout)
        key = (
            "transform",
            route.fingerprint,
            examples_fingerprint(examples),
            tuple(sources),
        )
        args = (tuple(sources), tuple(examples), timeout)
        return self._via_pool(route, "transform", key, args, {})

    def join(
        self,
        sources: Sequence[str],
        targets: Sequence[str],
        examples: Sequence[ExamplePair],
        timeout: float | None = None,
        *,
        mode: str = "argmin",
        k: int = 1,
        margin: float | None = None,
        model: str | None = None,
    ) -> list:
        """Run a join on the selected route (blocking).

        Result shape per ``mode`` matches
        :meth:`TransformService.submit_join`.
        """
        route = self._routes[self.resolve(model)]
        kwargs = {"mode": mode, "k": k, "margin": margin}
        if route.service is not None:
            return route.service.join(
                sources, targets, examples, timeout, **kwargs
            )
        if not targets:
            # Validated before the pipe crossing so the error carries
            # no worker plumbing in its traceback.
            raise JoinError("cannot join into an empty target column")
        key = join_cache_key(
            route.fingerprint,
            examples_fingerprint(examples),
            tuple(sources),
            tuple(targets),
            mode,
            k,
            margin,
        )
        args = (tuple(sources), tuple(targets), tuple(examples), timeout)
        return self._via_pool(route, "join", key, args, kwargs)

    # -- observability -----------------------------------------------------

    def _router_cache_stats(self) -> dict:
        """Parent-side cache counters per route (worker-pool mode)."""
        return {
            name: {
                tier: {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "entries": len(cache),
                }
                for tier, cache in (
                    ("transform", route.transform_cache),
                    ("join", route.join_cache),
                )
            }
            for name, route in self._routes.items()
        }

    def _snapshots(self) -> list[tuple[dict[str, str], dict]]:
        """``(labels, snapshot_services(...))`` per answering backend.

        The single fan-in behind :meth:`stats` and :meth:`metrics_text`:
        one labeled entry per worker that replied, or — in-process —
        one unlabeled entry for the local services.
        """
        if self._pool is None:
            services = {n: r.service for n, r in self._routes.items()}
            return [({}, snapshot_services(services))]
        replies = self._pool.broadcast("snapshot")
        return [
            ({"worker": str(worker_id)}, reply)
            for worker_id, reply in sorted(replies.items())
        ]

    def stats(self) -> dict:
        """The ``GET /v1/stats`` body.

        Keeps the pre-PR-9 shape — the default route's
        :class:`~repro.serve.service.ServeStats` fields at the top
        level plus ``"join"`` and ``"metrics"`` blocks — and adds a
        ``"routes"`` block (per-route stats keyed by name, with
        fingerprints) and a ``"workers"`` block (worker count, live
        pids, respawn count; present in both modes, with
        ``n_workers: 0`` in-process).  Every number is read from one
        registry snapshot per route per worker, **summed across
        workers** (:func:`~repro.obs.metrics.sum_snapshots`); the
        worker-pool top level adds ``router_caches``, the parent-side
        memoization counters.
        """
        per_worker = [snapshot for _, snapshot in self._snapshots()]
        routes_block = {}
        totals = {}
        for name, route in self._routes.items():
            parts = [snap[name] for snap in per_worker if name in snap]
            totals[name] = sum_snapshots([p["metrics"] for p in parts])
            last_joins = [
                p["last_join"] for p in parts if p["last_join"] is not None
            ]
            routes_block[name] = {
                "fingerprint": route.fingerprint,
                "stats": ServeStats.from_snapshot(totals[name]).as_dict(),
                "join": {
                    "last_join": last_joins[-1] if last_joins else None,
                    "kernel_pairs_total": kernel_pairs_total(totals[name]),
                },
            }
        body = {
            **routes_block[self.default_route]["stats"],
            "join": routes_block[self.default_route]["join"],
            "metrics": totals[self.default_route],
            "routes": routes_block,
            "workers": {"n_workers": 0, "restarts": 0, "pids": []},
        }
        if self._pool is not None:
            body["router_caches"] = self._router_cache_stats()
            body["workers"] = {
                "n_workers": self.n_workers,
                "restarts": self._pool.restarts,
                "responding": len(per_worker),
                "pids": sorted(
                    handle.process.pid
                    for handle in self._pool.workers
                    if handle.alive and handle.process.pid is not None
                ),
            }
        return body

    def readiness(self) -> dict:
        """The ``GET /readyz`` body: can this router serve traffic now?

        ``ready`` requires the router to be open, every route's
        fingerprint to resolve, and (in pool mode) every worker slot to
        hold a live process.  The body also reports the worker topology
        — count, live workers, respawns so far — so an orchestrator's
        readiness probe doubles as a restart-loop detector.
        """
        routes_ok = all(
            self.resolve(name) == name for name in self._routes
        )
        pool = self._pool
        workers = pool.workers if pool is not None else []
        alive = sum(1 for handle in workers if handle.alive)
        return {
            "ready": not self.closed
            and routes_ok
            and alive == self.n_workers,
            "routes": sorted(self._routes),
            "workers": {
                "n_workers": self.n_workers,
                "alive": alive,
                "restarts": pool.restarts if pool is not None else 0,
            },
        }

    def metrics_text(self) -> str:
        """The ``/metrics`` exposition across every route and worker.

        In-process single-route mode is the service's own page
        (unlabeled, with ``# HELP`` lines — byte-compatible with the
        pre-router scrape).  Every other topology renders **labeled**
        series — one ``# TYPE`` block per metric, one sample per
        ``{route=...}`` (after ``{worker=...}`` in pool mode) — via
        :func:`~repro.obs.metrics.merge_labeled_snapshots`.
        """
        if self._pool is None and len(self._routes) == 1:
            return self._routes[self.default_route].service.metrics_text()
        return merge_labeled_snapshots(
            [
                ({**labels, "route": name}, part["metrics"])
                for labels, snapshot in self._snapshots()
                for name, part in snapshot.items()
            ]
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the router (and everything behind it) is shut down."""
        if self._pool is not None:
            return self._pool.closed
        return all(
            route.service.closed for route in self._routes.values()
        )

    def close(self) -> None:
        """Shut down every backend (idempotent, as each backend is)."""
        if self._pool is not None:
            self._pool.close()
        else:
            for route in self._routes.values():
                route.service.close()
