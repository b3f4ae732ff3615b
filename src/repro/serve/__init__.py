"""The serving layer: a long-lived, multi-process transform-join tier.

Every other entry point in the repository is a one-shot library call;
this package amortizes work *across* callers.  A
:class:`TransformService` wraps one :class:`~repro.core.pipeline.DTTPipeline`
behind a dynamic micro-batching scheduler (concurrent requests coalesce
into single engine and join passes, byte-identical to direct calls),
content-fingerprinted caches (:class:`ResultCache` for transforms,
:class:`JoinResultCache` whole-request memoization of Eq. 5 joins; both
TTL + LRU + byte-bounded), and full request lifecycle machinery
(futures, deadlines, cancellation, bounded-queue backpressure).

Above the single service sit two scaling tiers:

* :class:`ServeWorkerPool` — N pre-fork worker **processes**, each
  hosting the full service stack, with copy-on-write pipeline reuse;
  it runs on :class:`repro.procs.WorkerPool`, the process pool the
  parallel join shares, which owns crash containment and respawn;
* :class:`ServiceRouter` — multi-pipeline routing: one deployment
  fronting several model fingerprints (``model=<name | fingerprint>``
  selectors, a ``/v1/models`` listing) over in-process services or a
  shared worker pool, with parent-side per-route caches.

:mod:`repro.serve.http` puts a dependency-free JSON front end over
either tier — ``python -m repro.serve`` starts a server (see
``--serve-workers`` and ``--route``).  ``docs/architecture.md`` walks
the request lifecycle end to end; ``docs/http_api.md`` specifies the
wire format; ``docs/operations.md`` covers deployment and tuning.
"""

# Kept only because benchmarks/e2e imports these names from the package.
from repro.serve.http import serve_http
from repro.serve.router import RouteSpec, ServiceRouter

__all__ = ["RouteSpec", "ServiceRouter", "serve_http"]
