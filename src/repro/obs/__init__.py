"""Observability: metrics primitives, request tracing, the run manifest.

Three parts, all dependency-free:

* :mod:`repro.obs.metrics` — thread-safe counters, gauges, and
  log-bucketed latency histograms, collected in a
  :class:`MetricsRegistry` that renders either a JSON-friendly snapshot
  (for the service's ``/v1/stats``) or the Prometheus text exposition
  format (for the scrape-friendly ``/metrics`` endpoint).
* :mod:`repro.obs.trace` — structured request tracing: head-sampled
  :class:`Span` trees with contextvar propagation, a bounded
  :class:`TraceCollector` ring, and picklable span contexts so traces
  survive the hop into pre-fork serve workers (surfaced at
  ``GET /debug/traces``).
* :mod:`repro.obs.manifest` — the run-manifest schema behind
  ``scripts/reproduce_all.py``: environment provenance (interpreter,
  numpy, platform, host ``cpu_count``), per-bench key-metric extraction
  from ``BENCH_*.json`` reports, delta computation against the
  committed artifacts, the :data:`BENCH_FLOORS` acceptance-bar schema
  shared by CI and the bench emitters, and run-over-run trend history
  (:func:`manifest_trends`).

Every later perf claim in this repository reports through this layer:
benches stamp their reports with :func:`~repro.obs.manifest.provenance`,
the serving tier exports its latency/occupancy/cache counters live, and
one command (``python scripts/reproduce_all.py``) folds all of it into a
single machine-readable ledger.
"""
