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
  numpy, platform, host ``cpu_count`` and granted cores), the repo
  benchmark's block and the verdict read from it.

Every perf claim in this repository reports through this layer: the
repo benchmark stamps its results with
:func:`~repro.obs.manifest.provenance`, the serving tier exports its
latency/occupancy/cache counters live, and one command
(``python scripts/reproduce_all.py``) folds the benchmark and an eval
slice into a single machine-readable ledger.
"""
