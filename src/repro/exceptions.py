"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SerializationError(ReproError):
    """Raised when a sub-task prompt cannot be serialized or parsed."""


class TokenizationError(ReproError):
    """Raised when text cannot be tokenized or decoded."""


class ModelError(ReproError):
    """Raised by sequence models for invalid configuration or inputs."""


class ShapeError(ModelError):
    """Raised when a tensor has an unexpected shape."""


class TransformError(ReproError):
    """Raised when a transformation unit receives invalid parameters."""


class DatasetError(ReproError):
    """Raised when a benchmark dataset cannot be generated or loaded."""


class KnowledgeBaseError(ReproError):
    """Raised for unknown relations or malformed KB queries."""


class JoinError(ReproError):
    """Raised when a join cannot be performed (e.g. empty target table)."""


class ServeError(ReproError):
    """Base class for serving-layer request failures."""


class ServiceOverloadedError(ServeError):
    """Raised when the service's bounded request queue is full.

    Backpressure, not a crash: the caller should retry with backoff or
    shed the request — the server stays healthy either way.
    """


class ServiceClosedError(ServeError):
    """Raised when a request reaches a service that has shut down."""


class DeadlineExceededError(ServeError):
    """Raised when a request's deadline expires before execution starts."""


class WorkerCrashedError(ServeError):
    """Raised when a pool worker process dies with requests in flight.

    The requests it carried are lost — HTTP 503 on the serving tier;
    the pool (:class:`repro.serve.workers.ServeWorkerPool`) respawns
    the worker before dispatching new work, so the failure is bounded
    to the in-flight batch — exactly the blast radius of a crash in
    any shared-nothing replica tier.
    """


class UnknownModelError(ServeError):
    """Raised when a request names a model no route serves.

    The ``model`` selector must be a configured route name, a full
    pipeline fingerprint, or an unambiguous fingerprint prefix (at
    least 8 hex characters); see ``GET /v1/models`` for the live list.
    """
