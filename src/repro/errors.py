"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from runtime failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by this library."""


class ConfigurationError(ReproError):
    """A parameter object or argument combination is invalid.

    Raised eagerly (at construction time) so that misconfiguration is
    reported where it happens rather than deep inside an inference loop.
    """


class GeometryError(ReproError):
    """A geometric argument is degenerate or out of its valid domain."""


class StreamError(ReproError):
    """A stream record or stream ordering invariant was violated."""


class InferenceError(ReproError):
    """The inference engine reached an invalid internal state."""


class WorkerError(InferenceError):
    """A shard worker process died or became unreachable mid-protocol.

    Subclasses :class:`InferenceError` so existing crash-containment
    handlers keep working; the supervisor catches this (and its
    :class:`WorkerTimeout` subclass) to trigger respawn + replay instead
    of aborting the run.
    """


class WorkerTimeout(WorkerError):
    """A shard worker is alive (heartbeats flow) but an op missed its deadline.

    Distinguished from :class:`WorkerError` (dead link / missing
    heartbeats) so supervisors can treat a hung-but-alive worker as a
    kill-and-respawn case rather than a crashed one.
    """


class LearningError(ReproError):
    """Parameter estimation failed (e.g. singular IRLS system, empty data)."""


class QueryError(ReproError):
    """A stream query was malformed or evaluated against the wrong schema."""


class SimulationError(ReproError):
    """The simulator was asked to produce an impossible scenario."""


class ServeError(ReproError):
    """The ingest service hit a protocol violation or session fault.

    Raised for malformed/oversized frames, out-of-sequence or over-credit
    sends, admission-control rejections, and handshakes that do not match
    the service's configuration.  Client-facing: the service reports the
    message in an ERROR frame before closing the offending connection.
    """


class ClientConnectError(ServeError):
    """A serve client could not reach the service (after its retry budget).

    Raised by the client helpers when the socket connect (or the subscribe
    handshake) keeps failing; retryable by design — the tail's
    resume-with-backoff loop catches exactly this type, never protocol
    violations, which stay plain :class:`ServeError` and are fatal.
    """


class StateError(ReproError):
    """A checkpoint could not be written, read, or applied.

    Raised for corrupt or version-incompatible snapshot files, checksum
    mismatches, configuration drift between a checkpoint and the runtime it
    is restored into, and engines that do not support state capture.
    """
