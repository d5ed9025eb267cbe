"""Exception hierarchy for :mod:`repro`.

All library-raised errors derive from :class:`ReproError` so callers can
catch one base class.  Input-validation failures raise
:class:`ValidationError` (a ``ValueError`` subclass) so that generic
``ValueError`` handling also works.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "NotSortedError",
    "CodecError",
    "DiskFormatError",
    "FieldOverflowError",
    "QueryError",
    "BatchShapeError",
    "FrameError",
    "AdmissionError",
    "ClusterError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An input failed validation (shape, dtype, range, or structure)."""


class NotSortedError(ValidationError):
    """An operation requiring sorted input received unsorted data.

    The paper's construction algorithms (Sections III and IV) assume the
    edge list is sorted by (source, destination) (and, for time-evolving
    graphs, by time-frame first).  Builders raise this instead of
    silently producing a CSR with an unsorted row.
    """


class CodecError(ReproError):
    """A bit-packing codec failed to encode or decode a payload."""


class DiskFormatError(ValidationError):
    """An on-disk store directory is missing, malformed, or corrupt.

    Raised by :mod:`repro.disk` when a manifest cannot be parsed, its
    format version is unknown, a segment file is absent or truncated,
    or a per-file checksum does not match — a clean, catchable
    :class:`ReproError` instead of a JSON/struct traceback.
    """


class FieldOverflowError(CodecError, OverflowError):
    """A value does not fit in the requested fixed bit width."""


class QueryError(ReproError, ValueError):
    """A query referenced a node, edge, or time outside the graph."""


class BatchShapeError(QueryError, ValidationError):
    """A node batch is not a 1-D array: malformed input, met on the
    query path — the one key check raises it for every store, and it is
    catchable as either parent."""


class FrameError(ReproError, ValueError):
    """A temporal operation referenced an invalid time-frame."""


class AdmissionError(ReproError):
    """A request was refused by serve-side admission control.

    Raised when reading the result of a :class:`~repro.serve.ReplySlot`
    whose request was rejected at the queue boundary or shed from the
    queue under overload (the ``reject`` / ``shed-oldest`` policies of
    :class:`~repro.serve.AdmissionController`).
    """


class ClusterError(ReproError):
    """The cluster router could not serve a scattered sub-request.

    Raised (stored on the request's failed
    :class:`~repro.serve.ReplySlot`) when every replica of the owning
    shard is down after retries — one line naming the shard, the last
    worker tried, and the attempt count, instead of a hung slot.
    """
