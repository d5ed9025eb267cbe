"""Chunked parallel reductions used by builders and query engines.

These follow the same chunk-then-combine shape as Algorithm 1: each
processor reduces its chunk in parallel, then a serial combine folds the
``p`` partials.  The combine is charged as a serial section, mirroring
the paper's treatment of small O(p) steps.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..errors import ValidationError
from .chunking import chunk_bounds
from .cost import Cost
from .machine import Executor, SerialExecutor, TaskContext

__all__ = ["chunked_reduce", "chunked_sum", "chunked_max", "chunked_any"]


def chunked_reduce(
    values: np.ndarray,
    chunk_fn: Callable[[np.ndarray], Any],
    combine_fn: Callable[[list], Any],
    executor: Executor | None = None,
    *,
    empty: Any = None,
    label: str = "reduce",
) -> Any:
    """Reduce *values* with per-chunk ``chunk_fn`` and serial ``combine_fn``.

    ``chunk_fn`` receives a (possibly empty-skipped) contiguous view of
    the input and is charged one read per element; ``combine_fn``
    receives the list of non-empty partials and is charged one read per
    partial.  Returns *empty* when the input has no elements.
    """
    executor = executor or SerialExecutor()
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError("chunked_reduce input must be 1-D")
    n = arr.shape[0]
    if n == 0:
        return empty
    bounds = chunk_bounds(n, executor.p)

    def reduce_chunk(ctx: TaskContext, cid: int):
        s, e = int(bounds[cid]), int(bounds[cid + 1])
        if e <= s:
            return None
        ctx.charge(Cost(reads=e - s, flops=e - s))
        return chunk_fn(arr[s:e])

    partials = executor.map_chunks(
        reduce_chunk, range(executor.p), label=f"{label}:chunks"
    )
    partials = [part for part in partials if part is not None]

    def combine(ctx: TaskContext):
        ctx.charge(Cost(reads=len(partials), flops=len(partials)))
        return combine_fn(partials)

    return executor.serial(combine, label=f"{label}:combine")


def chunked_sum(values: np.ndarray, executor: Executor | None = None) -> int:
    """Parallel sum of an integer array (0 for empty input)."""
    result = chunked_reduce(
        values,
        lambda chunk: int(chunk.sum()),
        lambda parts: sum(parts),
        executor,
        empty=0,
        label="sum",
    )
    return int(result)


def chunked_max(values: np.ndarray, executor: Executor | None = None, *, empty=None):
    """Parallel max of an array (*empty* for empty input)."""
    return chunked_reduce(
        values,
        lambda chunk: chunk.max(),
        lambda parts: max(parts),
        executor,
        empty=empty,
        label="max",
    )


def chunked_any(
    values: np.ndarray,
    predicate: Callable[[np.ndarray], bool],
    executor: Executor | None = None,
) -> bool:
    """True when *predicate* holds for any chunk (False on empty input).

    Used by the single-edge existence query (Algorithm 8): each
    processor scans its slice of the neighbour list; one ``True``
    suffices.
    """
    result = chunked_reduce(
        values,
        lambda chunk: bool(predicate(chunk)),
        lambda parts: any(parts),
        executor,
        empty=False,
        label="any",
    )
    return bool(result)
