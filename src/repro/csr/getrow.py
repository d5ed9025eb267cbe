"""``GetRowFromCSR`` — the packed-row extraction primitive of [28].

Given the bit-packed column array ``A``, the starting *field* index of
a node's row, its degree, and the field width ``numBits``, decode the
row without touching any other part of the compressed structure.  This
is the kernel every querying algorithm in Section V calls.
"""

from __future__ import annotations

import numpy as np

from ..bitpack.bitarray import BitArray
from ..bitpack.delta import rows_from_gaps
from ..bitpack.fixed import unpack_fields_gather, unpack_slice
from ..errors import ValidationError

__all__ = [
    "get_row_from_csr",
    "get_row_gap_decoded",
    "get_rows_from_csr",
    "get_rows_gap_decoded",
]


def get_row_from_csr(
    bits: BitArray, starting_index: int, degree: int, num_bits: int
) -> np.ndarray:
    """Decode ``degree`` neighbour ids starting at field ``starting_index``.

    Mirrors the paper's call signature ``GetRowFromCSR(A,
    uNodes[i].startingIndex, degrees[uNodes[i]], numBits)``; returns a
    ``uint64`` array.
    """
    if degree < 0:
        raise ValidationError("degree must be non-negative")
    return unpack_slice(bits, num_bits, starting_index, degree)


def get_row_gap_decoded(
    bits: BitArray, starting_index: int, degree: int, num_bits: int
) -> np.ndarray:
    """As :func:`get_row_from_csr` for gap-encoded rows.

    The stored fields are per-row gaps (first neighbour absolute); the
    cumulative sum restores absolute ids.
    """
    gaps = get_row_from_csr(bits, starting_index, degree, num_bits)
    return np.cumsum(gaps, dtype=np.uint64)


def get_rows_from_csr(
    bits: BitArray, starting_indices, degrees, num_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Decode many rows in one gather pass — batched ``GetRowFromCSR``.

    Returns ``(flat, offsets)``: the ``uint64`` concatenation of every
    requested row plus ``int64`` offsets delimiting row *i* as
    ``flat[offsets[i]:offsets[i + 1]]``.  Identical values to calling
    :func:`get_row_from_csr` per row.
    """
    return unpack_fields_gather(bits, num_bits, starting_indices, degrees)


def get_rows_gap_decoded(
    bits: BitArray, starting_indices, degrees, num_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """As :func:`get_rows_from_csr` for gap-encoded rows.

    The segmented prefix sum restoring absolute ids
    (:func:`~repro.bitpack.delta.rows_from_gaps`) runs over the whole
    flat payload at once, with the gather's offsets as row boundaries.
    """
    gaps, offsets = unpack_fields_gather(bits, num_bits, starting_indices, degrees)
    return rows_from_gaps(offsets, gaps), offsets
