"""Gap (delta) transform of sorted CSR rows.

Social-network adjacency rows are sorted, so storing the difference to
the previous neighbour shrinks the value range dramatically before bit
packing — the standard trick behind WebGraph [2] and the EdgeLog gap
encoding [21].  The transform resets the delta chain at every row
boundary so rows stay independently decodable.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from ..utils import as_uint_array

__all__ = ["row_gaps", "rows_from_gaps"]


def row_gaps(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Per-row gap transform of CSR ``indices``.

    Within each row ``[indptr[u], indptr[u+1])`` the first neighbour is
    stored absolute and the rest as gaps to their predecessor.  Rows
    must be sorted; raises otherwise.
    """
    iptr = np.asarray(indptr, dtype=np.int64)
    idx = as_uint_array(indices, name="indices")
    if iptr.ndim != 1 or iptr.size == 0:
        raise ValidationError("indptr must be a non-empty 1-D array")
    if int(iptr[-1]) != idx.shape[0]:
        raise ValidationError("indptr[-1] must equal len(indices)")
    if idx.size == 0:
        return idx.copy()
    gaps = np.empty_like(idx)
    gaps[0] = idx[0]
    np.subtract(idx[1:], idx[:-1], out=gaps[1:])
    starts = iptr[:-1]
    starts = starts[(starts > 0) & (starts < idx.shape[0])]
    gaps[starts] = idx[starts]  # reset chain at row boundaries
    # validate sortedness within rows: any in-row gap would have
    # underflowed to a huge uint64 value; detect via reconstruction.
    row_ids = np.repeat(np.arange(iptr.size - 1), np.diff(iptr))
    in_row = np.ones(idx.shape[0], dtype=bool)
    in_row[0] = False
    if idx.shape[0] > 1:
        in_row[1:] = row_ids[1:] == row_ids[:-1]
    bad = in_row & (idx < np.concatenate(([idx[0]], idx[:-1])))
    if bad.any():
        raise ValidationError("CSR rows must be sorted for gap encoding")
    return gaps


def rows_from_gaps(indptr: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """Inverse of :func:`row_gaps` (segmented cumulative sum)."""
    iptr = np.asarray(indptr, dtype=np.int64)
    g = as_uint_array(gaps, name="gaps")
    if iptr.ndim != 1 or iptr.size == 0:
        raise ValidationError("indptr must be a non-empty 1-D array")
    if int(iptr[-1]) != g.shape[0]:
        raise ValidationError("indptr[-1] must equal len(gaps)")
    if g.size == 0:
        return g.copy()
    # running sums with a leading zero, so entry i is the sum before
    # element i: subtracting each row's entry at its start restarts the
    # chain at the row's absolute head
    csum = np.empty(g.shape[0] + 1, dtype=np.uint64)
    csum[0] = 0
    np.cumsum(g, out=csum[1:])
    base = np.repeat(csum[iptr[:-1]], np.diff(iptr))
    return np.subtract(csum[1:], base, out=base)
