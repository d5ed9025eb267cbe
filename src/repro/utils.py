"""Small shared helpers: array validation, formatting, integer math.

These are deliberately dependency-free (numpy only) and used across
every subpackage; anything domain-specific lives with its domain.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ValidationError

__all__ = [
    "as_uint_array",
    "require",
    "is_sorted",
    "human_bytes",
    "ceil_div",
    "bits_for_value",
    "bits_for_count",
    "digits10",
    "min_uint_dtype",
]


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValidationError` with *message* unless *condition*."""
    if not condition:
        raise ValidationError(message)


def as_uint_array(values, *, name: str = "array") -> np.ndarray:
    """Coerce *values* to a 1-D ``uint64`` array, rejecting negatives.

    Accepts any integer array-like.  Floats are rejected (graph ids and
    degrees are exact quantities; silently truncating would hide bugs).
    """
    arr = np.asarray(values)
    if arr.dtype == object or not np.issubdtype(arr.dtype, np.integer):
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            raise ValidationError(f"{name} must be an integer array, got dtype {arr.dtype}")
        arr = arr.astype(np.uint64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    if np.issubdtype(arr.dtype, np.signedinteger) and arr.size and int(arr.min()) < 0:
        raise ValidationError(f"{name} must be non-negative")
    return arr.astype(np.uint64, copy=False)


def is_sorted(arr: np.ndarray) -> bool:
    """True when *arr* is non-decreasing (vacuously true for < 2 items)."""
    a = np.asarray(arr)
    if a.size < 2:
        return True
    return bool(np.all(a[:-1] <= a[1:]))


_UNITS = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"]


def human_bytes(nbytes: float) -> str:
    """Render a byte count like ``"24.73 MiB"`` (power-of-two units)."""
    if nbytes < 0:
        raise ValidationError("byte count must be non-negative")
    value = float(nbytes)
    for unit in _UNITS:
        if value < 1024.0 or unit == _UNITS[-1]:
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.2f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division for non-negative *a* and positive *b*."""
    if b <= 0:
        raise ValidationError("divisor must be positive")
    return -(-a // b)


def bits_for_value(value: int) -> int:
    """Minimum field width (>= 1) able to hold *value* exactly.

    ``bits_for_value(0) == 1`` — a zero-width field cannot be addressed,
    and the paper's bit-packed arrays always use at least one bit.
    """
    if value < 0:
        raise ValidationError("bit width undefined for negative values")
    return max(1, int(value).bit_length())


def bits_for_count(count: int) -> int:
    """Field width able to hold any id in ``range(count)``."""
    if count < 0:
        raise ValidationError("count must be non-negative")
    return bits_for_value(max(0, count - 1))


def digits10(values: np.ndarray) -> np.ndarray:
    """Decimal digit count of each non-negative integer (vectorised).

    Used to compute the exact size of a text edge list without writing
    it to disk (Table II's "EdgeList Size" column).
    """
    arr = np.asarray(values, dtype=np.uint64)
    digits = np.ones(arr.shape, dtype=np.int64)
    bound = np.uint64(10)
    # 20 decimal digits cover the uint64 range.
    for _ in range(19):
        mask = arr >= bound
        if not mask.any():
            break
        digits[mask] += 1
        if int(bound) > (2**64 - 1) // 10:
            break
        bound = np.uint64(int(bound) * 10)
    return digits


def min_uint_dtype(max_value: int) -> np.dtype:
    """Smallest unsigned numpy dtype able to store *max_value*."""
    if max_value < 0:
        raise ValidationError("max_value must be non-negative")
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if max_value <= np.iinfo(dt).max:
            return np.dtype(dt)
    raise ValidationError(f"{max_value} exceeds uint64 range")


def batched(iterable: Iterable, size: int):
    """Yield lists of up to *size* items from *iterable* (py3.11-safe)."""
    if size <= 0:
        raise ValidationError("batch size must be positive")
    batch = []
    for item in iterable:
        batch.append(item)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch
