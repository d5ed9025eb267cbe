"""LEB128 variable-length byte codec (ablation comparator).

Each value is stored in 1-10 bytes of 7 payload bits; the high bit of
each byte marks continuation.  Compared with fixed-width packing it
wins on skewed distributions (most social-network gaps are tiny) but
loses random access — you cannot jump to field *i* without a scan or an
offset index, which is the trade-off the codec ablation bench
quantifies.

Both directions are vectorised as a loop over byte *positions* (at most
10 passes over the array), not over values.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError, ValidationError

__all__ = ["varint_encode", "varint_decode", "varint_nbytes", "VarintCodec"]

_MAX_BYTES = 10  # ceil(64 / 7)


def _validate(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValidationError("varint input must be 1-D")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValidationError(f"varint input must be integers, got {arr.dtype}")
    if arr.size and np.issubdtype(arr.dtype, np.signedinteger) and int(arr.min()) < 0:
        raise ValidationError("varint input must be non-negative")
    return arr.astype(np.uint64, copy=False)


def _nbytes_and_longest(arr: np.ndarray) -> tuple[np.ndarray, int]:
    """Encoded length of each value and of the largest one.

    Only the thresholds the largest value reaches are compared, so a
    small-gap segment costs one or two passes, not nine.
    """
    longest = max(1, -(-int(arr.max()).bit_length() // 7)) if arr.size else 1
    nbytes = np.ones(arr.shape[0], dtype=np.int64)
    for k in range(1, longest):
        nbytes += arr >= (np.uint64(1) << np.uint64(7 * k))
    return nbytes, longest


def varint_nbytes(values) -> np.ndarray:
    """Encoded length in bytes of each value (vectorised)."""
    return _nbytes_and_longest(_validate(values))[0]


def varint_encode(values) -> np.ndarray:
    """Encode to a contiguous ``uint8`` stream."""
    arr = _validate(values)
    if arr.size == 0:
        return np.zeros(0, dtype=np.uint8)
    nbytes, longest = _nbytes_and_longest(arr)
    offsets = np.zeros(arr.shape[0], dtype=np.int64)
    np.cumsum(nbytes[:-1], out=offsets[1:])
    out = np.zeros(int(nbytes.sum()), dtype=np.uint8)
    for k in range(longest):
        mask = nbytes > k
        payload = (arr[mask] >> np.uint64(7 * k)) & np.uint64(0x7F)
        cont = (nbytes[mask] > k + 1).astype(np.uint8) << 7
        out[offsets[mask] + k] = payload.astype(np.uint8) | cont
    return out


def varint_decode(stream: np.ndarray, count: int | None = None) -> np.ndarray:
    """Decode a ``uint8`` stream produced by :func:`varint_encode`.

    When *count* is given it is validated against the stream contents.
    """
    buf = np.asarray(stream, dtype=np.uint8)
    if buf.ndim != 1:
        raise ValidationError("varint stream must be 1-D uint8")
    if buf.size == 0:
        if count not in (None, 0):
            raise CodecError(f"expected {count} values in empty stream")
        return np.zeros(0, dtype=np.uint64)
    terminators = np.flatnonzero((buf & 0x80) == 0)
    if terminators.size == 0 or int(terminators[-1]) != buf.shape[0] - 1:
        raise CodecError("truncated varint stream (missing terminator byte)")
    starts = np.empty(terminators.shape[0], dtype=np.int64)
    starts[0] = 0
    starts[1:] = terminators[:-1] + 1
    lengths = terminators - starts + 1
    if int(lengths.max()) > _MAX_BYTES:
        raise CodecError("varint run exceeds 10 bytes (corrupt stream)")
    if count is not None and count != starts.shape[0]:
        raise CodecError(f"expected {count} values, stream holds {starts.shape[0]}")
    out = np.zeros(starts.shape[0], dtype=np.uint64)
    for k in range(int(lengths.max())):
        mask = lengths > k
        payload = (buf[starts[mask] + k] & 0x7F).astype(np.uint64)
        out[mask] |= payload << np.uint64(7 * k)
    return out


class VarintCodec:
    """Codec-protocol wrapper over the LEB128 stream functions."""

    name = "varint"

    def encode(self, values):
        """Compress *values* into a self-describing payload."""
        from .bitarray import BitArray
        from .registry import Encoded

        arr = _validate(values)
        stream = varint_encode(arr)
        return Encoded(
            codec=self.name,
            bits=BitArray(stream, stream.shape[0] * 8),
            meta={"count": int(arr.shape[0])},
        )

    def decode(self, encoded) -> np.ndarray:
        """Recover the exact array from an encoded payload."""
        if encoded.codec != self.name:
            raise CodecError(f"expected '{self.name}' payload, got '{encoded.codec}'")
        return varint_decode(encoded.bits.buffer[: encoded.bits.nbits // 8],
                             encoded.meta["count"])
