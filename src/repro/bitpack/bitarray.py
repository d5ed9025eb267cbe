"""Byte-backed bit array with scalar field access and stream I/O.

The paper compresses CSR's integer arrays into packed bit arrays (the
"bitPack algorithm" of Gopal et al. [7]) and queries them through
bit-offset arithmetic (``GetRowFromCSR`` of [28]).  This module holds
the storage primitive: :class:`BitArray` over a ``uint8`` buffer, plus
the cursor :class:`BitReader` of the scalar reference zeta decoder.

Bit order is *little-endian within the stream*: bit ``i`` of the array
lives in byte ``i >> 3`` at in-byte position ``i & 7``.  This matches
``np.packbits(..., bitorder="little")`` so the vectorised fixed-width
kernels in :mod:`repro.bitpack.fixed` and the scalar accessors here
address identical layouts.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError, ValidationError
from ..utils import ceil_div, require

__all__ = ["BitArray", "BitReader", "blit_bits"]

_MAX_FIELD = 64


def _check_width(width: int) -> None:
    if not (1 <= width <= _MAX_FIELD):
        raise ValidationError(f"field width must be in [1, {_MAX_FIELD}], got {width}")


class BitArray:
    """A sequence of ``nbits`` bits stored in a ``uint8`` numpy buffer.

    Immutable length; contents mutable through :meth:`write_uint`.
    """

    __slots__ = ("buffer", "nbits")

    def __init__(self, buffer: np.ndarray, nbits: int):
        buf = np.asarray(buffer, dtype=np.uint8)
        if buf.ndim != 1:
            raise ValidationError("BitArray buffer must be 1-D uint8")
        require(nbits >= 0, "nbits must be non-negative")
        require(buf.shape[0] >= ceil_div(nbits, 8), "buffer too small for nbits")
        self.buffer = buf
        self.nbits = int(nbits)

    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, nbits: int) -> "BitArray":
        return cls(np.zeros(ceil_div(nbits, 8), dtype=np.uint8), nbits)

    @classmethod
    def from_bits(cls, bits) -> "BitArray":
        """Build from an iterable of 0/1 values (testing convenience)."""
        arr = np.asarray(list(bits), dtype=np.uint8)
        if arr.size and arr.max() > 1:
            raise ValidationError("bits must be 0 or 1")
        packed = np.packbits(arr, bitorder="little")
        return cls(packed, arr.size)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        if self.nbits != other.nbits:
            return False
        return bool(np.array_equal(self._trimmed(), other._trimmed()))

    # mutable buffer + value equality: properly unhashable, so hash(ba)
    # raises the standard "unhashable type" instead of a confusing
    # "an integer is required" from a None-returning __hash__
    __hash__ = None  # type: ignore[assignment]

    def _trimmed(self) -> np.ndarray:
        """Buffer with trailing pad bits forced to zero, for comparisons."""
        nbytes = ceil_div(self.nbits, 8)
        buf = self.buffer[:nbytes].copy()
        tail = self.nbits & 7
        if nbytes and tail:
            buf[-1] &= (1 << tail) - 1
        return buf

    @property
    def nbytes(self) -> int:
        """Exact storage footprint in whole bytes."""
        return ceil_div(self.nbits, 8)

    # ------------------------------------------------------------------
    def get_bit(self, pos: int) -> int:
        """The bit at position *pos* (0 or 1)."""
        require(0 <= pos < self.nbits, f"bit {pos} out of range [0, {self.nbits})")
        return (int(self.buffer[pos >> 3]) >> (pos & 7)) & 1

    def read_uint(self, pos: int, width: int) -> int:
        """Read an unsigned *width*-bit field starting at bit *pos*."""
        _check_width(width)
        require(
            0 <= pos and pos + width <= self.nbits,
            f"field [{pos}, {pos + width}) out of range [0, {self.nbits})",
        )
        first = pos >> 3
        last = (pos + width + 7) >> 3
        word = int.from_bytes(self.buffer[first:last].tobytes(), "little")
        return (word >> (pos & 7)) & ((1 << width) - 1)

    def write_uint(self, pos: int, width: int, value: int) -> None:
        """Write an unsigned *width*-bit field starting at bit *pos*."""
        _check_width(width)
        require(
            0 <= pos and pos + width <= self.nbits,
            f"field [{pos}, {pos + width}) out of range [0, {self.nbits})",
        )
        if value < 0 or value >> width:
            raise CodecError(f"value {value} does not fit in {width} bits")
        first = pos >> 3
        last = (pos + width + 7) >> 3
        nbytes = last - first
        word = int.from_bytes(self.buffer[first:last].tobytes(), "little")
        shift = pos & 7
        mask = ((1 << width) - 1) << shift
        word = (word & ~mask) | (value << shift)
        self.buffer[first:last] = np.frombuffer(
            word.to_bytes(nbytes, "little"), dtype=np.uint8
        )

    def to_bits(self) -> np.ndarray:
        """The bit sequence as a 0/1 uint8 array (testing convenience)."""
        bits = np.unpackbits(self.buffer[: ceil_div(self.nbits, 8)], bitorder="little")
        return bits[: self.nbits]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BitArray(nbits={self.nbits}, nbytes={self.nbytes})"


def blit_bits(dst: BitArray, pos: int, src: BitArray) -> None:
    """OR *src*'s bits into *dst* starting at bit *pos* (vectorised).

    The destination range is assumed zero (the merge step of
    Algorithm 4 writes each chunk's packed bits into a fresh output
    exactly once).  Runs in O(src.nbytes) with numpy shifts — no
    per-bit Python loop.
    """
    require(pos >= 0 and pos + src.nbits <= dst.nbits, "blit range out of bounds")
    if src.nbits == 0:
        return
    src_bytes = src._trimmed()
    start = pos >> 3
    shift = pos & 7
    if shift == 0:
        dst.buffer[start : start + src_bytes.shape[0]] |= src_bytes
        return
    widened = src_bytes.astype(np.uint16) << shift
    lo = (widened & 0xFF).astype(np.uint8)
    hi = (widened >> 8).astype(np.uint8)
    dst.buffer[start : start + lo.shape[0]] |= lo
    hi_start = start + 1
    hi_stop = min(hi_start + hi.shape[0], dst.buffer.shape[0])
    dst.buffer[hi_start:hi_stop] |= hi[: hi_stop - hi_start]


class BitReader:
    """Cursor-based reader over a :class:`BitArray`."""

    __slots__ = ("bits", "pos")

    def __init__(self, bits: BitArray, pos: int = 0):
        require(0 <= pos <= bits.nbits, "reader position out of range")
        self.bits = bits
        self.pos = int(pos)

    @property
    def remaining(self) -> int:
        return self.bits.nbits - self.pos

    def read(self, width: int) -> int:
        """Read an unsigned *width*-bit field at the cursor."""
        value = self.bits.read_uint(self.pos, width)
        self.pos += width
        return value

    def read_unary(self) -> int:
        """Count zero bits up to the next one bit (consuming it)."""
        count = 0
        while True:
            if self.pos >= self.bits.nbits:
                raise CodecError("unary run past end of stream")
            if self.bits.get_bit(self.pos):
                self.pos += 1
                return count
            self.pos += 1
            count += 1

    def at_end(self) -> bool:
        """True once the cursor passed the last bit."""
        return self.pos >= self.bits.nbits
