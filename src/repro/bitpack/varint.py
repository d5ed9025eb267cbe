"""LEB128 variable-length byte codec — what ``auto`` picks for most segments.

Each value is stored in 1-10 bytes of 7 payload bits; the high bit of
each byte marks continuation.  On skewed distributions (most
social-network gaps are tiny) it beats fixed-width packing, which is
why :mod:`repro.bitpack.segcodec` selects it for every compact segment
and most disk segments of the stand-ins.  Random access comes from the
segment's row-starts table: :func:`varint_decode` takes the byte
*windows* of the rows wanted and decodes them in one pass.

Decoding is word-parallel where it can be: the terminator bytes give
every value's first byte, one unaligned little-endian 64-bit load per
value fetches it (values of up to 8 bytes, i.e. below ``2**56``), the
continuation bits cut the word down to the value's own bytes, and one
shift-and-mask per byte position squeezes the 7-bit groups together —
whole-array passes over blocks that stay in cache, no boolean indexing.
One masked pass per byte *position* is the portable fallback: runs of
9-10 bytes, big-endian hosts, buffers under 8 bytes or not contiguous.
Both read the same values and raise :class:`CodecError` alike.
Encoding is one unmasked pass per byte position.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError, ValidationError
from ..utils import as_uint_array
from .fixed import _LITTLE_ENDIAN

__all__ = [
    "varint_encode",
    "varint_decode",
    "varint_nbytes",
    "varint_max_bits",
]

_MAX_BYTES = 10  # ceil(64 / 7)

# the continuation bit of each byte of a little-endian 64-bit word
_CONT_BITS = np.uint64(0x8080808080808080)

# values per pass of the word kernel: its dozen array passes over a
# block stay in cache (measured: 36 -> 22 ms on 1.9M values)
_BLOCK = 1 << 15


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
    return _nbytes_and_longest(as_uint_array(values, name="varint input"))[0]


def varint_max_bits(stream) -> int:
    """Bit width of the largest value of a canonical LEB128 *stream*,
    read off its bytes alone: ``bits_for_value(max(varint_decode(s)))``.

    A value of *L* bytes has ``7 * (L - 1) + bit_length(last byte)``
    bits (a canonical code's last byte is non-zero unless the value
    is), so the longest codes hold the largest value.  Their length is
    one more than the longest run of continuation bytes, found by one
    AND pass per byte position; the run starts then point at the last
    bytes to compare.  Nothing is decoded.  An empty stream is 1 bit,
    the width of an empty fixed-width column.
    """
    buf = np.asarray(stream, dtype=np.uint8)
    cont = buf >= 0x80
    if not cont.any():
        return max(1, int(buf.max()).bit_length()) if buf.size else 1
    run, longest = cont, 1  # run[i]: bytes i .. i + longest - 1 all continue a value
    while (nxt := run[:-1] & cont[longest:]).any():
        run, longest = nxt, longest + 1
    # a longest run starts a value (no run is longer); its terminator follows
    last = buf[np.flatnonzero(run) + longest]
    return 7 * longest + int(last.max()).bit_length()


def varint_encode(values) -> np.ndarray:
    """Encode to a contiguous ``uint8`` stream.

    One unmasked pass per byte position, highest first: position *k* of
    every value is stored, and a value shorter than *k* bytes thereby
    scribbles on a *lower* position of a later value, which a later
    pass rewrites — so no pass needs a mask or a compaction.
    """
    arr = as_uint_array(values, name="varint input")
    if arr.size == 0:
        return np.zeros(0, dtype=np.uint8)
    nbytes, longest = _nbytes_and_longest(arr)
    ends = np.cumsum(nbytes)
    total = int(ends[-1])
    offsets = ends - nbytes
    out = np.empty(total + longest, dtype=np.uint8)  # slack for the scribbles
    for k in range(longest - 1, -1, -1):
        byte = (arr >> np.uint64(7 * k)).astype(np.uint8)
        byte |= 0x80
        out[offsets + k] = byte
    ends -= 1
    out[ends] &= 0x7F  # the last byte of each value carries no continuation bit
    return out[:total]


def _window_stream(buf: np.ndarray, windows) -> np.ndarray:
    """The bytes of the row windows ``[b0, b1)`` of *buf* as one stream:
    a slice when the windows abut (a single row, a full scan), one
    gather otherwise.  A window must end on a terminator byte, so no
    value is ever decoded across two rows."""
    b0, b1 = (np.asarray(b, dtype=np.int64) for b in windows)
    if b0.ndim != 1 or b0.shape != b1.shape:
        raise ValidationError("row windows must be matching 1-D arrays")
    if b0.size == 0:
        return buf[:0]
    lengths = b1 - b0
    shortest = int(lengths.min())
    if shortest < 0 or int(b0.min()) < 0 or int(b1.max()) > buf.shape[0]:
        raise CodecError(
            f"row windows fall outside the varint stream of {buf.shape[0]} bytes"
        )
    ends = (b1 if shortest else b1[lengths > 0]) - 1
    if (buf[ends] & 0x80).any():
        raise CodecError("truncated varint stream (row window ends inside a value)")
    if (b0[1:] == b1[:-1]).all():
        return buf[int(b0[0]) : int(b1[-1])]
    out_starts = np.cumsum(lengths)
    total = int(out_starts[-1])
    out_starts -= lengths
    index = np.repeat(b0 - out_starts, lengths)
    index += np.arange(total, dtype=np.int64)
    return buf[index]


def _decode_words(buf: np.ndarray, starts: np.ndarray) -> np.ndarray | None:
    """Values of at most 8 bytes starting at bytes *starts*: one
    unaligned 64-bit load each through a stride-1 ``uint64`` view.  A
    load that would run past the buffer is moved back to its last 8
    bytes and shifted down by the bytes moved (the value ends inside
    the buffer, so it still lies inside that word).  ``None`` when some
    value has no terminator inside its word (a run of 9-10 bytes).
    """
    words = np.ndarray((buf.shape[0] - 7,), dtype=np.uint64, buffer=buf, strides=(1,))
    last = words.shape[0] - 1
    out = np.empty(starts.shape[0], dtype=np.uint64)
    for lo in range(0, starts.shape[0], _BLOCK):
        at, o = starts[lo : lo + _BLOCK], out[lo : lo + _BLOCK]
        byte = np.minimum(at, last)
        x = words[byte]
        np.subtract(at, byte, out=byte)
        byte <<= 3
        x >>= byte.view(np.uint64)
        # t marks the terminator bytes; t ^ (t - 1) covers everything up
        # to and including the first one, i.e. the value's own bytes
        t = ~x
        t &= _CONT_BITS
        if not t.all():
            return None
        own = t - np.uint64(1)
        own ^= t
        x &= own
        np.bitwise_and(x, np.uint64(0x7F), out=o)
        for k in range(1, -(-int(x.max()).bit_length() // 8)):
            x >>= np.uint64(1)  # byte k's payload now sits at bit 7 * k
            o |= x & np.uint64(0x7F << (7 * k))
    return out


def varint_decode(
    stream: np.ndarray, count: int | None = None, *, windows=None
) -> np.ndarray:
    """Decode a ``uint8`` stream produced by :func:`varint_encode`.

    When *count* is given it is validated against the stream contents.
    *windows* ``(b0, b1)`` selects the byte windows ``[b0[i], b1[i])`` of
    *stream* (rows of a segment: scattered, repeated or abutting) and
    decodes their concatenation.
    """
    buf = np.asarray(stream, dtype=np.uint8)
    if buf.ndim != 1:
        raise ValidationError("varint stream must be 1-D uint8")
    if windows is not None:
        buf = _window_stream(buf, windows)
    if buf.size == 0:
        if count not in (None, 0):
            raise CodecError(f"expected {count} values in empty stream")
        return np.zeros(0, dtype=np.uint64)
    terminators = np.flatnonzero(buf < 0x80)
    if terminators.size == 0 or int(terminators[-1]) != buf.shape[0] - 1:
        raise CodecError("truncated varint stream (missing terminator byte)")
    starts = np.empty(terminators.shape[0], dtype=np.int64)
    starts[0] = 0
    np.add(terminators[:-1], 1, out=starts[1:])
    if count is not None and count != starts.shape[0]:
        raise CodecError(f"expected {count} values, stream holds {starts.shape[0]}")
    if _LITTLE_ENDIAN and buf.shape[0] >= 8 and buf.flags.c_contiguous:
        out = _decode_words(buf, starts)
        if out is not None:
            return out
    # portable / long-run fallback: one masked pass per byte position
    lengths = terminators - starts + 1
    if int(lengths.max()) > _MAX_BYTES:
        raise CodecError("varint run exceeds 10 bytes (corrupt stream)")
    out = np.zeros(starts.shape[0], dtype=np.uint64)
    for k in range(int(lengths.max())):
        mask = lengths > k
        payload = (buf[starts[mask] + k] & 0x7F).astype(np.uint64)
        out[mask] |= payload << np.uint64(7 * k)
    return out
