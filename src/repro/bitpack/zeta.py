"""Zeta-k codes — Boldi-Vigna-style gap codes for power-law columns.

The zeta codes of the WebGraph framework (PAPERS.md; Boldi & Vigna,
"The WebGraph Framework I") are tuned to the power-law gap
distributions that vertex reordering produces on social networks: a
*shard* parameter ``k`` trades prefix cost against remainder cost, with
``k`` in 2..4 near-optimal for web/social gap exponents.

This module implements a little-endian variant that keeps the family's
size behaviour while staying friendly to this repo's vectorised,
LSB-first bit layout.  A value ``v`` (with ``x = v + 1`` so zero is
codable) is written as

* ``h = floor(log2 x) // k`` in unary — ``h`` zero bits then a one bit
  (the convention of :meth:`~repro.bitpack.bitarray.BitReader.read_unary`);
* the remainder ``x - 2**(h*k)`` in exactly ``min(h*k + k, 64)`` bits,
  LSB first.

Unlike the original's truncated-binary remainder, the remainder width
here is fully determined by ``h`` — at most one bit per value of
overhead — so a decoder knows every codeword's length after reading the
unary prefix alone.  That is what makes :func:`zeta_decode_rows`
vectorisable *across* rows: each numpy pass decodes one codeword per
pending row via two aligned 64-bit loads, so a batch of R rows decodes
in ``max(degree)`` passes instead of ``sum(degree)`` scalar steps.

The codable domain is ``0 <= v <= 2**63 - 1`` (so ``x`` and every
remainder fit an unsigned 64-bit lane); graph gaps sit far below it.

The Elias gamma and delta code lengths of the codec ablation
(:func:`elias_gamma_nbits`, :func:`elias_delta_nbits`) live here too:
they share the domain, the ``x = v + 1`` shift and the ``floor(log2 x)``
kernel.  Elias codes are ablation comparators only, never a segment
codec, so only their exact sizes are computed.
"""

from __future__ import annotations

import numpy as np

from ..errors import CodecError, ValidationError
from ..utils import as_uint_array
from .bitarray import BitArray, BitReader

__all__ = [
    "zeta_value_nbits",
    "zeta_encode",
    "zeta_decode",
    "zeta_decode_rows",
    "elias_gamma_nbits",
    "elias_delta_nbits",
]

_MAX_VALUE = (1 << 63) - 1


def _check_k(k: int) -> None:
    if not (1 <= int(k) <= 16):
        raise ValidationError(f"zeta shard k must be in [1, 16], got {k}")


def _codable(values, name: str) -> np.ndarray:
    arr = as_uint_array(values, name=f"{name} input")
    if arr.size and int(arr.max()) > _MAX_VALUE:
        raise CodecError(f"{name} codes cover values up to {_MAX_VALUE}")
    return arr


def _validate(values, k: int) -> np.ndarray:
    _check_k(k)
    return _codable(values, "zeta")


def _floor_log2(x: np.ndarray) -> np.ndarray:
    """floor(log2(x)) per element for x >= 1 (int64), in six masked passes."""
    out = np.zeros(x.shape[0], dtype=np.int64)
    y = x.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        mask = y >= (np.uint64(1) << np.uint64(shift))
        out[mask] += shift
        y[mask] >>= np.uint64(shift)
    return out


def _code_parts(arr: np.ndarray, k: int):
    """Per-value (h, remainder, remainder_width) of the zeta-k codeword."""
    x = arr + np.uint64(1)
    h = _floor_log2(x) // k
    width = np.minimum(h * k + k, 64)
    rem = x - (np.uint64(1) << (h * k).astype(np.uint64))
    return h, rem, width


def zeta_value_nbits(values, k: int) -> np.ndarray:
    """Encoded length in bits of each value under zeta-*k* (vectorised)."""
    h, _, width = _code_parts(_validate(values, k), k)
    return h + 1 + width


def elias_gamma_nbits(values) -> np.ndarray:
    """Elias-gamma length in bits of each ``v + 1``: ``2 * floor(log2(v + 1)) + 1``."""
    return 2 * _floor_log2(_codable(values, "elias") + np.uint64(1)) + 1


def elias_delta_nbits(values) -> np.ndarray:
    """Elias-delta length in bits of each ``v + 1``: ``L + 2 * floor(log2(L + 1)) + 1``
    with ``L = floor(log2(v + 1))``."""
    length = _floor_log2(_codable(values, "elias") + np.uint64(1))
    return length + 2 * _floor_log2(length.astype(np.uint64) + np.uint64(1)) + 1


def zeta_encode(values, k: int) -> BitArray:
    """Encode *values* into a contiguous zeta-*k* bit stream.

    Vectorised as masked passes over codeword *bit positions* (at most
    ``64`` remainder passes), not over values.
    """
    arr = _validate(values, k)
    if arr.size == 0:
        return BitArray.zeros(0)
    h, rem, width = _code_parts(arr, k)
    lengths = h + 1 + width
    starts = np.zeros(arr.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    total = int(starts[-1] + lengths[-1])
    bits = np.zeros(total, dtype=np.uint8)
    bits[starts + h] = 1  # unary terminator after h zero bits
    rem_base = starts + h + 1
    for j in range(int(width.max())):
        mask = width > j
        bits[rem_base[mask] + j] = (
            (rem[mask] >> np.uint64(j)) & np.uint64(1)
        ).astype(np.uint8)
    return BitArray(np.packbits(bits, bitorder="little"), total)


def zeta_decode(bits: BitArray, count: int, k: int, *, pos: int = 0) -> np.ndarray:
    """Scalar decode of *count* consecutive codewords starting at *pos*.

    A cursor walk (unary prefix, then the prefix-determined remainder) —
    the tests' reference decoder.  The query kernels use
    :func:`zeta_decode_rows` instead.
    """
    if count < 0:
        raise ValidationError("count must be non-negative")
    reader = BitReader(bits, pos)
    out = np.zeros(count, dtype=np.uint64)
    for i in range(count):
        h = reader.read_unary()
        width = min(h * k + k, 64)
        if width > reader.remaining:
            raise CodecError("zeta stream truncated inside a remainder")
        rem = reader.read(width)
        out[i] = (rem + (1 << (h * k))) - 1
    return out


def zeta_decode_rows(
    bits: BitArray,
    bit_starts,
    counts,
    k: int,
    *,
    bit_ends=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode many codeword runs in ``max(counts)`` vectorised passes.

    Run *i* holds ``counts[i]`` consecutive codewords starting at bit
    ``bit_starts[i]``.  Returns ``(values, offsets)`` shaped like
    :func:`~repro.bitpack.fixed.unpack_fields_gather`.  Each pass
    advances every still-pending run by one codeword through two
    aligned 64-bit loads out of a zero-padded word window, so the work
    is a numpy loop over the *maximum* run length, not a scalar loop
    over every value.

    When *bit_ends* is given (one past each run's last bit) the padded
    word window copied out of the stream is bounded by the span the
    requested runs actually touch — the selective-loading contract the
    disk store relies on.
    """
    _check_k(k)
    s = np.asarray(bit_starts, dtype=np.int64)
    c = np.asarray(counts, dtype=np.int64)
    if s.ndim != 1 or c.ndim != 1 or s.shape != c.shape:
        raise ValidationError("bit_starts and counts must be matching 1-D arrays")
    offsets = np.zeros(s.shape[0] + 1, dtype=np.int64)
    np.cumsum(c, out=offsets[1:])
    total = int(offsets[-1])
    out = np.zeros(total, dtype=np.uint64)
    if total == 0:
        return out, offsets
    if int(c.min()) < 0:
        raise ValidationError("counts must be non-negative")
    active_rows = c > 0
    lo_bit = int(s[active_rows].min())
    if bit_ends is None:
        hi_bit = bits.nbits
    else:
        e = np.asarray(bit_ends, dtype=np.int64)
        hi_bit = int(e[active_rows].max())
    if lo_bit < 0 or hi_bit > bits.nbits:
        raise CodecError(
            f"decode range [{lo_bit}, {hi_bit}) exceeds stream of {bits.nbits} bits"
        )
    # zero-padded word window covering [lo_bit, hi_bit) plus the
    # look-ahead word the two-load trick reads
    word_lo = lo_bit >> 6
    word_hi = (max(hi_bit - 1, lo_bit) >> 6) + 2
    byte_lo = word_lo << 3
    avail = max(0, min(bits.buffer.shape[0], word_hi << 3) - byte_lo)
    window = np.zeros((word_hi - word_lo) << 3, dtype=np.uint8)
    window[:avail] = bits.buffer[byte_lo : byte_lo + avail]
    words = window.view(np.uint64)

    def load64(pos: np.ndarray) -> np.ndarray:
        widx = (pos >> 6) - word_lo
        off = (pos & 63).astype(np.uint64)
        low = words[widx] >> off
        high = np.where(
            off > 0,
            words[widx + 1] << ((np.uint64(64) - off) & np.uint64(63)),
            np.uint64(0),
        )
        return low | high

    cursor = s.copy()
    write = offsets[:-1].copy()
    remaining = c.copy()
    pending = np.flatnonzero(remaining > 0)
    full = np.uint64(0xFFFFFFFFFFFFFFFF)
    while pending.size:
        pos = cursor[pending]
        head = load64(pos)
        if not head.all():
            raise CodecError("zeta stream truncated inside a unary prefix")
        lowest = head & (~head + np.uint64(1))
        h = np.rint(np.log2(lowest.astype(np.float64))).astype(np.int64)
        width = np.minimum(h * k + k, 64)
        rem = load64(pos + h + 1)
        mask = np.where(width >= 64, full, (np.uint64(1) << width.astype(np.uint64)) - np.uint64(1))
        value = ((rem & mask) + (np.uint64(1) << (h * k).astype(np.uint64))) - np.uint64(1)
        out[write[pending]] = value
        cursor[pending] = pos + h + 1 + width
        write[pending] += 1
        remaining[pending] -= 1
        pending = pending[remaining[pending] > 0]
    return out, offsets
