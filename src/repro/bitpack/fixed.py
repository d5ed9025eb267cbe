"""Fixed-width bit packing — the codec of Gopal et al. [7].

Every value in an array is stored in exactly ``width`` bits, where
``width = bits_for_value(max(values))``.  Random access to field ``i``
is pure arithmetic (``bit i*width``), which is what makes the paper's
packed CSR *queryable without decompression*: ``GetRowFromCSR`` just
decodes the ``degree(u)`` fields starting at ``iA[u]*width``.

The bulk kernels are word-parallel.  A field of up to 57 bits, whatever
its in-byte shift, lies inside the 8 bytes starting at its first byte,
so decoding it is one unaligned little-endian 64-bit load, a shift and
a mask, read straight off ``BitArray.buffer`` (no copy, so mmap'd
read-only segments are decoded in place):

* gathers (:func:`unpack_fields_gather`, :func:`read_fields`) index a
  stride-1 ``uint64`` view of the buffer by each field's byte;
* contiguous runs (:func:`pack_fixed`, :func:`unpack_fixed`, and the
  long runs of :func:`unpack_fields_gather`) use the byte period of the
  layout: 8 fields occupy exactly ``width`` bytes, so fields
  ``j, j + 8, j + 16, ...`` sit ``width`` bytes apart with one common
  shift — the pack ORs each of the 8 phases through a constant-stride
  word view, the unpack reads all 8 as columns of one 2-D word view;
  no index array either way.

So a gather has three regimes: long runs at streaming speed, the other
fields by indexed word loads, and the bit matrix where neither applies.
``np.packbits``/``np.unpackbits`` over a ``(count, width)`` bit matrix
(``bitorder="little"``, the layout of
:class:`~repro.bitpack.bitarray.BitArray`) is that portable fallback:
big-endian hosts, widths 58-64, buffers under 8 bytes or not
contiguous, and contiguous runs too short to amortise the strided
views.  All produce the same bytes and the same values.
"""

from __future__ import annotations

import sys

import numpy as np

from ..errors import CodecError, FieldOverflowError, ValidationError
from ..utils import as_uint_array, bits_for_value, ceil_div
from .bitarray import BitArray

__all__ = [
    "pack_fixed",
    "unpack_fixed",
    "unpack_fields_gather",
    "unpack_slice",
    "read_field",
    "read_fields",
]

_MAX_FIELD = 64

# The word kernels view buffer bytes as native unsigned words, which
# matches the little-bit-order stream layout only on a little-endian
# host; big-endian hosts take the bit-matrix fallback, which is
# layout-independent.
_LITTLE_ENDIAN = sys.byteorder == "little"

# Widest field one 64-bit load always covers: the load starts at the
# field's first byte, so up to 7 of its 64 bits precede the field.
_MAX_WORD_FIELD = 57

# Contiguous runs shorter than this many bits cost less through the bit
# matrix than through the strided kernels (measured: the pack's eight
# views cost ~23 us whatever the length, the unpack's one grid view
# ~7 us, the bit matrix ~1 ns per bit).
_STRIDED_MIN_BITS = 1 << 14

# A run of the gather at least this many fields long is decoded by the
# strided kernel instead.  Inside a batch, routing a run costs ~10 us of
# fixed work (the grid view plus the bookkeeping around the gather),
# after which a field costs ~2 ns against the gather's ~6.5 ns (hot
# rows; cold rows widen the gap): the measured crossover
# (EXPERIMENTS.md, "Batched query kernels").
_RUN_MIN_FIELDS = 2048

# One weight vector per field width: decoding a (count, width) 0/1 bit
# matrix is a matvec against [1, 2, 4, ...], so the per-bit Python loop
# collapses into a single numpy pass.
_WEIGHTS: dict[int, np.ndarray] = {}


def _weight_vector(width: int) -> np.ndarray:
    w = _WEIGHTS.get(width)
    if w is None:
        w = np.uint64(1) << np.arange(width, dtype=np.uint64)
        w.setflags(write=False)
        _WEIGHTS[width] = w
    return w


_PHASES: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}


def _phase_table(width: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """First byte and in-byte shift of fields 0-7 of a contiguous run
    whose field 0 starts *shift* bits into its byte (``intp``, ``uint64``)."""
    table = _PHASES.get((width, shift))
    if table is None:
        bit = shift + width * np.arange(8)
        table = _PHASES[width, shift] = (bit >> 3, (bit & 7).astype(np.uint64))
    return table


def _check_width(width: int) -> None:
    if not (1 <= width <= _MAX_FIELD):
        raise ValidationError(f"width must be in [1, {_MAX_FIELD}], got {width}")


def _check_stream_end(bits: BitArray, end_bit: int) -> None:
    if end_bit > bits.nbits:
        raise CodecError(
            f"decode range [.., {end_bit}) exceeds stream of {bits.nbits} bits"
        )


def _field_mask(width):
    """Low *width* bits set; *width* is an ``int`` or one ``uint64`` per field."""
    if isinstance(width, np.ndarray):
        return (np.uint64(1) << width) - np.uint64(1)
    return np.uint64((1 << width) - 1)


def _word_addressable(buf: np.ndarray, width: int) -> bool:
    """Whether the word kernels can read *width*-bit fields off *buf*."""
    return (
        _LITTLE_ENDIAN
        and width <= _MAX_WORD_FIELD
        and buf.shape[0] >= 8
        and buf.flags.c_contiguous
    )


def _load_fields(buf: np.ndarray, bitpos: np.ndarray, width, top: int) -> np.ndarray:
    """Fields of *width* <= 57 bits (one width, or a ``uint64`` vector of
    per-field widths) starting at bit positions *bitpos*, none above *top*.

    One unaligned 64-bit load per field through a stride-1 ``uint64``
    view of *buf*.  Only when a load from *top* would run past the
    buffer are the loads clamped: such a load is moved back to the
    buffer's last 8 bytes and its shift grows by the bytes moved (the
    field ends inside the buffer, so it still lies inside that word).
    *bitpos* (``int64``) is used as scratch space.
    """
    words = np.ndarray((buf.shape[0] - 7,), dtype=np.uint64, buffer=buf, strides=(1,))
    byte = bitpos >> 3
    if top >> 3 < words.shape[0]:
        values = words[byte]
        bitpos &= 7
    else:
        np.minimum(byte, words.shape[0] - 1, out=byte)
        values = words[byte]
        byte <<= 3
        bitpos -= byte
    values >>= bitpos.view(np.uint64)
    values &= _field_mask(width)
    return values


def _pack_bitmatrix(arr: np.ndarray, width: int) -> np.ndarray:
    """Portable pack: expand each value to its *width* bits (LSB first)
    and pack the flattened bit matrix.  One temporary of ``8 * n * width``
    bytes, so only short or exotic inputs come here."""
    shifts = np.arange(width, dtype=np.uint64)
    bits = ((arr[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel(), bitorder="little")


def _store_word(width: int) -> np.dtype:
    """Narrowest unsigned word holding a *width*-bit field at any in-byte shift."""
    need = width + 7
    if need <= 8:
        return np.dtype(np.uint8)
    if need <= 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32 if need <= 32 else np.uint64)


def _pack_strided(arr: np.ndarray, width: int) -> np.ndarray:
    """Word-parallel pack of *width* <= 57 bit fields.

    Phase *j* (fields ``j, j + 8, ...``) ORs its shifted values into a
    word view of the output with a stride of *width* bytes.  The word is
    the narrowest holding ``width + 7`` bits, which is never wider than
    the stride, so the words of one phase do not overlap and the
    in-place OR is well defined.  The output carries 8 bytes of slack
    for the last words; the returned buffer is the exact-size view.
    """
    n = arr.shape[0]
    nbytes = ceil_div(n * width, 8)
    word = _store_word(width)
    out = np.zeros(nbytes + 8, dtype=np.uint8)
    narrow = arr.astype(word, copy=False)
    for phase in range(min(8, n)):
        bit = phase * width
        vals = narrow[phase::8]
        if bit & 7:
            vals = vals << word.type(bit & 7)
        dest = np.ndarray(
            vals.shape, dtype=word, buffer=out, offset=bit >> 3, strides=(width,)
        )
        np.bitwise_or(dest, vals, out=dest)
    return out[:nbytes]


def pack_fixed(values, width: int | None = None) -> BitArray:
    """Pack *values* into consecutive *width*-bit little-endian fields.

    When *width* is omitted it is chosen as the minimum width holding
    the largest value (at least 1 bit, so zero-filled arrays remain
    addressable).  Raises :class:`FieldOverflowError` when an explicit
    width is too narrow.
    """
    arr = as_uint_array(values, name="pack input")
    if width is None:
        width = bits_for_value(int(arr.max())) if arr.size else 1
    _check_width(width)
    if arr.size:
        max_val = int(arr.max())
        if width < _MAX_FIELD and max_val >> width:
            raise FieldOverflowError(
                f"value {max_val} does not fit in {width}-bit fields"
            )
    n = arr.shape[0]
    if n == 0:
        return BitArray.zeros(0)
    if _LITTLE_ENDIAN and width <= _MAX_WORD_FIELD and n * width >= _STRIDED_MIN_BITS:
        packed = _pack_strided(arr, width)
    else:
        packed = _pack_bitmatrix(arr, width)
    return BitArray(packed, n * width)


def _unpack_bitmatrix(
    buf: np.ndarray, count: int, width: int, bit_offset: int
) -> np.ndarray:
    """Portable unpack: one ``np.unpackbits`` over the covered bytes,
    reshaped to a ``(count, width)`` bit matrix and weighed."""
    raw = np.unpackbits(
        buf[bit_offset >> 3 : ceil_div(bit_offset + count * width, 8)],
        bitorder="little",
    )
    start = bit_offset & 7
    field_bits = raw[start : start + count * width].reshape(count, width)
    return field_bits.astype(np.uint64) @ _weight_vector(width)


def _unpack_strided(
    buf: np.ndarray, count: int, width: int, bit_offset: int, out=None
) -> np.ndarray:
    """Word-parallel unpack of *count* contiguous *width* <= 57 bit fields
    into *out* (a new ``uint64`` array when omitted).

    One 2-D word view of *buf*: row *k* starts at the byte of field
    ``8k`` and the next row *width* bytes on, so phase *j* (fields
    ``j, j + 8, ...``) is one column of it with one common shift.  Eight
    columns picked, one broadcast shift and one mask decode every row
    whose eight loads lie inside the buffer — those past the run's end
    read bytes of the next fields and are dropped.  The few trailing
    fields of a run at the buffer's end go through :func:`_load_fields`,
    which clamps.
    """
    if out is None:
        out = np.empty(count, dtype=np.uint64)
    cols, shifts = _phase_table(width, bit_offset & 7)
    base = bit_offset >> 3
    last = int(cols[7])
    rows = min(-(-count // 8), max(0, (buf.shape[0] - 8 - base - last) // width + 1))
    done = min(count, 8 * rows)
    if rows:
        grid = np.ndarray(
            (rows, last + 1), dtype=np.uint64, buffer=buf, offset=base, strides=(width, 1)
        )
        block = grid[:, cols]
        block >>= shifts
        np.bitwise_and(block.reshape(-1)[:done], _field_mask(width), out=out[:done])
    if done < count:
        bitpos = np.arange(done, count, dtype=np.int64)
        bitpos *= width
        bitpos += bit_offset
        out[done:count] = _load_fields(buf, bitpos, width, int(bitpos[-1]))
    return out


def unpack_fixed(
    bits: BitArray, count: int, width: int, *, bit_offset: int = 0
) -> np.ndarray:
    """Decode *count* *width*-bit fields starting at *bit_offset*.

    Vectorised inverse of :func:`pack_fixed`; returns ``uint64``.
    """
    _check_width(width)
    if count < 0:
        raise ValidationError("count must be non-negative")
    end_bit = bit_offset + count * width
    if bit_offset < 0 or end_bit > bits.nbits:
        raise CodecError(
            f"decode range [{bit_offset}, {end_bit}) exceeds stream of {bits.nbits} bits"
        )
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    buf = bits.buffer
    if count * width >= _STRIDED_MIN_BITS and _word_addressable(buf, width):
        return _unpack_strided(buf, count, width, bit_offset)
    return _unpack_bitmatrix(buf, count, width, bit_offset)


def _decode_at(bits: BitArray, width, bitpos: np.ndarray, top: int | None = None) -> np.ndarray:
    """Decode the fields starting at the (validated, non-empty) bit
    positions *bitpos*; consumes *bitpos*.  *width* is one width, the
    positions multiples of it, or a ``uint64`` vector of per-field
    widths at arbitrary positions (segments of different widths in one
    buffer).  *top* bounds the positions from above; the stream's last
    bit always does, and a caller that knows a tighter bound passes it."""
    buf = bits.buffer
    per_field = isinstance(width, np.ndarray)
    if _word_addressable(buf, int(width.max()) if per_field else width):
        return _load_fields(buf, bitpos, width, bits.nbits - 1 if top is None else top)
    if per_field:  # portable: one scalar read per field
        reads = zip(bitpos.tolist(), width.tolist())
        return np.array([bits.read_uint(p, w) for p, w in reads], dtype=np.uint64)
    # portable: decode the whole span between the lowest and highest
    # requested field, then pick the requested ones out of it
    first_bit = int(bitpos.min())
    nfields = (int(bitpos.max()) - first_bit) // width + 1
    span = _unpack_bitmatrix(buf, nfields, width, first_bit)
    bitpos -= first_bit
    return span[bitpos // width]


def unpack_fields_gather(
    bits: BitArray, width: int, starts, counts
) -> tuple[np.ndarray, np.ndarray]:
    """Decode many field runs in one vectorised pass.

    Run *i* covers fields ``[starts[i], starts[i] + counts[i])`` of the
    *width*-bit stream.  Returns ``(values, offsets)`` where ``values``
    is the ``uint64`` concatenation of every decoded run and
    ``offsets`` (``int64``, length ``len(starts) + 1``) delimits run
    *i* as ``values[offsets[i]:offsets[i + 1]]``.

    This is the batch counterpart of :func:`unpack_slice`, and it has
    three regimes, all bit-exact against it:

    * a run of at least ``_RUN_MIN_FIELDS`` fields (a hub row) is
      decoded by the strided word kernel of :func:`unpack_fixed`,
      straight into its slice of the output — one load per field and
      no index array, at streaming speed;
    * every other field is read in one gather over all the short runs:
      its bit position is computed from the run geometry, then one
      unaligned 64-bit load off the stream's buffer, a shift and a mask
      (about eight passes over those fields, dominated by the indexed
      load).  Nothing is copied out of the stream however far apart the
      runs lie, and there is no per-run Python loop, which is what makes
      the batched query algorithms (Section V) fast on the packed CSR;
    * where the word loads do not apply (see the module docstring), the
      span between the first and last requested field is decoded
      through the bit matrix instead.

    Runs may overlap or repeat, in any order.
    """
    _check_width(width)
    s = np.asarray(starts, dtype=np.int64)
    c = np.asarray(counts, dtype=np.int64)
    if s.ndim != 1 or c.ndim != 1 or s.shape != c.shape:
        raise ValidationError("starts and counts must be matching 1-D arrays")
    offsets = np.zeros(s.shape[0] + 1, dtype=np.int64)
    np.cumsum(c, out=offsets[1:])
    if s.size:
        if int(c.min()) < 0:
            raise ValidationError("counts must be non-negative")
        if int(s.min()) < 0:
            raise ValidationError("starts must be non-negative")
        end_bit = int((s + c).max()) * width
        _check_stream_end(bits, end_bit)
    total = int(offsets[-1])
    if total == 0:
        return np.zeros(0, dtype=np.uint64), offsets
    top = end_bit - width  # no requested field starts above it
    buf = bits.buffer
    long = np.flatnonzero(c >= _RUN_MIN_FIELDS)
    if not long.size or not _word_addressable(buf, width):
        return _decode_at(bits, width, _run_bitpos(s, c, offsets[:-1], width), top), offsets
    out = np.empty(total, dtype=np.uint64)
    if long.size < c.size:  # the short runs' fields, in one gather
        short = c.copy()
        short[long] = 0
        first = np.cumsum(short)
        first -= short
        gathered = _load_fields(buf, _run_bitpos(s, short, first, width), width, top)
    # the short runs between two long ones fill one block of both arrays
    done = taken = 0
    for run in long.tolist():
        lo, hi = int(offsets[run]), int(offsets[run + 1])
        if lo > done:
            out[done:lo] = gathered[taken : taken + lo - done]
            taken += lo - done
        _unpack_strided(buf, hi - lo, width, int(s[run]) * width, out[lo:hi])
        done = hi
    if done < total:
        out[done:] = gathered[taken:]
    return out, offsets


def _run_bitpos(s: np.ndarray, c: np.ndarray, first: np.ndarray, width: int) -> np.ndarray:
    """Bit position of every field of the runs ``[s[i], s[i] + c[i])``,
    concatenated in run order; run *i* starts at output index ``first[i]``
    (the exclusive prefix sum of *c*, so the runs hold ``first[-1] + c[-1]``
    fields)."""
    bitpos = np.arange(0, int(first[-1] + c[-1]) * width, width, dtype=np.int64)
    # each field's run's first bit plus its place in the output, less
    # the run's place in the output
    bitpos += np.repeat((s - first) * width, c)
    return bitpos


def unpack_slice(bits: BitArray, width: int, first_field: int, nfields: int) -> np.ndarray:
    """Decode fields ``[first_field, first_field + nfields)``.

    This is the row-extraction primitive behind ``GetRowFromCSR`` [28]:
    a CSR row is a contiguous run of fixed-width fields.
    """
    if first_field < 0:
        raise ValidationError("first_field must be non-negative")
    return unpack_fixed(bits, nfields, width, bit_offset=first_field * width)


def read_field(bits: BitArray, width: int, index: int) -> int:
    """Scalar decode of field *index* (single offset lookups)."""
    return bits.read_uint(index * width, width)


def read_fields(bits: BitArray, width: int, indices) -> np.ndarray:
    """Gather-decode of arbitrary field *indices* (``uint64``).

    Batch counterpart of :func:`read_field`: one unaligned 64-bit load
    per index instead of a scalar read (see
    :func:`unpack_fields_gather`).
    """
    _check_width(width)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValidationError("indices must be a 1-D array")
    if idx.size == 0:
        return np.zeros(0, dtype=np.uint64)
    if int(idx.min()) < 0:
        raise ValidationError("indices must be non-negative")
    top = int(idx.max()) * width
    _check_stream_end(bits, top + width)
    return _decode_at(bits, width, idx * width, top)
