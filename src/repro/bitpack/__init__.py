"""Bit-packing substrate: the codec of [7] and the segment codec table.

Fixed-width packing (:func:`pack_fixed`) is what the paper's Algorithm 4
applies to the CSR offset and column arrays.  Every codec a column
segment can use — fixed, varint and zeta-k — is one entry of
:data:`SEGMENT_CODECS`; the codec ablation sizes each from its entry's
exact ``measure``, beside the Elias gamma/delta code lengths of
:func:`elias_gamma_nbits` / :func:`elias_delta_nbits`.
"""

from .bitarray import BitArray, BitReader, blit_bits
from .delta import row_gaps, rows_from_gaps
from .fixed import (
    pack_fixed,
    read_field,
    read_fields,
    unpack_fields_gather,
    unpack_fixed,
    unpack_slice,
)
from .segcodec import (
    DEFAULT_CANDIDATES,
    SEGMENT_CODECS,
    SegmentEncoding,
    encode_row_segment,
    encode_row_segments,
    resolve_codecs,
    segment_codec,
)
from .varint import varint_decode, varint_encode, varint_nbytes
from .zeta import (
    elias_delta_nbits,
    elias_gamma_nbits,
    zeta_decode,
    zeta_decode_rows,
    zeta_encode,
    zeta_value_nbits,
)

__all__ = [
    "BitArray",
    "BitReader",
    "blit_bits",
    "row_gaps",
    "rows_from_gaps",
    "pack_fixed",
    "read_field",
    "read_fields",
    "unpack_fields_gather",
    "unpack_fixed",
    "unpack_slice",
    "varint_decode",
    "varint_encode",
    "varint_nbytes",
    "elias_delta_nbits",
    "elias_gamma_nbits",
    "zeta_decode",
    "zeta_decode_rows",
    "zeta_encode",
    "zeta_value_nbits",
    "DEFAULT_CANDIDATES",
    "SEGMENT_CODECS",
    "SegmentEncoding",
    "encode_row_segment",
    "encode_row_segments",
    "resolve_codecs",
    "segment_codec",
]
