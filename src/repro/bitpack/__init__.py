"""Bit-packing substrate: the codec of [7] plus ablation comparators.

Fixed-width packing (:func:`pack_fixed`) is what the paper's Algorithm 4
applies to the CSR offset and column arrays; varint/Elias/gap codecs are
provided for the codec ablation bench and the temporal baselines.
"""

from .bitarray import BitArray, BitReader, BitWriter, blit_bits
from .delta import (
    delta_decode_sorted,
    delta_encode_sorted,
    row_gaps,
    rows_from_gaps,
)
from .elias import (
    EliasDeltaCodec,
    EliasGammaCodec,
    delta_decode,
    delta_encode,
    gamma_decode,
    gamma_encode,
)
from .fixed import (
    FixedWidthCodec,
    pack_fixed,
    read_field,
    read_fields,
    unpack_fields_gather,
    unpack_fixed,
    unpack_slice,
)
from .registry import (
    Codec,
    Encoded,
    available_codecs,
    get_codec,
    register_codec,
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
from .varint import VarintCodec, varint_decode, varint_encode, varint_nbytes
from .zeta import (
    ZetaCodec,
    zeta_decode,
    zeta_decode_rows,
    zeta_encode,
    zeta_value_nbits,
)

__all__ = [
    "BitArray",
    "BitReader",
    "BitWriter",
    "blit_bits",
    "delta_decode_sorted",
    "delta_encode_sorted",
    "row_gaps",
    "rows_from_gaps",
    "EliasDeltaCodec",
    "EliasGammaCodec",
    "delta_decode",
    "delta_encode",
    "gamma_decode",
    "gamma_encode",
    "FixedWidthCodec",
    "pack_fixed",
    "read_field",
    "read_fields",
    "unpack_fields_gather",
    "unpack_fixed",
    "unpack_slice",
    "Codec",
    "Encoded",
    "available_codecs",
    "get_codec",
    "register_codec",
    "VarintCodec",
    "varint_decode",
    "varint_encode",
    "varint_nbytes",
    "ZetaCodec",
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
