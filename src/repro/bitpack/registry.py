"""Codec protocol, payload container, and the codec registry.

A codec maps a 1-D non-negative integer array to an
:class:`Encoded` payload (a :class:`BitArray` plus self-describing
metadata) and back.  The registry gives benches and the packed-CSR
builder one place to enumerate comparators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import CodecError
from .bitarray import BitArray

__all__ = [
    "Encoded",
    "Codec",
    "register_codec",
    "get_codec",
    "available_codecs",
]


@dataclass(frozen=True)
class Encoded:
    """A compressed payload: bit stream + codec name + decode metadata."""

    codec: str
    bits: BitArray
    meta: dict = field(default_factory=dict)

    @property
    def nbits(self) -> int:
        return self.bits.nbits

    @property
    def nbytes(self) -> int:
        return self.bits.nbytes

    def bits_per_value(self) -> float:
        """Encoded bits per input value."""
        count = int(self.meta.get("count", 0))
        return self.nbits / count if count else float(self.nbits)


@runtime_checkable
class Codec(Protocol):
    """Structural protocol every codec implements."""

    name: str

    def encode(self, values) -> Encoded:
        """Compress *values* into a self-describing payload."""
        ...

    def decode(self, encoded: Encoded) -> np.ndarray:
        """Recover the exact array from an encoded payload."""
        ...


_REGISTRY: dict[str, Codec] = {}


def register_codec(codec: Codec, *, replace: bool = False) -> Codec:
    """Add *codec* to the registry (idempotent with ``replace=True``)."""
    if codec.name in _REGISTRY and not replace:
        raise CodecError(f"codec '{codec.name}' already registered")
    _REGISTRY[codec.name] = codec
    return codec


def get_codec(name: str) -> Codec:
    """Look up a registered codec by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise CodecError(f"unknown codec '{name}' (known: {known})") from None


def available_codecs() -> list[str]:
    """Names of every registered codec, sorted."""
    return sorted(_REGISTRY)


def _register_builtins() -> None:
    from .elias import EliasDeltaCodec, EliasGammaCodec
    from .fixed import FixedWidthCodec
    from .varint import VarintCodec
    from .zeta import ZetaCodec

    for codec in (FixedWidthCodec(), VarintCodec(), EliasGammaCodec(), EliasDeltaCodec(),
                  ZetaCodec(2), ZetaCodec(3), ZetaCodec(4)):
        if codec.name not in _REGISTRY:
            register_codec(codec)


_register_builtins()
