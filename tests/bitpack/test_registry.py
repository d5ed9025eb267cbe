"""Codec registry behaviour."""

import numpy as np
import pytest

from repro.bitpack.registry import (
    Codec,
    Encoded,
    available_codecs,
    get_codec,
    register_codec,
)
from repro.errors import CodecError


class TestRegistryContents:
    def test_builtins_present(self):
        assert {"fixed", "varint", "elias_gamma", "elias_delta"} <= set(
            available_codecs()
        )

    def test_get_unknown_names_the_known(self):
        with pytest.raises(CodecError, match="fixed"):
            get_codec("nope")

    def test_every_codec_satisfies_protocol_and_roundtrips(self, rng):
        values = rng.integers(0, 5000, 300).astype(np.uint64)
        for name in available_codecs():
            codec = get_codec(name)
            assert isinstance(codec, Codec)
            enc = codec.encode(values)
            assert isinstance(enc, Encoded)
            assert enc.nbits >= 0
            assert np.array_equal(codec.decode(enc), values)


class TestRegisterCodec:
    def test_duplicate_rejected_then_replaceable(self):
        class Dummy:
            name = "fixed"

            def encode(self, values):
                raise NotImplementedError

            def decode(self, encoded):
                raise NotImplementedError

        with pytest.raises(CodecError, match="already registered"):
            register_codec(Dummy())
        original = get_codec("fixed")
        register_codec(Dummy(), replace=True)
        try:
            assert isinstance(get_codec("fixed"), Dummy)
        finally:
            register_codec(original, replace=True)


class TestEncoded:
    def test_bits_per_value(self, rng):
        values = rng.integers(0, 2**10, 100).astype(np.uint64)
        enc = get_codec("fixed").encode(values)
        assert enc.bits_per_value() == pytest.approx(enc.nbits / 100)
        assert enc.nbytes == enc.bits.nbytes
