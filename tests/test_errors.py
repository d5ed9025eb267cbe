"""The exception hierarchy contracts callers rely on."""

import pytest

from repro.errors import (
    BatchShapeError,
    CodecError,
    FieldOverflowError,
    FrameError,
    NotSortedError,
    QueryError,
    ReproError,
    ValidationError,
)


@pytest.mark.parametrize(
    "exc",
    [ValidationError, NotSortedError, CodecError, FieldOverflowError, QueryError, FrameError],
)
def test_all_derive_from_repro_error(exc):
    assert issubclass(exc, ReproError)


def test_validation_is_value_error():
    # generic ValueError handlers must also catch our validation failures
    assert issubclass(ValidationError, ValueError)
    assert issubclass(QueryError, ValueError)
    assert issubclass(FrameError, ValueError)


def test_not_sorted_is_validation():
    assert issubclass(NotSortedError, ValidationError)


def test_batch_shape_is_both_query_and_validation():
    # stores historically raised QueryError for a 2-D batch, the row
    # cache ValidationError; the one shared key check satisfies both
    assert issubclass(BatchShapeError, QueryError)
    assert issubclass(BatchShapeError, ValidationError)


def test_overflow_is_both_codec_and_overflow():
    assert issubclass(FieldOverflowError, CodecError)
    assert issubclass(FieldOverflowError, OverflowError)
