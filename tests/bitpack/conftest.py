import pytest

from repro.bitpack import fixed


@pytest.fixture
def portable_only(monkeypatch):
    """Force the fixed-width bit-matrix fallback, as on a big-endian host."""
    monkeypatch.setattr(fixed, "_LITTLE_ENDIAN", False)
