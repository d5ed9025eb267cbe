"""Edge-list persistence, plus exact size accounting.

Readers accept the SNAP text format the paper's datasets ship in
(whitespace-separated ``u v`` pairs, ``#`` comment lines).  The size
helpers compute the byte footprint of each representation *without*
writing it, which is how the benches fill Table II's "EdgeList Size"
column at paper scale.
"""

from __future__ import annotations

import gzip
import io
import os
from pathlib import Path

import numpy as np

from ..errors import ValidationError
from ..utils import digits10

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_edge_list_binary",
    "write_edge_list_binary",
    "is_binary_edge_list",
    "binary_edge_list_info",
    "iter_edge_list_binary",
    "edge_list_text_size",
]

_BINARY_MAGIC = b"REPROEL1"
_HEADER_BYTES = len(_BINARY_MAGIC) + 8 + 1  # magic, uint64 count, uint8 itemsize


def _read_exact(fh, nbytes: int, path, what: str) -> bytes:
    """Read exactly *nbytes* or raise a clean :class:`ValidationError`."""
    data = fh.read(nbytes)
    if len(data) != nbytes:
        raise ValidationError(
            f"{path}: truncated binary edge list "
            f"({what}: got {len(data)} of {nbytes} bytes)"
        )
    return data


def _read_binary_header(fh, path) -> tuple[int, int, np.dtype]:
    """Parse the magic/count/itemsize header; returns (count, itemsize, dtype)."""
    magic = fh.read(len(_BINARY_MAGIC))
    if magic != _BINARY_MAGIC:
        raise ValidationError(f"{path}: not a repro binary edge list")
    count = int.from_bytes(_read_exact(fh, 8, path, "edge count"), "little")
    itemsize = _read_exact(fh, 1, path, "item size")[0]
    dtype = {4: np.dtype(np.uint32), 8: np.dtype(np.uint64)}.get(itemsize)
    if dtype is None:
        raise ValidationError(f"{path}: unsupported item size {itemsize}")
    return count, itemsize, dtype


def read_edge_list(path, *, comments: str = "#") -> tuple[np.ndarray, np.ndarray, int]:
    """Read a SNAP-style text edge list.

    Returns ``(sources, destinations, n)`` where ``n`` is one more than
    the largest id seen (ids are assumed 0-based).  Raises on malformed
    lines rather than skipping them silently.  ``.gz`` paths are
    decompressed transparently (SNAP distributes its datasets gzipped).
    """
    path = Path(path)
    tokens: list[int] = []
    opener = (
        (lambda: gzip.open(path, "rt", encoding="utf-8"))
        if path.suffix == ".gz"
        else (lambda: path.open("r", encoding="utf-8"))
    )
    with opener() as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(comments):
                continue
            parts = stripped.split()
            if len(parts) != 2:
                raise ValidationError(
                    f"{path}:{lineno}: expected 'u v', got {stripped!r}"
                )
            try:
                tokens.append(int(parts[0]))
                tokens.append(int(parts[1]))
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: non-integer id") from exc
    if not tokens:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            0,
        )
    arr = np.asarray(tokens, dtype=np.int64)
    if int(arr.min()) < 0:
        raise ValidationError(f"{path}: negative node id")
    src = arr[0::2].copy()
    dst = arr[1::2].copy()
    return src, dst, int(arr.max()) + 1


def write_edge_list(path, sources, destinations) -> int:
    """Write a text edge list (gzipped when *path* ends in ``.gz``);
    returns payload bytes (uncompressed size)."""
    src = np.asarray(sources)
    dst = np.asarray(destinations)
    if src.shape != dst.shape:
        raise ValidationError("edge arrays must match in length")
    buf = io.StringIO()
    for u, v in zip(src.tolist(), dst.tolist()):
        buf.write(f"{u}\t{v}\n")
    data = buf.getvalue().encode("utf-8")
    path = Path(path)
    if path.suffix == ".gz":
        with gzip.open(path, "wb") as fh:
            fh.write(data)
    else:
        path.write_bytes(data)
    return len(data)


def edge_list_text_size(sources, destinations) -> int:
    """Exact bytes of the text edge list without materialising it.

    Layout per edge: ``digits(u) + 1 (tab) + digits(v) + 1 (newline)``,
    matching :func:`write_edge_list` byte for byte.
    """
    src = np.asarray(sources)
    dst = np.asarray(destinations)
    if src.shape != dst.shape:
        raise ValidationError("edge arrays must match in length")
    if src.size == 0:
        return 0
    return int(digits10(src).sum() + digits10(dst).sum() + 2 * src.shape[0])


def write_edge_list_binary(path, sources, destinations) -> int:
    """Write a compact binary edge list; returns bytes written.

    Format: magic, little-endian uint64 edge count, then the two arrays
    as uint32 (or uint64 when ids exceed 32 bits).
    """
    src = np.asarray(sources)
    dst = np.asarray(destinations)
    if src.shape != dst.shape:
        raise ValidationError("edge arrays must match in length")
    max_id = int(max(src.max(initial=0), dst.max(initial=0))) if src.size else 0
    dtype = np.uint32 if max_id <= np.iinfo(np.uint32).max else np.uint64
    itemsize = np.dtype(dtype).itemsize
    with open(path, "wb") as fh:
        fh.write(_BINARY_MAGIC)
        fh.write(np.uint64(src.shape[0]).tobytes())
        fh.write(np.uint8(itemsize).tobytes())
        fh.write(src.astype(dtype).tobytes())
        fh.write(dst.astype(dtype).tobytes())
    return os.path.getsize(path)


def read_edge_list_binary(path) -> tuple[np.ndarray, np.ndarray, int]:
    """Read the binary format of :func:`write_edge_list_binary`.

    Returns ``(sources, destinations, n)``; any truncation — in the
    header or the payload — raises :class:`ValidationError` naming the
    file, never a raw buffer/EOF traceback.
    """
    with open(path, "rb") as fh:
        count, itemsize, dtype = _read_binary_header(fh, path)
        payload = fh.read()
    expected = 2 * count * itemsize
    if len(payload) != expected:
        raise ValidationError(
            f"{path}: truncated payload ({len(payload)} bytes, expected {expected})"
        )
    arr = np.frombuffer(payload, dtype=dtype)
    src = arr[:count].astype(np.int64)
    dst = arr[count:].astype(np.int64)
    n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    return src, dst, max(n, 0)


def is_binary_edge_list(path) -> bool:
    """True when *path* is readable and starts with the binary edge-list
    magic (anything else is read as text)."""
    try:
        with open(path, "rb") as fh:
            return fh.read(len(_BINARY_MAGIC)) == _BINARY_MAGIC
    except OSError:
        return False


def binary_edge_list_info(path) -> tuple[int, int]:
    """Header peek of a binary edge list: ``(edge_count, itemsize)``.

    Validates the magic, the header, and that the file holds exactly the
    payload the header promises — without reading the payload — so
    out-of-core consumers can size their passes up front and fail fast
    on truncated files.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        count, itemsize, _ = _read_binary_header(fh, path)
    expected = _HEADER_BYTES + 2 * count * itemsize
    actual = path.stat().st_size
    if actual != expected:
        raise ValidationError(
            f"{path}: truncated payload ({actual - _HEADER_BYTES} bytes, "
            f"expected {2 * count * itemsize})"
        )
    return count, itemsize


def iter_edge_list_binary(path, *, chunk_edges: int = 1 << 20):
    """Stream a binary edge list in ``(sources, destinations)`` chunks.

    Yields ``int64`` array pairs of at most *chunk_edges* edges, in file
    order, reading O(chunk) bytes at a time — the access pattern the
    out-of-core builder (:func:`repro.disk.build_disk_store`) makes its
    passes with.  The header (and total file size) is validated before
    the first chunk is yielded.
    """
    if chunk_edges <= 0:
        raise ValidationError("chunk_edges must be positive")
    count, itemsize = binary_edge_list_info(path)
    dtype = {4: np.dtype(np.uint32), 8: np.dtype(np.uint64)}[itemsize]
    with open(path, "rb") as fh:
        for lo in range(0, count, chunk_edges):
            take = min(chunk_edges, count - lo)
            fh.seek(_HEADER_BYTES + lo * itemsize)
            src = np.frombuffer(
                _read_exact(fh, take * itemsize, path, "source chunk"), dtype=dtype
            )
            fh.seek(_HEADER_BYTES + (count + lo) * itemsize)
            dst = np.frombuffer(
                _read_exact(fh, take * itemsize, path, "destination chunk"),
                dtype=dtype,
            )
            yield src.astype(np.int64), dst.astype(np.int64)

