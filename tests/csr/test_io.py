"""Edge-list persistence and exact size accounting."""

import numpy as np
import pytest

from repro.csr.io import (
    binary_edge_list_info,
    edge_list_text_size,
    iter_edge_list_binary,
    read_edge_list,
    read_edge_list_binary,
    write_edge_list,
    write_edge_list_binary,
)
from repro.errors import ValidationError


@pytest.fixture
def edges(rng):
    src = np.sort(rng.integers(0, 1000, 500))
    dst = rng.integers(0, 1000, 500)
    return src, dst


class TestTextFormat:
    def test_roundtrip(self, tmp_path, edges):
        src, dst = edges
        path = tmp_path / "g.txt"
        nbytes = write_edge_list(path, src, dst)
        assert nbytes == path.stat().st_size
        rs, rd, n = read_edge_list(path)
        assert np.array_equal(rs, src)
        assert np.array_equal(rd, dst)
        assert n == max(src.max(), dst.max()) + 1

    def test_size_accounting_exact(self, tmp_path, edges):
        src, dst = edges
        path = tmp_path / "g.txt"
        assert write_edge_list(path, src, dst) == edge_list_text_size(src, dst)

    def test_size_empty(self):
        assert edge_list_text_size(np.zeros(0, np.int64), np.zeros(0, np.int64)) == 0

    def test_snap_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# SNAP header\n\n0\t1\n2 3\n")
        src, dst, n = read_edge_list(path)
        assert src.tolist() == [0, 2]
        assert dst.tolist() == [1, 3]
        assert n == 4

    def test_malformed_line_named(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n0 1 2\n")
        with pytest.raises(ValidationError, match=":2"):
            read_edge_list(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(ValidationError, match="non-integer"):
            read_edge_list(path)

    def test_negative_id_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("-1 0\n")
        with pytest.raises(ValidationError, match="negative"):
            read_edge_list(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# nothing\n")
        src, dst, n = read_edge_list(path)
        assert src.size == 0 and n == 0

    def test_length_mismatch(self, tmp_path):
        with pytest.raises(ValidationError):
            write_edge_list(tmp_path / "g.txt", np.array([1]), np.array([1, 2]))


class TestBinaryFormat:
    def test_roundtrip(self, tmp_path, edges):
        src, dst = edges
        path = tmp_path / "g.bin"
        write_edge_list_binary(path, src, dst)
        rs, rd, n = read_edge_list_binary(path)
        assert np.array_equal(rs, src)
        assert np.array_equal(rd, dst)
        assert n == 1000 or n == max(src.max(), dst.max()) + 1

    def test_smaller_than_text_for_wide_ids(self, tmp_path, rng):
        # million-node ids: 7+ digits of text vs 4 binary bytes each
        src = np.sort(rng.integers(10**6, 10**8, 500))
        dst = rng.integers(10**6, 10**8, 500)
        binary = write_edge_list_binary(tmp_path / "g.bin", src, dst)
        text = edge_list_text_size(src, dst)
        assert binary < text

    def test_wide_ids_use_uint64(self, tmp_path):
        src = np.array([2**40], dtype=np.int64)
        dst = np.array([1], dtype=np.int64)
        path = tmp_path / "g.bin"
        write_edge_list_binary(path, src, dst)
        rs, rd, _ = read_edge_list_binary(path)
        assert rs[0] == 2**40

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(ValidationError, match="not a repro"):
            read_edge_list_binary(path)

    def test_truncated_payload(self, tmp_path, edges):
        src, dst = edges
        path = tmp_path / "g.bin"
        write_edge_list_binary(path, src, dst)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(ValidationError, match="truncated"):
            read_edge_list_binary(path)

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_edge_list_binary(path, np.zeros(0, np.int64), np.zeros(0, np.int64))
        rs, rd, n = read_edge_list_binary(path)
        assert rs.size == 0 and rd.size == 0 and n == 0
        assert rs.dtype == np.int64 and rd.dtype == np.int64
        assert binary_edge_list_info(path) == (0, 4)
        assert list(iter_edge_list_binary(path)) == []

    @pytest.mark.parametrize("keep", [3, 8, 9, 15, 16])
    def test_truncated_header_is_clean(self, tmp_path, edges, keep):
        """A header cut anywhere raises ValidationError, never a raw
        struct/buffer traceback."""
        src, dst = edges
        path = tmp_path / "g.bin"
        write_edge_list_binary(path, src, dst)
        data = path.read_bytes()
        path.write_bytes(data[:keep])
        with pytest.raises(ValidationError):
            read_edge_list_binary(path)
        with pytest.raises(ValidationError):
            binary_edge_list_info(path)

    def test_info_matches_file(self, tmp_path, edges):
        src, dst = edges
        path = tmp_path / "g.bin"
        write_edge_list_binary(path, src, dst)
        count, itemsize = binary_edge_list_info(path)
        assert count == len(src)
        assert itemsize == 4

    @pytest.mark.parametrize("chunk", [1, 7, 499, 500, 10_000])
    def test_iter_chunks_concat_to_full_read(self, tmp_path, edges, chunk):
        src, dst = edges
        path = tmp_path / "g.bin"
        write_edge_list_binary(path, src, dst)
        chunks = list(iter_edge_list_binary(path, chunk_edges=chunk))
        assert all(s.shape[0] <= chunk for s, _ in chunks)
        rs = np.concatenate([s for s, _ in chunks])
        rd = np.concatenate([d for _, d in chunks])
        assert np.array_equal(rs, src)
        assert np.array_equal(rd, dst)

    def test_iter_validates_before_first_chunk(self, tmp_path, edges):
        src, dst = edges
        path = tmp_path / "g.bin"
        write_edge_list_binary(path, src, dst)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValidationError, match="truncated"):
            list(iter_edge_list_binary(path, chunk_edges=100))

    def test_iter_rejects_bad_chunk(self, tmp_path, edges):
        src, dst = edges
        path = tmp_path / "g.bin"
        write_edge_list_binary(path, src, dst)
        with pytest.raises(ValidationError, match="chunk_edges"):
            list(iter_edge_list_binary(path, chunk_edges=0))


class TestGzipEdgeLists:
    def test_gz_roundtrip(self, tmp_path, edges):
        src, dst = edges
        path = tmp_path / "g.txt.gz"
        nbytes = write_edge_list(path, src, dst)
        assert path.stat().st_size < nbytes  # compressed on disk
        rs, rd, n = read_edge_list(path)
        assert np.array_equal(rs, src)
        assert np.array_equal(rd, dst)

    def test_gz_with_comments(self, tmp_path):
        import gzip

        path = tmp_path / "c.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("# header\n0 1\n")
        src, dst, n = read_edge_list(path)
        assert src.tolist() == [0] and dst.tolist() == [1]
