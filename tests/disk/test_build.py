"""Out-of-core construction: bit-exact with the in-memory pipeline."""

import zlib

import numpy as np
import pytest

from repro.csr.builder import build_csr_serial, ensure_sorted
from repro.csr.compact import CompactStore
from repro.csr.io import write_edge_list_binary
from repro.csr.packed import build_bitpacked_csr
from repro.disk import DiskStore, build_disk_store, write_disk_store
from repro.errors import DiskFormatError, ValidationError
from repro.parallel import SimulatedMachine
from repro.reorder import edge_ordering


def _edge_file(tmp_path, rng, n=400, m=5000, name="edges.bin"):
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    path = tmp_path / name
    write_edge_list_binary(path, src, dst)
    return path, src, dst, n


def _three_entry_points(tmp_path, rng, src, dst, n):
    """The column segments of an in-memory compact store, and the disk
    stores written from a packed CSR and built out of core, of one
    shuffled edge list."""
    shuffle = rng.permutation(src.shape[0])
    src, dst = src[shuffle], dst[shuffle]
    write_edge_list_binary(tmp_path / "edges.bin", src, dst)
    opts = {"codecs": "fixed,varint,zeta2", "segment_bytes": 2048}
    compact = CompactStore.from_csr(
        build_csr_serial(*ensure_sorted(src, dst), n), **opts
    )
    written = write_disk_store(
        build_bitpacked_csr(src, dst, n, sort=True), tmp_path / "mem", **opts
    )
    built = build_disk_store(
        tmp_path / "edges.bin", tmp_path / "ooc", num_nodes=n,
        chunk_edges=1000, **opts,
    )

    def in_memory(seg):
        crc = 0
        for bits in (seg.starts, seg.payload):
            if bits is not None:
                crc = zlib.crc32(bits.buffer[: bits.nbytes].tobytes(), crc)
        return crc

    return _segment_rows(compact.segments, in_memory), written, built


def _segment_rows(segments, crc_of):
    return [(s.codec, s.first_row, s.num_rows, s.first_field,
             s.num_fields, crc_of(s)) for s in segments]


class TestBitExactness:
    """The out-of-core build must produce the *same directory* —
    manifest, segment boundaries, per-file CRCs — as packing in memory
    and writing the result, for any chunking."""

    @pytest.mark.parametrize(
        "opts",
        [{}, {"gap_encode": True}, {"codecs": "auto"}],
        ids=["plain", "gap", "auto"],
    )
    @pytest.mark.parametrize("chunk_edges", [64, 777, 5000, 1 << 20])
    def test_manifest_identical_to_in_memory(self, tmp_path, rng, opts,
                                             chunk_edges):
        path, src, dst, n = _edge_file(tmp_path, rng)
        disk = build_disk_store(
            path, tmp_path / "ooc", num_nodes=n, chunk_edges=chunk_edges,
            segment_bytes=512, **opts,
        )
        packed = build_bitpacked_csr(
            src, dst, n, sort=True, gap_encode=opts.get("gap_encode", False)
        )
        ref = write_disk_store(
            packed, tmp_path / "mem", segment_bytes=512, codecs=opts.get("codecs")
        )
        assert disk.manifest == ref.manifest  # segment tables, widths, CRCs
        names = sorted(p.name for p in ref.path.iterdir())
        assert sorted(p.name for p in disk.path.iterdir()) == names
        for name in names:  # every segment file and the manifest itself
            assert (disk.path / name).read_bytes() == (ref.path / name).read_bytes()

    def test_three_entry_points_emit_one_segment_stream(self, tmp_path, rng):
        """In memory, written from a packed CSR, or built out of core: the
        same segments — codec, row / field extents and payload CRC-32."""
        from tests.csr.test_compact import _mixed_codec_graph

        src, dst, n = _mixed_codec_graph()  # every codec class wins somewhere
        want, written, built = _three_entry_points(tmp_path, rng, src, dst, n)
        assert len(want) == 18 and len({row[0] for row in want}) == 3
        for disk in (written, built):
            assert _segment_rows(disk.manifest.columns, lambda s: s.crc32) == want

    def test_windowed_packed_input_emits_the_same_stream(self, tmp_path, rng):
        """A degree-ordered graph ends in empty rows, so the packed CSR
        that ``write_disk_store`` reads holds a trimmed offset window: it
        still writes the segments, manifest and CRCs of the other two."""
        from tests.csr.test_compact import _mixed_codec_graph

        src, dst, n = _mixed_codec_graph()
        n += 50  # ids no edge touches: the degree ordering puts them last
        perm = edge_ordering("degree", src, dst, n)
        src, dst = perm[src], perm[dst]
        packed = build_bitpacked_csr(src, dst, n, sort=True)
        assert packed.first_row == 0 and packed.rows <= n - 50
        want, written, built = _three_entry_points(tmp_path, rng, src, dst, n)
        assert written.manifest == built.manifest
        names = sorted(p.name for p in written.path.iterdir())
        assert sorted(p.name for p in built.path.iterdir()) == names
        for name in names:
            assert (written.path / name).read_bytes() == (built.path / name).read_bytes()
        assert _segment_rows(written.manifest.columns, lambda s: s.crc32) == want

    def test_num_nodes_inferred_matches_given(self, tmp_path, rng):
        path, src, dst, n = _edge_file(tmp_path, rng)
        true_n = int(max(src.max(), dst.max())) + 1
        inferred = build_disk_store(path, tmp_path / "a", chunk_edges=333)
        given = build_disk_store(
            path, tmp_path / "b", num_nodes=true_n, chunk_edges=333
        )
        assert inferred.num_nodes == given.num_nodes == true_n
        assert inferred.manifest.columns == given.manifest.columns

    def test_simulated_executor_build(self, tmp_path, rng):
        path, src, dst, n = _edge_file(tmp_path, rng, m=2000)
        disk = build_disk_store(
            path, tmp_path / "sim", num_nodes=n,
            executor=SimulatedMachine(8), chunk_edges=256,
        )
        packed = build_bitpacked_csr(src, dst, n, sort=True)
        q = rng.integers(0, n, 200)
        f1, o1 = packed.neighbors_batch(q)
        f2, o2 = disk.neighbors_batch(q)
        assert np.array_equal(f1, f2) and np.array_equal(o1, o2)

    def test_empty_edge_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_edge_list_binary(path, np.zeros(0, np.int64), np.zeros(0, np.int64))
        disk = build_disk_store(path, tmp_path / "out", num_nodes=9)
        assert disk.num_nodes == 9 and disk.num_edges == 0
        assert disk.degrees().tolist() == [0] * 9


class TestBoundedMemory:
    def test_peak_traced_allocation_bounded(self, tmp_path, rng):
        """Building a graph ~10x the chunk size keeps the builder's
        traced peak near the chunk buffers, not near the edge count.

        (tracemalloc does not see mmap pages — which is the point: the
        bulk payload lives in the temporary memmap, not the heap.)
        """
        import tracemalloc

        chunk = 2_000
        seg = 4096
        m = 40_000  # 20x the chunk
        path, _, _, n = _edge_file(tmp_path, rng, n=500, m=m)
        tracemalloc.start()
        try:
            build_disk_store(
                path, tmp_path / "big", num_nodes=n,
                chunk_edges=chunk, segment_bytes=seg,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # chunk buffers (a few int64 arrays of `chunk`) + O(n) arrays +
        # the unpacked-segment sort buffers + one bounded pack slice;
        # nothing scales with m
        budget = 64 * chunk + 64 * n + 40 * seg + (2 << 20)
        assert peak < budget, f"peak {peak} exceeds bound {budget}"

    def test_no_temporaries_left_behind(self, tmp_path, rng):
        path, _, _, n = _edge_file(tmp_path, rng)
        disk = build_disk_store(path, tmp_path / "out", num_nodes=n)
        names = {p.name for p in disk.path.iterdir()}
        assert "columns.tmp" not in names
        assert all(
            name == "manifest.json" or name.endswith(".seg") for name in names
        )


class TestDirectoryHandling:
    def test_refuses_foreign_directory(self, tmp_path, rng):
        path, _, _, n = _edge_file(tmp_path, rng)
        target = tmp_path / "precious"
        target.mkdir()
        (target / "thesis.tex").write_text("do not clobber")
        with pytest.raises(DiskFormatError, match="refusing to overwrite"):
            build_disk_store(path, target, num_nodes=n)
        assert (target / "thesis.tex").read_text() == "do not clobber"

    @pytest.mark.parametrize("builder", ["write", "build"])
    def test_crashed_build_is_cleared_and_foreign_file_refused(
            self, tmp_path, rng, builder):
        """A build that died before its manifest leaves only builder-owned
        names behind: the retry clears them.  One foreign file refuses."""
        path, src, dst, n = _edge_file(tmp_path, rng)
        target = tmp_path / "store"

        def run():
            if builder == "build":
                return build_disk_store(path, target, num_nodes=n,
                                        segment_bytes=512, codecs="auto")
            packed = build_bitpacked_csr(src, dst, n, sort=True)
            return write_disk_store(packed, target, segment_bytes=512,
                                    codecs="auto")

        first = run().manifest
        (target / "manifest.json").unlink()  # died after the last segment
        assert run().manifest == first
        (target / "manifest.json").unlink()  # died in the scatter pass
        (target / "columns.tmp").write_bytes(b"half a scatter pass")
        assert run().manifest == first
        DiskStore.open(target)  # verifies CRCs
        assert "columns.tmp" not in {p.name for p in target.iterdir()}

        (target / "manifest.json").unlink()
        (target / "notes.txt").write_text("mine")
        with pytest.raises(DiskFormatError, match="refusing to overwrite"):
            run()
        assert (target / "notes.txt").read_text() == "mine"
        assert (target / "offsets-00000.seg").exists()  # nothing was cleared

    def test_refuses_file_path(self, tmp_path, rng):
        path, _, _, n = _edge_file(tmp_path, rng)
        target = tmp_path / "afile"
        target.write_text("x")
        with pytest.raises(DiskFormatError, match="not a directory"):
            build_disk_store(path, target, num_nodes=n)

    def test_rebuild_over_existing_store(self, tmp_path, rng):
        path, src, dst, n = _edge_file(tmp_path, rng)
        target = tmp_path / "store"
        build_disk_store(path, target, num_nodes=n, segment_bytes=128)
        # rebuild with different parameters: old segments fully replaced
        disk = build_disk_store(path, target, num_nodes=n, segment_bytes=1 << 20)
        listed = {p.name for p in target.iterdir()}
        manifest_files = {s.filename for s in
                          (*disk.manifest.offsets, *disk.manifest.columns)}
        assert listed == manifest_files | {"manifest.json"}
        DiskStore.open(target)  # verifies CRCs

    def test_empty_target_reused(self, tmp_path, rng):
        path, _, _, n = _edge_file(tmp_path, rng)
        target = tmp_path / "fresh"
        target.mkdir()
        build_disk_store(path, target, num_nodes=n)
        DiskStore.open(target)


class TestInputValidation:
    def test_truncated_edge_file(self, tmp_path, rng):
        path, _, _, n = _edge_file(tmp_path, rng)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(ValidationError, match="truncated"):
            build_disk_store(path, tmp_path / "out", num_nodes=n)

    def test_node_id_beyond_num_nodes(self, tmp_path, rng):
        path, src, dst, _ = _edge_file(tmp_path, rng)
        too_small = int(max(src.max(), dst.max()))  # off by one
        with pytest.raises(ValidationError):
            build_disk_store(path, tmp_path / "out", num_nodes=too_small)

    def test_bad_chunk_edges(self, tmp_path, rng):
        path, _, _, n = _edge_file(tmp_path, rng)
        with pytest.raises(ValidationError):
            build_disk_store(path, tmp_path / "out", num_nodes=n, chunk_edges=0)

    def test_bad_segment_bytes(self, tmp_path, rng):
        path, _, _, n = _edge_file(tmp_path, rng)
        with pytest.raises(ValidationError):
            build_disk_store(path, tmp_path / "out", num_nodes=n,
                             segment_bytes=0)
