"""CSR core: parallel construction, bit packing, row extraction, I/O.

Implements Section III of the paper end to end: Algorithms 1-3 build the
CSR from a sorted edge list, Algorithm 4 bit-packs it, and
``GetRowFromCSR`` [28] extracts rows from the packed form.
"""

from .builder import build_csr, build_csr_serial, check_edge_list, ensure_sorted
from .degree import degree_parallel, degree_serial, run_length_counts
from .getrow import (
    get_row_from_csr,
    get_row_gap_decoded,
    get_rows_from_csr,
    get_rows_gap_decoded,
)
from .graph import CSRGraph, MemoryBreakdown
from .io import (
    edge_list_text_size,
    read_edge_list,
    read_edge_list_binary,
    write_edge_list,
    write_edge_list_binary,
)
from .compact import CompactStore, build_compact_csr
from .packed import BitPackedCSR, build_bitpacked_csr, pack_array_parallel
from .spmv import pagerank, spmv
from .transpose import transpose_csr
from .traversal import bfs_levels, degree_histogram

__all__ = [
    "build_csr",
    "build_csr_serial",
    "check_edge_list",
    "ensure_sorted",
    "degree_parallel",
    "degree_serial",
    "run_length_counts",
    "get_row_from_csr",
    "get_row_gap_decoded",
    "get_rows_from_csr",
    "get_rows_gap_decoded",
    "CSRGraph",
    "MemoryBreakdown",
    "edge_list_text_size",
    "read_edge_list",
    "read_edge_list_binary",
    "write_edge_list",
    "write_edge_list_binary",
    "BitPackedCSR",
    "build_bitpacked_csr",
    "pack_array_parallel",
    "CompactStore",
    "build_compact_csr",
    "pagerank",
    "spmv",
    "transpose_csr",
    "bfs_levels",
    "degree_histogram",
]
