"""Memory-mapped on-disk graph store with out-of-core construction.

The packed CSR of Algorithm 4 persisted as a directory — a versioned,
checksummed manifest plus raw binary segment files — and served through
:class:`DiskStore`, which memory-maps segments lazily and decodes only
the byte windows of the rows a query touches, so graphs larger than
RAM stay queryable.  :func:`build_disk_store` constructs the directory
out of core from a binary edge-list file in streaming chunk passes
(degrees, the paper's chunked prefix sum, cursor scatter, per-segment
pack), with peak working memory bounded by the chunk and segment sizes.
"""

from .build import build_disk_store, pack_disk_store, write_disk_store
from .format import (
    DEFAULT_SEGMENT_BYTES,
    FORMAT_VERSION,
    MANIFEST_NAME,
    PAGE_BYTES,
    SUPPORTED_VERSIONS,
    Manifest,
    Segment,
)
from .store import DiskStore

__all__ = [
    "DiskStore",
    "build_disk_store",
    "open_disk_store",
    "pack_disk_store",
    "write_disk_store",
    "Manifest",
    "Segment",
    "FORMAT_VERSION",
    "SUPPORTED_VERSIONS",
    "MANIFEST_NAME",
    "PAGE_BYTES",
    "DEFAULT_SEGMENT_BYTES",
]


def open_disk_store(path, *, verify: bool = True):
    """Open a store directory, restoring original node ids if reordered.

    A plain directory opens as a :class:`DiskStore`; one written with
    ``perm=`` comes back through :meth:`DiskStore.in_original_ids`.
    """
    return DiskStore.open(path, verify=verify).in_original_ids()
