"""Time-evolving graphs: differential TCSR (Section IV) and baselines.

The differential TCSR stores frame 0 in full and only toggles after
that; :mod:`~repro.temporal.builder` parallelises its construction via
the XOR-monoid prefix-sum of Algorithm 5, and ``TemporalCSR.at(frame)``
serves one frame as a store.  EveLog and EdgeLog are the
cited log-structured comparators [21] used by the temporal benches.
"""

from .builder import build_tcsr, build_tcsr_serial
from .edgelog import EdgeLog
from .events import (
    EventList,
    decode_keys,
    encode_keys,
    parity_filter,
    sym_diff_sorted,
)
from .evelog import EveLog
from .frames import (
    csr_from_keys,
    frame_snapshots,
    frame_toggles,
    full_frame_csrs,
    snapshot_to_csr,
)
from .tcsr import TemporalCSR, TemporalFrame

__all__ = [
    "build_tcsr",
    "build_tcsr_serial",
    "EdgeLog",
    "EventList",
    "decode_keys",
    "encode_keys",
    "parity_filter",
    "sym_diff_sorted",
    "EveLog",
    "csr_from_keys",
    "frame_snapshots",
    "frame_toggles",
    "full_frame_csrs",
    "snapshot_to_csr",
    "TemporalCSR",
    "TemporalFrame",
]
