#!/usr/bin/env python
"""Time-evolving graphs: Wikipedia-style churn stored as differential TCSR.

Generates a toggle stream (edges added and removed over 24 frames),
builds the differential TCSR in parallel (Algorithm 5), compares its
footprint against a full CSR per frame and the EveLog/EdgeLog baselines,
then answers temporal queries.

Run:  python examples/time_evolving_graph.py
"""

import numpy as np

from repro import SimulatedMachine
from repro.datasets import churn_events
from repro.temporal import (
    EdgeLog,
    EveLog,
    build_tcsr,
    batch_edge_active,
    full_frame_csrs,
)
from repro.utils import human_bytes

# 24 frames of churn over 3k nodes: 20k base edges, then ~1.5k
# additions and ~1k deletions per frame.
events = churn_events(
    3_000, 20_000, 24,
    add_per_frame=1_500, delete_per_frame=1_000,
    rng=np.random.default_rng(99),
)
print(f"stream: {len(events):,} events over {events.num_frames} frames, "
      f"{events.num_nodes:,} nodes")

# -- build in parallel (Algorithm 5) ----------------------------------
machine = SimulatedMachine(16)
tcsr = build_tcsr(events, machine)
print(f"built {tcsr} in {machine.elapsed_ms():.2f} simulated ms on p=16")
churn = tcsr.delta_edge_counts()
print(f"per-frame churn: min {churn.min():,}, max {churn.max():,} toggled edges")

# -- storage comparison (Section IV's motivation) ----------------------
full = sum(c.memory_bytes() for c in full_frame_csrs(events))
print("storage (TCSR against the cited log baselines, same data):")
for name, nbytes in [
    ("differential TCSR", tcsr.memory_bytes()),
    ("full CSR per frame", full),
    ("EveLog [21]", EveLog(events).memory_bytes()),
    ("EdgeLog [21]", EdgeLog(events).memory_bytes()),
]:
    print(f"  {name:20s} {human_bytes(nbytes):>12s}  "
          f"({nbytes / tcsr.memory_bytes():.1f}x TCSR)")

# -- temporal queries ---------------------------------------------------
rng = np.random.default_rng(5)
u0, v0 = int(events.u[0]), int(events.v[0])
history = [tcsr.edge_active(u0, v0, f) for f in range(events.num_frames)]
print(f"edge ({u0}, {v0}) activity over time: "
      + "".join("#" if a else "." for a in history))

mid = events.num_frames // 2
row = tcsr.neighbors_at(u0, mid)
print(f"neighbours of {u0} at frame {mid}: {row[:12].tolist()}"
      + (" ..." if len(row) > 12 else ""))

queries = [
    (int(rng.integers(0, events.num_nodes)),
     int(rng.integers(0, events.num_nodes)),
     int(rng.integers(0, events.num_frames)))
    for _ in range(1000)
]
qmachine = SimulatedMachine(8)
answers = batch_edge_active(tcsr, queries, qmachine)
print(f"1000 batched activity queries on p=8: {int(answers.sum())} hits, "
      f"{qmachine.elapsed_ms():.3f} simulated ms")

# snapshots reconstruct full graphs at any frame
snap = tcsr.snapshot(events.num_frames - 1)
print(f"final snapshot: {snap.num_edges:,} active edges")
