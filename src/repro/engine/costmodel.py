"""Cost model mapping a GraphLayout to simulated distributed runtime.

The paper's Fig 8 measures PageRank computation time and communication
time on 32 docker PowerGraph nodes, with PUMBA-injected RTT (10–100 ms).
Those quantities are deterministic functions of the partitioning:

* computation: every node processes its local edges each superstep, and
  the BSP barrier waits for the slowest → ``iters · max_p|p| · T_EDGE``;
* communication: each mirror exchanges one gather + one apply message
  with its master per superstep; the busiest node serialises its own
  message volume over the NIC and every superstep pays two synchronised
  round trips (gather-barrier + apply-barrier, ``BARRIERS_PER_ITER``) of
  latency ``CostModel.rtt``, the one setting: Fig 8 sweeps it.

The module constants are calibrated to commodity-cluster magnitudes
(``T_EDGE`` ≈ 40 ns per edge-update on one core; ``T_MSG`` ≈ 1.6 µs per
200-byte message at 1 Gb/s).  Absolute seconds are a simulation; the
cross-partitioner *ratios* — the thing Fig 8 compares — depend only on
the measured layout counters.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.engine.gas import GraphLayout

T_EDGE = 40e-9    # seconds per local edge update
T_MSG = 1.6e-6    # seconds per sync message on the busiest NIC
BARRIERS_PER_ITER = 2  # gather barrier + apply barrier


@dataclass(frozen=True)
class CostModel:
    rtt: float = 0.0  # network round-trip latency (PUMBA sweep)


@dataclass(frozen=True)
class SimulatedRun:
    computation_s: float
    communication_s: float
    messages: int

    @property
    def total_s(self) -> float:
        return self.computation_s + self.communication_s


def simulate(layout: GraphLayout, *, iterations: int, model: CostModel = CostModel()) -> SimulatedRun:
    """Simulated BSP runtime of ``iterations`` supersteps on this layout."""
    comp = iterations * layout.max_part_edges * T_EDGE
    comm = iterations * (layout.max_part_mirror_msgs * T_MSG + BARRIERS_PER_ITER * model.rtt)
    return SimulatedRun(
        computation_s=comp,
        communication_s=comm,
        messages=iterations * layout.sync_messages_per_iter,
    )
