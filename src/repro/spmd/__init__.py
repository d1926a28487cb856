"""Simulated SPMD distributed-memory machine.

The paper evaluates on a distributed-memory parallel computer driven by the
message-passing code its HPF compiler emits.  We have no such machine, so
this subpackage simulates one faithfully at the level the paper's claims
live at: *which remapping messages are exchanged and how large they are*.

* :class:`~repro.spmd.machine.Machine`: P processors with private memories,
  per-processor clocks, and global traffic statistics.
* :class:`~repro.spmd.darray.DistributedArray`: an array version's storage,
  one real NumPy block per holding processor, addressed through the exact
  ownership layout of its mapping.
* :mod:`~repro.spmd.redistribution`: enumerates the exact transfers of a
  copy between two differently mapped versions (block-cyclic index-set
  intersections, Prylli & Tourancheau style) and lowers each to a copy
  descriptor, the one data-movement primitive.
* :mod:`~repro.spmd.schedule`: turns the transfers into the copy's one
  plan -- contention-managed phases under a policy (naive all-at-once,
  contention-free round-robin, per-pair aggregation), or under ``None``
  the degenerate plan that charges each transfer on its own -- executes
  it (:func:`execute_comm_schedule`, moving real data and charging the
  cost model), and keeps plans per (policy, mapping-signature pair)
  (:func:`~repro.spmd.schedule.obtain_plan`: one get-or-build memo per
  process, asked by the executor and the traffic simulator alike).
"""

from repro.spmd.cost import CostDecision, CostModel, TrafficEstimate
from repro.spmd.darray import DistributedArray
from repro.spmd.machine import Machine
from repro.spmd.message import Message, TrafficStats
from repro.spmd.redistribution import RedistSchedule, Transfer, build_schedule
from repro.spmd.schedule import (
    DEFAULT_POLICY,
    POLICIES,
    CommPhase,
    CommSchedule,
    build_comm_schedule,
    execute_comm_schedule,
    obtain_plan,
    plan_redistribution,
    redistribute,
)
from repro.spmd.traffic import (
    GridWalk,
    Scenario,
    TrafficRange,
    enumerate_scenarios,
    predict_traffic,
    simulate_grid,
    simulate_traffic,
)

__all__ = [
    "CommPhase",
    "CommSchedule",
    "CostDecision",
    "CostModel",
    "DEFAULT_POLICY",
    "DistributedArray",
    "GridWalk",
    "Machine",
    "Message",
    "POLICIES",
    "RedistSchedule",
    "Scenario",
    "TrafficEstimate",
    "TrafficRange",
    "TrafficStats",
    "Transfer",
    "build_comm_schedule",
    "build_schedule",
    "enumerate_scenarios",
    "execute_comm_schedule",
    "obtain_plan",
    "plan_redistribution",
    "predict_traffic",
    "redistribute",
    "simulate_grid",
    "simulate_traffic",
]
