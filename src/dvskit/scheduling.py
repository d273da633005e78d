"""Deterministic scheduling over per-device execution queues.

Every device (plus the unified-memory lane for transfers) owns one serial
queue. One topological pass over the execution graph serializes and times
every queue at once. Among the nodes whose parents have all been emitted,
the next is the least by (contention-free ready time, task id, layer index,
name), where the ready time is frozen from the parents as

    ready(n) = max(ready(p) + exec(p) for each parent p), 0 for a root.

The global order is a linear extension of the dependencies, and its
projection onto a queue is that queue's order, so each emitted node's queue
predecessor is already timed:

    end(n) = max(end(parent_1), ..., end(parent_k), end(queue predecessor))
             + exec(n)

in integer microseconds. An event-driven simulation of the same queue
semantics serves as an independent cross-check and must agree exactly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import CycleError
from .hardware import ExecutionGraph, PlatformProfile, topological_order

__all__ = [
    "critical_path_latency",
    "simulate_discrete",
    "Schedule",
    "build_schedule",
    "EnergyReport",
    "estimate_energy",
]


def critical_path_latency(
    eg: ExecutionGraph, end: dict[str, int]
) -> tuple[dict[str, int], int]:
    """Per-task latency (max end over the task's layers) and overall makespan."""
    per_task: dict[str, int] = {}
    for node in eg.compute_nodes():
        current = per_task.get(node.task_id, 0)
        per_task[node.task_id] = max(current, end[node.name])
    makespan = max(end.values(), default=0)
    return per_task, makespan


def simulate_discrete(eg: ExecutionGraph, orders: dict[str, list[str]]) -> dict[str, int]:
    """Event-driven oracle for the queue semantics.

    A node starts once it reaches the head of its queue and all parents have
    finished; it occupies the queue for exec_us. Completion events drive the
    clock. Must agree exactly with :func:`build_schedule`.
    """
    pending = {n: len(ps) for n, ps in eg.parents.items()}
    position = {q: 0 for q in orders}
    busy = {q: False for q in orders}
    finished: dict[str, int] = {}
    agenda: list[tuple[int, int, str]] = []
    seq = 0

    def try_start(queue: str, now: int):
        nonlocal seq
        if busy[queue] or position[queue] >= len(orders[queue]):
            return
        head = orders[queue][position[queue]]
        if pending[head] > 0:
            return
        busy[queue] = True
        heapq.heappush(agenda, (now + eg.nodes[head].exec_us, seq, head))
        seq += 1

    for q in orders:
        try_start(q, 0)
    while agenda:
        t, _, name = heapq.heappop(agenda)
        finished[name] = t
        q = eg.nodes[name].queue
        busy[q] = False
        position[q] += 1
        for child in eg.children[name]:
            pending[child] -= 1
            try_start(eg.nodes[child].queue, t)
        try_start(q, t)
    if len(finished) != len(eg.nodes):
        raise CycleError("simulation deadlocked; orders conflict with dependencies")
    return finished


@dataclass(frozen=True)
class Schedule:
    """Queue orders, node start/end times, and derived latencies."""

    orders: dict[str, list[str]]
    end_us: dict[str, int]
    start_us: dict[str, int]
    per_task_latency_us: dict[str, int]
    makespan_us: int


def build_schedule(eg: ExecutionGraph) -> Schedule:
    """Serialize and time every queue in one topological pass (see the module docstring)."""
    nodes, parents = eg.nodes, eg.parents
    asap_end: dict[str, int] = {}  # contention-free ready time plus exec time

    def key(name: str):
        node = nodes[name]
        ready = 0
        for p in parents[name]:
            if asap_end[p] > ready:
                ready = asap_end[p]
        asap_end[name] = ready + node.exec_us
        return (ready, node.task_id, node.layer_index, name)

    orders: dict[str, list[str]] = {q: [] for q in eg.queues}
    free = dict.fromkeys(orders, 0)  # end of the queue's last emitted node
    end: dict[str, int] = {}
    start: dict[str, int] = {}
    for name in topological_order(eg.children, key):
        node = nodes[name]
        t = free[node.queue]
        for p in parents[name]:
            if end[p] > t:
                t = end[p]
        start[name] = t
        end[name] = free[node.queue] = t + node.exec_us
        orders[node.queue].append(name)
    per_task, makespan = critical_path_latency(eg, end)
    return Schedule(orders, end, start, per_task, makespan)


@dataclass(frozen=True)
class EnergyReport:
    """Active/idle energy split per device, in millijoules."""

    active_mj: dict[str, float]
    idle_mj: dict[str, float]
    total_mj: float


def estimate_energy(
    eg: ExecutionGraph, schedule: Schedule, platform: PlatformProfile
) -> EnergyReport:
    """Analytic energy: busy time at active power, the rest of the makespan at
    idle power, per device. Transfers on the memory lane draw no device power.
    """
    busy_us = {d: 0 for d in platform.device_ids}
    for node in eg.compute_nodes():
        busy_us[node.queue] += node.exec_us
    active_mj, idle_mj = {}, {}
    for dev in platform.devices:
        # microseconds x milliwatts = nanojoules
        active_nj = busy_us[dev.device_id] * dev.power_mw_active
        idle_nj = (schedule.makespan_us - busy_us[dev.device_id]) * dev.power_mw_idle
        active_mj[dev.device_id] = active_nj / 1e6
        idle_mj[dev.device_id] = idle_nj / 1e6
    total = sum(active_mj.values()) + sum(idle_mj.values())
    return EnergyReport(active_mj, idle_mj, total)
