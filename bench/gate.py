"""Correctness gate: checks on every window and candidate, run untimed.

Each check raises GateError on a mismatch. Masses are recomputed here with
integer arithmetic, independent of the package's Fraction accounting.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from dvskit.aggregator import Aggregator, DispatchedFrame
from dvskit.events import EventWindow
from dvskit.frames import BatchedFrames, SparseFrame, merge_add, merge_average
from dvskit.hardware import ExecutionGraph, MappingCandidate, PlatformProfile, TaskGraph
from dvskit.scheduling import EnergyReport, Schedule, simulate_discrete


class GateError(AssertionError):
    """A benchmark output differs from its reference."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


def count_mass(frame: SparseFrame, divisor: int = 1) -> int:
    """Value mass of a frame times ``divisor``; exact when every den divides it."""
    total = 0
    for ch in (frame.pos, frame.neg):
        num, den = ch[:, 2], ch[:, 3]
        require(not np.any(divisor % den), "entry denominator does not divide the divisor")
        total += int((num * (divisor // den)).sum())
    return total


def check_window(
    window: EventWindow, t_start: int, t_end: int, expected: int, n_recording: int
) -> None:
    """The window is the k-th tile of the recording and holds its events."""
    require(
        (window.t_start_us, window.t_end_us) == (t_start, t_end),
        f"window [{window.t_start_us}, {window.t_end_us}) is not tile [{t_start}, {t_end})",
    )
    require(len(window) == expected, f"window holds {len(window)} events, expected {expected}")
    require(len(window) + window.dropped == n_recording, "window loses events of the recording")
    if len(window):
        ts = window.events[:, 0]
        require(t_start <= ts[0] and ts[-1] < t_end, "window holds an event outside its span")


def check_binning(frames: Sequence[SparseFrame], window: EventWindow, n_bins: int) -> None:
    require(len(frames) == n_bins, f"{len(frames)} frames from {n_bins} bins")
    mass = sum(count_mass(f) for f in frames)
    require(mass == len(window), f"binned mass {mass} != {len(window)} window events")


def check_flush(
    mode: str,
    buckets: Sequence[Sequence[SparseFrame]],
    dispatched: Sequence[DispatchedFrame],
    t_now: int,
    tracer,
) -> list[SparseFrame]:
    """Each dispatched frame equals the merge of its bucket's frames.

    ``buckets`` are the non-empty buckets in index order, as the benchmark
    placed them. Returns the replayed merges.
    """
    require(
        len(dispatched) == len(buckets),
        f"{len(dispatched)} frames dispatched from {len(buckets)} buckets",
    )
    merged = []
    for frames, item in zip(buckets, dispatched):
        with tracer.span("frames.merge"):
            ref = merge_add(frames) if mode == "add" else merge_average(frames)
        divisor = len(frames) if mode == "average" else 1
        require(item.frame == ref, "dispatched frame differs from its bucket's merge")
        require(item.divisor == divisor, f"divisor {item.divisor} != {divisor}")
        require(
            item.contrib_t_refs_us == tuple(f.t_ref_us for f in frames),
            "dispatched frame names the wrong source frames",
        )
        require(item.t_dispatch_us == t_now, "dispatch time differs from the flush time")
        merged.append(ref)
    return merged


def check_batch(queued: Sequence[DispatchedFrame], batch: BatchedFrames) -> None:
    require(
        len(batch) == len(queued) and all(a is b.frame for a, b in zip(batch.frames, queued)),
        "batch differs from the queue it drained",
    )


def check_conservation(
    agg: Aggregator,
    buckets: Sequence[Sequence[SparseFrame]],
    placed_events: int,
    consumed: dict[str, int],
) -> None:
    """ingested = buffered + queued + discarded + consumed, for every task."""
    require(
        agg.ingested_mass == placed_events,
        f"aggregator ingested {agg.ingested_mass}, benchmark placed {placed_events} events",
    )
    buffered = sum(count_mass(f) for frames in buckets for f in frames)
    for task in agg.tasks:
        c = agg.counters[task]
        require(c.consumed_mass == consumed[task], f"{task}: consumed mass disagrees")
        queued = sum(count_mass(d.frame, d.divisor) for d in agg.queues[task])
        total = buffered + queued + c.discarded_mass + c.consumed_mass
        require(
            total == agg.ingested_mass,
            f"{task}: mass not conserved ({buffered} + {queued} + {c.discarded_mass}"
            f" + {c.consumed_mass} != {agg.ingested_mass})",
        )


def check_candidate(
    graph: TaskGraph,
    candidate: MappingCandidate,
    platform: PlatformProfile,
    eg: ExecutionGraph,
    schedule: Schedule,
    energy: EnergyReport,
) -> None:
    """Schedule agrees with the discrete-event oracle; energy parts add up."""
    cross = sum(
        candidate.assignment[s][0] != candidate.assignment[d][0] for s, d in graph.edges
    )
    transfers = sum(n.kind == "transfer" for n in eg.nodes.values())
    require(transfers == cross, f"{transfers} transfer nodes for {cross} cross-device edges")
    require(
        simulate_discrete(eg, schedule.orders) == schedule.end_us,
        "schedule end times differ from the discrete-event simulation",
    )
    require(schedule.makespan_us == max(schedule.end_us.values()), "makespan is not the last end")
    parts = math.fsum(energy.active_mj.values()) + math.fsum(energy.idle_mj.values())
    require(math.isclose(parts, energy.total_mj, rel_tol=1e-12), "energy parts do not sum to total")
    busy = {d: 0 for d in platform.device_ids}
    for node in eg.nodes.values():
        if node.kind == "compute":
            busy[node.queue] += node.exec_us
    total_nj = sum(
        busy[d.device_id] * d.power_mw_active
        + (schedule.makespan_us - busy[d.device_id]) * d.power_mw_idle
        for d in platform.devices
    )
    require(
        math.isclose(energy.total_mj, total_nj / 1e6, rel_tol=1e-12),
        "energy total differs from busy time x power",
    )
