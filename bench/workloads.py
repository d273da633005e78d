"""The benchmark's workloads: two replayed event streams and a mapping sweep.

Streams are replayed closed-loop, one 5 ms window at a time, as fast as the
host allows. Only the sensor clock drives the aggregator and the simulated
device: after each window, if the device is free, the buckets are flushed
early and every task's queue is drained into one inference round, which
keeps the device busy for the makespan of a fixed 3 x 30-layer mapping.

Host time is the process's CPU time, measured around the calls into dvskit,
so time the shared host gives to other processes does not count; the
correctness gate runs after each step, outside the timed region. Every lap
or pass repeats the same steps, so host time per step takes each step's
median over the laps or passes of a run. The shared host's speed drifts by
tens of percent over minutes, and CPU time drifts with it; so before each
step a fixed pure-Python reference task is timed too, and the gated host
metric is the step time over the reference time. Simulated results come
from the first lap or pass, which always runs to its end, so they do not
depend on host speed.
"""

from __future__ import annotations

import resource
import sys
import traceback
from dataclasses import dataclass, field
from functools import partial
from itertools import zip_longest
from time import process_time
from typing import Callable, Iterator

import numpy as np

from dvskit.aggregator import Aggregator, AggregatorConfig, DispatchedFrame
from dvskit.binning import BinningSpec, to_sparse_frames
from dvskit.errors import CapacityError
from dvskit.events import SceneSegment, SceneSpec, dump_events, generate_events, parse_events, window_events
from dvskit.frames import frame_mass
from dvskit.hardware import MappingCandidate, PlatformProfile, TaskGraph, lower
from dvskit.scheduling import build_schedule, estimate_energy

from gate import (
    GateError,
    check_batch,
    check_binning,
    check_candidate,
    check_conservation,
    check_flush,
    check_window,
    count_mass,
    require,
)
from instances import InstanceData, build_instance, draw_assignment, draw_instance
from spans import NullTracer, Tracer

WIDTH, HEIGHT = 346, 260  # DAVIS346
WINDOW_US = 5_000
N_BINS = 2
# The stream hardware and its mapping are fixed; --seed varies the events.
HW_SHAPE = (3, 30)
HW_SEED = 0


@dataclass(frozen=True)
class StreamSpec:
    lap_us: int  # length of the recording, replayed lap after lap
    segments: tuple[SceneSegment, ...]
    mode: str
    aer_text: bool  # ingest through parse_events instead of an int64 array


@dataclass(frozen=True)
class MapSpec:
    shape: tuple[int, int]
    n_candidates: int  # sampled candidates, evaluated pass after pass


WORKLOADS = {
    # A 150 ms recording: at today's ~60x real time one lap takes about 10 s,
    # so a run measures whole laps and the first lap always finishes.
    "aer_dense_add": StreamSpec(150_000, (SceneSegment(0, 150_000, 2e6),), "add", True),
    # The ROADMAP Baseline scene shortened to a 20 ms burst, so that a lap
    # fits a run and the burst windows stay under a tenth of all windows.
    "baseline_burst_avg": StreamSpec(
        500_000,
        (SceneSegment(0, 20_000, 2e6), SceneSegment(20_000, 500_000, 2e5, (100, 80, 60, 40))),
        "average",
        False,
    ),
    "map_4x100": MapSpec((4, 100), 256),
}


def evaluate(graph: TaskGraph, candidate: MappingCandidate, platform: PlatformProfile, tracer):
    with tracer.span("hardware.lower"):
        eg = lower(graph, candidate, platform)
    with tracer.span("scheduling.schedule"):
        schedule = build_schedule(eg)
    with tracer.span("scheduling.energy"):
        energy = estimate_energy(eg, schedule, platform)
    return eg, schedule, energy


def check_evaluation(graph, candidate, platform, evaluation, tracer) -> None:
    with tracer.span("scheduling.check"):
        check_candidate(graph, candidate, platform, *evaluation)


def report_failure(where: str) -> None:
    print(f"FAILED {where}:\n{traceback.format_exc()}", file=sys.stderr)


def reference_s() -> float:
    """CPU time of a fixed task built from dict, tuple and sort work, as dvskit's is."""
    start = process_time()
    acc: dict[int, tuple[int, ...]] = {}
    for i in range(2000):
        k = i * 7919 % 211
        acc[k] = acc.get(k, ()) + (i,)
    sorted((len(v), k) for k, v in acc.items())
    return process_time() - start


def in_lockstep(*runs: Iterator[None]) -> None:
    """Advance each run one step in turn until all end.

    Paired steps of a traced and an untraced run then meet the same host state.
    """
    for _ in zip_longest(*runs):
        pass


# ---------------------------------------------------------------------------
# streams


@dataclass
class StreamSetup:
    spec: StreamSpec
    source: str | np.ndarray  # AER text, or the event array
    window_counts: np.ndarray  # events per window, counted independently
    tasks: tuple[str, ...]
    makespan_us: int
    round_mj: float
    hardware: tuple  # (graph, candidate, platform, (eg, schedule, energy)) for the gate


def setup_stream(
    spec: StreamSpec, seed: int, hw: InstanceData, assignment: dict, tracer
) -> StreamSetup:
    events = generate_events(SceneSpec(WIDTH, HEIGHT, spec.lap_us, seed=seed, segments=spec.segments))
    graph, platform = build_instance(hw)
    candidate = MappingCandidate(assignment)
    with tracer.span("bench.setup"):
        evaluation = evaluate(graph, candidate, platform, tracer)
    _, schedule, energy = evaluation
    return StreamSetup(
        spec,
        dump_events(events) if spec.aer_text else events,
        np.bincount(events[:, 0] // WINDOW_US, minlength=spec.lap_us // WINDOW_US),
        graph.tasks,
        schedule.makespan_us,
        energy.total_mj,
        (graph, candidate, platform, evaluation),
    )


@dataclass
class LapStats:
    """What one lap did; deterministic for a seed, so equal on every lap."""

    events: int = 0
    frames: int = 0
    entries: int = 0
    flushes_idle: int = 0
    flushes_capacity: int = 0
    rejections: int = 0
    dispatches: int = 0  # merged frames leaving the buckets
    contribs: int = 0  # source frames in them
    rounds: int = 0
    queued: int = 0  # frames entering task queues, all tasks
    discards: int = 0
    latency_us: list[int] = field(default_factory=list)
    bucket_wait_us: list[int] = field(default_factory=list)
    queue_wait_us: list[int] = field(default_factory=list)


@dataclass
class LapResult:
    parse_s: float = 0.0
    step_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # reference task, before each window
    failed: int = 0
    stats: LapStats = field(default_factory=LapStats)
    merge_entries: int = 0  # entries the gate's merge replay read
    mass_entries: int = 0  # entries frame_mass read, traced laps only


def aggregator_config(mode: str) -> AggregatorConfig:
    return AggregatorConfig(16, 4, mode, 10_000, 0.5, 4)


def lap_steps(setup: StreamSetup, tracer, result: LapResult) -> Iterator[None]:
    """Replay the recording once through window -> bin -> aggregate -> device.

    Fills ``result``, yielding before each window. A traced lap also times
    frame_mass on every flushed frame, after the last window.
    """
    spec = setup.spec
    start = process_time()
    recording = setup.source
    if spec.aer_text:
        with tracer.span("events.parse"):
            recording = parse_events(setup.source, WIDTH, HEIGHT)
    result.parse_s = process_time() - start
    stats = result.stats
    agg = Aggregator(aggregator_config(spec.mode), WIDTH, HEIGHT, setup.tasks)
    binning = BinningSpec(N_BINS, WIDTH, HEIGHT)
    n_buckets = agg.config.n_buckets
    buckets: list[list] = [[] for _ in range(n_buckets)]  # frames as placed
    consumed = dict.fromkeys(setup.tasks, 0)  # mass drained per task
    placed_events = 0
    busy_until = 0
    # flushes whose frame masses a traced lap times after the last window
    to_replay = [] if isinstance(tracer, Tracer) else None

    for k in range(len(setup.window_counts)):
        yield
        result.ref_s.append(reference_s())
        t0, t1 = k * WINDOW_US, (k + 1) * WINDOW_US
        flushes: list[tuple[int, list, list[DispatchedFrame]]] = []
        batches: list[tuple[str, tuple[DispatchedFrame, ...], object]] = []
        window = frames = None
        start = process_time()
        try:
            with tracer.span("bench.window", k):
                with tracer.span("events.window"):
                    window = window_events(recording, t0, t1)
                with tracer.span("binning.bin"):
                    frames = to_sparse_frames(window, binning)
                for frame in frames:
                    try:
                        with tracer.span("aggregator.place"):
                            placed = agg.place(frame)
                    except CapacityError:
                        stats.flushes_capacity += 1
                        with tracer.span("aggregator.flush"):
                            flushes.append((t1, [b for b in buckets if b], agg.flush(t1)))
                        buckets = [[] for _ in range(n_buckets)]
                        with tracer.span("aggregator.place"):
                            placed = agg.place(frame)
                    buckets[placed.bucket_index].append(frame)
                    stats.rejections += len(placed.newly_full) - (
                        placed.bucket_index in placed.newly_full
                    )
                # the device frees before the next window's frames exist
                if busy_until < t1 + WINDOW_US:
                    t_idle = max(busy_until, t1)
                    with tracer.span("aggregator.flush"):
                        dispatched = agg.on_hardware_idle(t_idle)
                    if dispatched:
                        stats.flushes_idle += 1
                        flushes.append((t_idle, [b for b in buckets if b], dispatched))
                        buckets = [[] for _ in range(n_buckets)]
                    for task in setup.tasks:
                        if agg.queues[task]:
                            queued = tuple(agg.queues[task])
                            with tracer.span("aggregator.build_batch"):
                                batches.append((task, queued, agg.build_batch(task)))
                    if batches:
                        busy_until = t_idle + setup.makespan_us
        except Exception:
            report_failure(f"window {k}")
            result.failed += 1
            continue
        finally:
            result.step_s.append(process_time() - start)

        try:
            check_window(window, t0, t1, int(setup.window_counts[k]), len(recording))
            check_binning(frames, window, N_BINS)
            placed_events += len(window)
            stats.events += len(window)
            stats.frames += len(frames)
            stats.entries += sum(f.n_entries for f in frames)
            with tracer.span("bench.replay", k):
                for t_flush, bucket_frames, dispatched in flushes:
                    merged = check_flush(spec.mode, bucket_frames, dispatched, t_flush, tracer)
                    stats.dispatches += len(dispatched)
                    stats.contribs += sum(len(b) for b in bucket_frames)
                    result.merge_entries += sum(f.n_entries for b in bucket_frames for f in b)
                    if to_replay is not None:
                        to_replay.append((k, bucket_frames, dispatched, merged))
            for task, queued, batch in batches:
                check_batch(queued, batch)
                consumed[task] += sum(count_mass(d.frame, d.divisor) for d in queued)
            if batches:
                # every task drains the same frames: record them once
                stats.rounds += 1
                for d in batches[0][1]:
                    t_first = min(d.contrib_t_refs_us)
                    stats.latency_us.append(busy_until - t_first)
                    stats.bucket_wait_us.append(d.t_dispatch_us - t_first)
                    stats.queue_wait_us.append(busy_until - setup.makespan_us - d.t_dispatch_us)
            check_conservation(agg, buckets, placed_events, consumed)
            if k == len(setup.window_counts) - 1:
                require(placed_events == len(recording), "windows do not tile the recording")
        except GateError:
            report_failure(f"window {k}")
            result.failed += 1
    for c in agg.counters.values():
        stats.queued += c.dispatched_frames
        stats.discards += c.discarded_frames
    for k, bucket_frames, dispatched, merged in to_replay or ():
        try:
            with tracer.span("bench.replay", k):
                result.mass_entries += replay_mass(bucket_frames, dispatched, merged, tracer)
        except GateError:
            report_failure(f"window {k}")
            result.failed += 1


def run_lap(setup: StreamSetup, tracer) -> LapResult:
    result = LapResult()
    in_lockstep(lap_steps(setup, tracer, result))
    return result


def replay_mass(bucket_frames, dispatched, merged, tracer) -> int:
    """Time frame_mass on the frames a flush placed and merged; check it."""
    entries = 0
    for frames, item, ref in zip(bucket_frames, dispatched, merged):
        for f in frames:
            with tracer.span("frames.mass"):
                frame_mass(f)
            entries += f.n_entries
        with tracer.span("frames.mass"):
            mass = frame_mass(ref)
        entries += ref.n_entries
        require(mass * item.divisor == count_mass(ref, item.divisor), "frame_mass disagrees")
    return entries


# ---------------------------------------------------------------------------
# runs and their metrics

# Set-up runs once before the first lap or pass and for at least SETUP_SLICE_S
# seconds before each one, and at least SETUP_REPS times in all. Spread over
# the run, the set-ups meet the same changes of host speed as the reference
# task does; setup_s is their median CPU time scaled by REF_NOMINAL_S over the
# run's median reference time, so it reads seconds at one fixed host speed.
SETUP_REPS = 5
SETUP_SLICE_S = 0.3
REF_NOMINAL_S = 0.7e-3  # the reference task's typical CPU time on the first numbers' host


@dataclass
class Outcome:
    attempted: int
    failed: int
    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    report: dict[str, float]  # named host and simulated results, for people
    tracer: object = None


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0


def step_medians(runs: list[list[float]]) -> np.ndarray:
    """Each step's median time over runs that repeat the same steps."""
    return np.median(np.asarray(runs, dtype=np.float64), axis=0)


def paired_overhead(traced: list[float], untraced: list[float]) -> float:
    """Median over steps of traced / untraced time, minus one."""
    return float(np.median(np.asarray(traced) / np.asarray(untraced))) - 1


def time_setup(make: Callable, times: list[float], min_s: float = 0.0):
    """Set up once, and again until ``min_s`` seconds are spent; record each time."""
    spent = 0.0
    while True:
        start = process_time()
        made = make()
        times.append(process_time() - start)
        spent += times[-1]
        if spent >= min_s:
            return made


def setup_median(make: Callable, times: list[float]) -> float:
    while len(times) < SETUP_REPS:
        time_setup(make, times)
    return float(np.median(times))


def run_stream(spec: StreamSpec, seed: int, seconds: float, tracer, null) -> Outcome:
    hw = draw_instance(*HW_SHAPE, HW_SEED)
    assignment = draw_assignment(np.random.default_rng(HW_SEED), hw)
    setup_times: list[float] = []
    setup = time_setup(partial(setup_stream, spec, seed, hw, assignment, tracer), setup_times)
    make = partial(setup_stream, spec, seed, hw, assignment, null)
    failed = 0
    graph, candidate, platform, evaluation = setup.hardware
    try:
        check_evaluation(graph, candidate, platform, evaluation, tracer)
    except GateError:
        report_failure("stream hardware mapping")
        failed += 1
    budget = seconds / 2 if tracer is not null else seconds
    laps: list[LapResult] = []
    while not laps or sum(lap.parse_s + sum(lap.step_s) for lap in laps) < budget:
        time_setup(make, setup_times, SETUP_SLICE_S)
        laps.append(run_lap(setup, null))
        if laps[-1].stats != laps[0].stats:
            print(f"FAILED lap {len(laps) - 1}: differs from lap 0", file=sys.stderr)
            failed += 1
    steps = [s for lap in laps for s in lap.step_s]
    host_s = sum(lap.parse_s for lap in laps) + sum(steps)
    sensor_s = len(steps) * WINDOW_US / 1e6
    stats = laps[0].stats
    # parsing is shared out over the lap's windows
    step_s = float(step_medians([[lap.parse_s, *lap.step_s] for lap in laps]).sum())
    step_s /= len(setup.window_counts)
    ref_s = float(np.median([r for lap in laps for r in lap.ref_s]))
    setup_cpu_s = setup_median(make, setup_times)
    end_to_end = {
        "setup_s": setup_cpu_s * REF_NOMINAL_S / ref_s,
        "step_time_vs_ref": step_s / ref_s,
        "sim_latency_us_p50": percentile(stats.latency_us, 50),
        "sim_latency_us_p90": percentile(stats.latency_us, 90),
        "sim_energy_mj_p50": setup.round_mj if stats.rounds else 0.0,
    }
    report = {
        "host_ms_per_step": step_s * 1e3,
        "ref_ms": ref_s * 1e3,
        "setup_cpu_s": setup_cpu_s,
        "rtf": host_s / sensor_s,
        "window_ms_p50": percentile(steps, 50) * 1e3,
        "window_ms_p90": percentile(steps, 90) * 1e3,
        "sim_latency_us_p50": end_to_end["sim_latency_us_p50"],
        "sim_latency_us_p90": end_to_end["sim_latency_us_p90"],
        "frames_discarded_frac": stats.discards / stats.queued if stats.queued else 0.0,
        "windows": len(steps),
        "latency_samples": len(stats.latency_us),
    }
    failed += sum(lap.failed for lap in laps)
    attempted = len(steps)
    per_layer = {}
    if tracer is not null:
        untraced, traced = LapResult(), LapResult()
        in_lockstep(lap_steps(setup, null, untraced), lap_steps(setup, tracer, traced))
        for lap in (untraced, traced):
            failed += lap.failed
            attempted += len(lap.step_s)
            if lap.stats != stats:
                print("FAILED paired lap: differs from lap 0", file=sys.stderr)
                failed += 1
        eg = evaluation[0]
        per_layer = layer_metrics(
            tracer,
            lines=stats.events if spec.aer_text else 0,
            windows=len(traced.step_s),
            stats=stats,
            merge_entries=traced.merge_entries,
            mass_entries=traced.mass_entries,
            candidates=1,
            transfers=sum(n.kind == "transfer" for n in eg.nodes.values()),
            exec_nodes=len(eg.nodes),
            overhead=paired_overhead(traced.step_s, untraced.step_s),
        )
    return Outcome(attempted, failed, end_to_end, per_layer, report)


def setup_map(data: InstanceData, assignments: list[dict]):
    graph, platform = build_instance(data)
    return graph, platform, [MappingCandidate(a) for a in assignments]


@dataclass
class PassResult:
    steps: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)  # reference task, before each candidate
    results: list[tuple] = field(default_factory=list)
    failed: int = 0


def pass_steps(graph, platform, candidates, tracer, result: PassResult) -> Iterator[None]:
    """Evaluate every candidate once, yielding before each; fills ``result``."""
    for i, candidate in enumerate(candidates):
        yield
        result.ref_s.append(reference_s())
        start = process_time()
        try:
            with tracer.span("bench.candidate", i):
                evaluation = evaluate(graph, candidate, platform, tracer)
        except Exception:
            report_failure(f"candidate {i}")
            result.failed += 1
            continue
        finally:
            result.steps.append(process_time() - start)
        try:
            with tracer.span("bench.check", i):
                check_evaluation(graph, candidate, platform, evaluation, tracer)
        except GateError:
            report_failure(f"candidate {i}")
            result.failed += 1
        eg, schedule, energy = evaluation
        result.results.append(
            (schedule.makespan_us, energy.total_mj, len(eg.nodes),
             sum(n.kind == "transfer" for n in eg.nodes.values()))
        )


def run_map(spec: MapSpec, seed: int, seconds: float, tracer, null) -> Outcome:
    data = draw_instance(*spec.shape, seed)
    rng = np.random.default_rng(seed)
    assignments = [draw_assignment(rng, data) for _ in range(spec.n_candidates)]
    make = partial(setup_map, data, assignments)
    setup_times: list[float] = []
    graph, platform, candidates = time_setup(make, setup_times)
    budget = seconds / 2 if tracer is not null else seconds
    passes: list[PassResult] = []
    failed = 0
    while not passes or sum(sum(p.steps) for p in passes) < budget:
        time_setup(make, setup_times, SETUP_SLICE_S)
        passes.append(PassResult())
        in_lockstep(pass_steps(graph, platform, candidates, null, passes[-1]))
        failed += passes[-1].failed
        if passes[-1].results != passes[0].results:
            print(f"FAILED pass {len(passes) - 1}: differs from pass 0", file=sys.stderr)
            failed += 1
    steps = [s for p in passes for s in p.steps]
    results = passes[0].results
    makespans = [r[0] for r in results]
    energies = [r[1] for r in results]
    step_s = float(step_medians([p.steps for p in passes]).mean())
    ref_s = float(np.median([r for p in passes for r in p.ref_s]))
    setup_cpu_s = setup_median(make, setup_times)
    end_to_end = {
        "setup_s": setup_cpu_s * REF_NOMINAL_S / ref_s,
        "step_time_vs_ref": step_s / ref_s,
        "sim_latency_us_p50": percentile(makespans, 50),
        "sim_latency_us_p90": percentile(makespans, 90),
        "sim_energy_mj_p50": percentile(energies, 50),
    }
    report = {
        "host_ms_per_step": step_s * 1e3,
        "ref_ms": ref_s * 1e3,
        "setup_cpu_s": setup_cpu_s,
        "candidates_per_s": len(steps) / sum(steps),
        "candidate_ms_p50": percentile(steps, 50) * 1e3,
        "candidate_ms_p90": percentile(steps, 90) * 1e3,
        "sim_makespan_us_p50": end_to_end["sim_latency_us_p50"],
        "sim_energy_mj_p50": end_to_end["sim_energy_mj_p50"],
        "candidates": len(steps),
    }
    attempted = len(steps)
    per_layer = {}
    if tracer is not null:
        untraced, traced = PassResult(), PassResult()
        in_lockstep(
            pass_steps(graph, platform, candidates, null, untraced),
            pass_steps(graph, platform, candidates, tracer, traced),
        )
        for p in (untraced, traced):
            failed += p.failed
            attempted += len(p.steps)
            if p.results != results:
                print("FAILED paired pass: differs from pass 0", file=sys.stderr)
                failed += 1
        per_layer = layer_metrics(
            tracer,
            candidates=len(candidates),
            exec_nodes=sum(r[2] for r in traced.results),
            transfers=sum(r[3] for r in traced.results),
            overhead=paired_overhead(traced.steps, untraced.steps),
        )
    return Outcome(attempted, failed, end_to_end, per_layer, report)


def layer_metrics(
    tracer,
    *,
    overhead: float,
    lines: int = 0,
    windows: int = 0,
    stats: LapStats | None = None,
    merge_entries: int = 0,
    mass_entries: int = 0,
    candidates: int = 0,
    transfers: int = 0,
    exec_nodes: int = 0,
) -> dict[str, float]:
    """Per-layer busy time and work from one traced lap or pass.

    Times are self times of the layer's spans, summed over the traced lap
    (streams) or pass (map_4x100); a layer the workload does not run reads 0.
    """
    busy = tracer.self_seconds()
    stats = stats or LapStats()

    def s(name: str) -> float:
        return busy.get(name, 0.0)

    def per(name: str, work: float, scale: float = 1e6) -> float:
        return s(name) / work * scale if work else 0.0

    dispatches = stats.dispatches
    return {
        "events.parse_s": s("events.parse"),
        "events.parse_us_per_line": per("events.parse", lines),
        "events.window_s": s("events.window"),
        "events.window_us_per_call": per("events.window", windows),
        "events.events_in": stats.events,
        "binning.bin_s": s("binning.bin"),
        "binning.bin_us_per_kevent": per("binning.bin", stats.events / 1e3),
        "binning.frames_out": stats.frames,
        "binning.entries_per_frame": stats.entries / stats.frames if stats.frames else 0.0,
        "frames.merge_s": s("frames.merge"),
        "frames.merge_us_per_kentry": per("frames.merge", merge_entries / 1e3),
        "frames.mass_s": s("frames.mass"),
        "frames.mass_us_per_kentry": per("frames.mass", mass_entries / 1e3),
        "aggregator.place_s": s("aggregator.place"),
        "aggregator.place_us_p50": percentile(tracer.durations("aggregator.place"), 50) * 1e6,
        "aggregator.flush_s": s("aggregator.flush"),
        "aggregator.build_batch_s": s("aggregator.build_batch"),
        "aggregator.flushes_idle": stats.flushes_idle,
        "aggregator.flushes_capacity": stats.flushes_capacity,
        "aggregator.capacity_retries": stats.flushes_capacity,
        "aggregator.bucket_rejections": stats.rejections,
        "aggregator.frames_per_dispatch": stats.contribs / dispatches if dispatches else 0.0,
        "aggregator.bucket_wait_us_p50": percentile(stats.bucket_wait_us, 50),
        "aggregator.queue_wait_us_p50": percentile(stats.queue_wait_us, 50),
        "aggregator.discards": stats.discards,
        "aggregator.discarded_frac": stats.discards / stats.queued if stats.queued else 0.0,
        "hardware.lower_s": s("hardware.lower"),
        "hardware.lower_us_per_candidate": per("hardware.lower", candidates),
        "hardware.transfers_per_candidate": transfers / candidates if candidates else 0.0,
        "scheduling.schedule_us_per_candidate": per("scheduling.schedule", candidates),
        "scheduling.energy_us_per_candidate": per("scheduling.energy", candidates),
        "scheduling.exec_nodes_per_candidate": exec_nodes / candidates if candidates else 0.0,
        "scheduling.check_s": s("scheduling.check"),
        "bench.self_s": s("bench.window") + s("bench.candidate"),
        "trace.overhead_frac": overhead,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec=None) -> Outcome:
    """Run one workload; ``spec`` overrides its size (the benchmark's tests use this)."""
    spec = spec or WORKLOADS[name]
    null = NullTracer()
    tracer = Tracer() if trace else null
    run = run_stream if isinstance(spec, StreamSpec) else run_map
    outcome = run(spec, seed, seconds, tracer, null)
    outcome.end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcome.tracer = tracer if trace else None
    return outcome
