"""Seeded multi-network instances: T x L task graphs on a GPU/DLA/CPU platform.

Layer times are drawn per layer from one base cost (GPU at fp32) scaled per
(device, precision). The DLA profiles only a seeded subset of the layers, as
a real accelerator supports only some operators; every layer runs on the GPU
and the CPU, so every instance has valid candidates.

Drawing (``draw_instance``, ``draw_assignment``) makes plain Python data and
runs before timing starts; ``build_instance`` and ``MappingCandidate`` turn
it into dvskit objects, which is the part a benchmark set-up times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from dvskit.hardware import DeviceProfile, LayerNode, Link, PlatformProfile, TaskGraph

# Base layer times of 100-1000 us give the fixed 3 x 30 stream mapping a
# makespan of about 42 ms, eight 5 ms windows, so stream queues overflow and
# discards occur.
# device -> precision -> time relative to the layer's GPU fp32 time
SCALE = {
    "gpu": {"fp32": 1.0, "fp16": 0.55, "int8": 0.35},
    "dla": {"fp16": 0.9, "int8": 0.6},
    "cpu": {"fp32": 4.0},
}
POWER_MW = {"gpu": (9000, 1200), "dla": (2200, 250), "cpu": (3500, 600)}
DLA_SUPPORT = 0.75  # share of layers the DLA can run
SKIP_EDGE = 0.15  # chance of a residual edge i -> i+2 inside a network
# unified memory: (bytes per second, fixed latency in microseconds)
LINK_GPU_CPU = Link(8_000_000_000, 20)
LINK_DLA = Link(4_000_000_000, 30)


@dataclass(frozen=True)
class InstanceData:
    tasks: tuple[str, ...]
    layers: tuple[tuple[str, str, int, int], ...]  # node id, task, layer index, output bytes
    edges: tuple[tuple[str, str], ...]
    exec_us: dict[str, dict[str, dict[str, int]]]  # device -> node id -> precision -> us


def draw_instance(n_tasks: int, n_layers: int, seed: int) -> InstanceData:
    """Draw a seeded graph of ``n_tasks`` independent ``n_layers``-layer networks."""
    rng = np.random.default_rng(seed)
    tasks = tuple(f"net{t}" for t in range(n_tasks))
    layers, edges = [], []
    exec_us: dict[str, dict[str, dict[str, int]]] = {d: {} for d in SCALE}
    for task in tasks:
        ids = [f"{task}.l{i}" for i in range(n_layers)]
        for i, node_id in enumerate(ids):
            layers.append((node_id, task, i, int(rng.integers(8, 512)) * 1024))
            base = int(rng.integers(100, 1000))
            dla_ok = rng.random() < DLA_SUPPORT
            for dev, by_prec in SCALE.items():
                if dev == "dla" and not dla_ok:
                    continue
                exec_us[dev][node_id] = {p: math.ceil(base * s) for p, s in by_prec.items()}
            if i + 1 < n_layers:
                edges.append((node_id, ids[i + 1]))
            if i + 2 < n_layers and rng.random() < SKIP_EDGE:
                edges.append((node_id, ids[i + 2]))
    return InstanceData(tasks, tuple(layers), tuple(edges), exec_us)


def build_instance(data: InstanceData) -> tuple[TaskGraph, PlatformProfile]:
    """The dvskit task graph and platform for drawn data."""
    devices = tuple(
        DeviceProfile(dev, tuple(SCALE[dev]), data.exec_us[dev], *POWER_MW[dev]) for dev in SCALE
    )
    links = {}
    for a in SCALE:
        for b in SCALE:
            if a != b:
                links[(a, b)] = LINK_DLA if "dla" in (a, b) else LINK_GPU_CPU
    graph = TaskGraph(data.tasks, tuple(LayerNode(*layer) for layer in data.layers), data.edges)
    return graph, PlatformProfile(devices, links)


def draw_assignment(rng: np.random.Generator, data: InstanceData) -> dict[str, tuple[str, str]]:
    """Uniform choice among each layer's profiled (device, precision) pairs."""
    assignment = {}
    for node_id, *_ in data.layers:
        options = [
            (dev, prec)
            for dev, by_node in data.exec_us.items()
            for prec in by_node.get(node_id, ())
        ]
        assignment[node_id] = options[int(rng.integers(len(options)))]
    return assignment
