"""Heterogeneous platform model: devices, links, task graphs, lowering.

Layer execution times per (device, precision) come from profile files, as do
link bandwidths and device power draws. Lowering a mapping candidate inserts
one transfer node on every producer-consumer edge whose endpoints sit on
different devices; transfers run on a dedicated unified-memory queue and
cost fixed link latency plus bytes over bandwidth, rounded up to whole
microseconds.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from .errors import CycleError, InfeasibleError, ProfileError, ValidationError

MEMORY_QUEUE = "memory"


@dataclass(frozen=True)
class DeviceProfile:
    """One processing element: supported precisions, per-layer times, power."""

    device_id: str
    precisions: tuple[str, ...]
    exec_us: dict[str, dict[str, int]]  # layer id -> precision -> microseconds
    power_mw_active: int
    power_mw_idle: int

    def supports(self, layer_id: str, precision: str) -> bool:
        return precision in self.exec_us.get(layer_id, ())

    def time_us(self, layer_id: str, precision: str) -> int:
        try:
            return self.exec_us[layer_id][precision]
        except KeyError:
            raise ProfileError(
                f"device {self.device_id!r} has no profile for ({layer_id!r}, {precision!r})"
            ) from None


@dataclass(frozen=True)
class Link:
    bandwidth_bps: int
    latency_us: int


@dataclass(frozen=True)
class PlatformProfile:
    """Devices plus the link table (symmetric unless a direction is overridden)."""

    devices: tuple[DeviceProfile, ...]
    links: dict[tuple[str, str], Link]

    def __post_init__(self):
        if not self.devices:
            raise ValidationError("platform needs at least one device")
        ids = [d.device_id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate device ids")
        for dev in self.devices:
            if dev.power_mw_active < dev.power_mw_idle or dev.power_mw_idle < 0:
                raise ValidationError(
                    f"device {dev.device_id!r}: need active power >= idle power >= 0"
                )
            for layer_id, by_prec in dev.exec_us.items():
                for prec, us in by_prec.items():
                    if prec not in dev.precisions:
                        raise ValidationError(
                            f"device {dev.device_id!r} profiles undeclared precision {prec!r}"
                        )
                    if us <= 0:
                        raise ValidationError(
                            f"non-positive exec time for ({layer_id!r}, {prec!r})"
                        )
        for a in ids:
            for b in ids:
                if a != b and (a, b) not in self.links:
                    raise ProfileError(f"missing link {a!r} -> {b!r}")
        for link in self.links.values():
            if link.bandwidth_bps <= 0 or link.latency_us < 0:
                raise ValidationError("links need positive bandwidth, non-negative latency")
        object.__setattr__(self, "_by_id", {d.device_id: d for d in self.devices})

    @property
    def device_ids(self) -> tuple[str, ...]:
        return tuple(d.device_id for d in self.devices)

    def device(self, device_id: str) -> DeviceProfile:
        try:
            return self._by_id[device_id]
        except KeyError:
            raise ProfileError(f"unknown device {device_id!r}") from None

    def link(self, src: str, dst: str) -> Link:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise ProfileError(f"unknown link {src!r} -> {dst!r}") from None


def comm_time_us(n_bytes: int, link: Link) -> int:
    """Transfer cost: fixed latency plus ceil(bytes / bandwidth) in microseconds."""
    if n_bytes < 0:
        raise ValidationError("negative transfer size")
    transfer = -(-n_bytes * 1_000_000 // link.bandwidth_bps)
    return link.latency_us + transfer


@dataclass(frozen=True)
class LayerNode:
    """One layer of one task; output volume feeds the communication model."""

    node_id: str
    task_id: str
    layer_index: int
    out_bytes: int


@dataclass(frozen=True)
class TaskGraph:
    """Layers of all concurrent tasks plus their dependency edges (a DAG)."""

    tasks: tuple[str, ...]
    nodes: tuple[LayerNode, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.tasks or not self.nodes:
            raise ValidationError("graph needs at least one task with layers")
        tasks = set(self.tasks)
        if len(tasks) != len(self.tasks):
            raise ValidationError("duplicate task ids")
        by_id = {n.node_id: n for n in self.nodes}
        if len(by_id) != len(self.nodes):
            raise ValidationError("duplicate node ids")
        for n in self.nodes:
            # lowering names the transfer on edge a -> b "a->b"
            if "->" in n.node_id:
                raise ValidationError(f"node id {n.node_id!r} contains '->'")
        node_tasks = {n.task_id for n in self.nodes}
        if node_tasks - tasks:
            raise ValidationError(f"nodes of unknown tasks {sorted(node_tasks - tasks)}")
        for task in self.tasks:
            if task not in node_tasks:
                raise ValidationError(f"task {task!r} has no layers")
        if len(set(self.edges)) != len(self.edges):
            raise ValidationError("duplicate edges")
        children: dict[str, list[str]] = {n: [] for n in by_id}
        for src, dst in self.edges:
            if src not in by_id or dst not in by_id:
                raise ValidationError(f"edge ({src!r}, {dst!r}) references unknown node")
            a, b = by_id[src], by_id[dst]
            if a.task_id == b.task_id and a.layer_index >= b.layer_index:
                raise ValidationError(
                    f"intra-task edge {src!r} -> {dst!r} violates layer order"
                )
            children[src].append(dst)
        topological_order(children, key=str)  # raises CycleError; the order is unused
        object.__setattr__(self, "_by_id", by_id)

    def node(self, node_id: str) -> LayerNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise ValidationError(f"unknown node {node_id!r}") from None

    @property
    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.node_id for n in self.nodes)


def topological_order(children: dict[str, Iterable[str]], key: Callable) -> list[str]:
    """Deterministic Kahn topological order of a DAG given as node -> children.

    Of the nodes whose parents have all been emitted, the one with the least
    ``key`` comes next. ``key(n)`` is called once, after every parent of ``n``
    has been emitted. Raises :class:`CycleError` if the graph has a cycle.
    """
    indeg = dict.fromkeys(children, 0)
    for cs in children.values():
        for c in cs:
            indeg[c] += 1
    heap = [(key(n), n) for n, d in indeg.items() if d == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        _, n = heapq.heappop(heap)
        order.append(n)
        for c in children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                heapq.heappush(heap, (key(c), c))
    if len(order) != len(indeg):
        raise CycleError("graph contains a cycle")
    return order


@dataclass(frozen=True)
class MappingCandidate:
    """Per-node (device, precision) assignment; the genome of the search."""

    assignment: dict[str, tuple[str, str]]


def validate_candidate(
    graph: TaskGraph, candidate: MappingCandidate, platform: PlatformProfile
) -> None:
    for node in graph.nodes:
        if node.node_id not in candidate.assignment:
            raise ValidationError(f"node {node.node_id!r} unassigned")
        device_id, precision = candidate.assignment[node.node_id]
        dev = platform.device(device_id)
        if not dev.supports(node.node_id, precision):
            raise ValidationError(
                f"({node.node_id!r}, {precision!r}) unsupported on device {device_id!r}"
            )


@dataclass(frozen=True)
class ExecNode:
    """Compute or transfer node of the lowered execution graph."""

    name: str
    queue: str  # device id, or MEMORY_QUEUE for transfers
    exec_us: int
    kind: str  # "compute" | "transfer"
    task_id: str  # owning task (transfers: producer's task, informational)
    layer_index: int


@dataclass
class ExecutionGraph:
    """Lowered DAG: compute nodes with times plus inserted transfer nodes."""

    nodes: dict[str, ExecNode]
    parents: dict[str, tuple[str, ...]]
    children: dict[str, tuple[str, ...]] = field(init=False)  # derived from parents

    def __post_init__(self):
        children: dict[str, list[str]] = {n: [] for n in self.nodes}
        for node, ps in self.parents.items():
            for p in ps:
                children[p].append(node)
        self.children = {n: tuple(c) for n, c in children.items()}

    @property
    def queues(self) -> tuple[str, ...]:
        seen = []
        for node in self.nodes.values():
            if node.queue not in seen:
                seen.append(node.queue)
        return tuple(seen)

    def compute_nodes(self) -> list[ExecNode]:
        return [n for n in self.nodes.values() if n.kind == "compute"]


def lower(
    graph: TaskGraph, candidate: MappingCandidate, platform: PlatformProfile
) -> ExecutionGraph:
    """Annotate nodes with profiled times and insert cross-device transfers."""
    validate_candidate(graph, candidate, platform)
    nodes: dict[str, ExecNode] = {}
    parents: dict[str, list[str]] = {}
    for n in graph.nodes:
        device_id, precision = candidate.assignment[n.node_id]
        nodes[n.node_id] = ExecNode(
            name=n.node_id,
            queue=device_id,
            exec_us=platform.device(device_id).time_us(n.node_id, precision),
            kind="compute",
            task_id=n.task_id,
            layer_index=n.layer_index,
        )
        parents[n.node_id] = []
    for src, dst in graph.edges:
        src_dev = candidate.assignment[src][0]
        dst_dev = candidate.assignment[dst][0]
        if src_dev == dst_dev:
            parents[dst].append(src)
            continue
        producer = graph.node(src)
        xfer_name = f"{src}->{dst}"
        nodes[xfer_name] = ExecNode(
            name=xfer_name,
            queue=MEMORY_QUEUE,
            exec_us=comm_time_us(producer.out_bytes, platform.link(src_dev, dst_dev)),
            kind="transfer",
            task_id=producer.task_id,
            layer_index=producer.layer_index,
        )
        parents[xfer_name] = [src]
        parents[dst].append(xfer_name)
    return ExecutionGraph(nodes, {k: tuple(v) for k, v in parents.items()})


# ---------------------------------------------------------------------------
# file formats


def platform_to_dict(platform: PlatformProfile) -> dict:
    return {
        "devices": [
            {
                "id": d.device_id,
                "precisions": list(d.precisions),
                "power_mw_active": d.power_mw_active,
                "power_mw_idle": d.power_mw_idle,
                "exec_us": {k: dict(v) for k, v in sorted(d.exec_us.items())},
            }
            for d in platform.devices
        ],
        "links": [
            {"src": s, "dst": t, "bandwidth_bps": l.bandwidth_bps, "latency_us": l.latency_us}
            for (s, t), l in sorted(platform.links.items())
        ],
    }


def platform_from_dict(data: dict) -> PlatformProfile:
    try:
        devices = tuple(
            DeviceProfile(
                device_id=d["id"],
                precisions=tuple(d["precisions"]),
                exec_us={
                    layer: {p: int(us) for p, us in by_prec.items()}
                    for layer, by_prec in d.get("exec_us", {}).items()
                },
                power_mw_active=int(d.get("power_mw_active", 0)),
                power_mw_idle=int(d.get("power_mw_idle", 0)),
            )
            for d in data["devices"]
        )
        links: dict[tuple[str, str], Link] = {}
        for l in data.get("links", []):
            links[(l["src"], l["dst"])] = Link(int(l["bandwidth_bps"]), int(l["latency_us"]))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad platform profile: {exc}") from exc
    # mirror missing reverse directions (symmetric unless overridden)
    for (s, t), link in list(links.items()):
        links.setdefault((t, s), link)
    return PlatformProfile(devices, links)


def load_platform(path: str | Path) -> PlatformProfile:
    return platform_from_dict(json.loads(Path(path).read_text()))


def save_platform(platform: PlatformProfile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(platform_to_dict(platform), sort_keys=True, indent=2) + "\n")


def graph_to_dict(graph: TaskGraph) -> dict:
    return {
        "tasks": list(graph.tasks),
        "layers": [
            {"id": n.node_id, "task": n.task_id, "index": n.layer_index, "out_bytes": n.out_bytes}
            for n in graph.nodes
        ],
        "edges": [{"from": s, "to": t} for s, t in graph.edges],
    }


def graph_from_dict(data: dict) -> TaskGraph:
    """Inverse of graph_to_dict; layers keep their list order."""
    try:
        tasks = tuple(data["tasks"])
        nodes = tuple(
            LayerNode(
                node_id=layer["id"],
                task_id=layer["task"],
                layer_index=int(layer["index"]),
                out_bytes=int(layer["out_bytes"]),
            )
            for layer in data["layers"]
        )
        edges = tuple((e["from"], e["to"]) for e in data.get("edges", []))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad task graph: {exc}") from exc
    return TaskGraph(tasks, nodes, edges)


def load_graph(path: str | Path) -> TaskGraph:
    return graph_from_dict(json.loads(Path(path).read_text()))


def save_graph(graph: TaskGraph, path: str | Path) -> None:
    Path(path).write_text(json.dumps(graph_to_dict(graph), sort_keys=True, indent=2) + "\n")


def candidate_to_dict(candidate: MappingCandidate) -> dict:
    return {
        "assignment": {
            node: {"device": dev, "precision": prec}
            for node, (dev, prec) in sorted(candidate.assignment.items())
        }
    }


def candidate_from_dict(data: dict) -> MappingCandidate:
    try:
        assignment = {
            node: (entry["device"], entry["precision"])
            for node, entry in data["assignment"].items()
        }
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad candidate file: {exc}") from exc
    return MappingCandidate(assignment)


def load_candidate(path: str | Path) -> MappingCandidate:
    return candidate_from_dict(json.loads(Path(path).read_text()))


def save_candidate(candidate: MappingCandidate, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(candidate_to_dict(candidate), sort_keys=True, indent=2) + "\n"
    )
