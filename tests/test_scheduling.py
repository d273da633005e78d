import networkx as nx
import numpy as np
import pytest

from dvskit.errors import CycleError
from dvskit.hardware import ExecNode, ExecutionGraph
from dvskit.scheduling import (
    Schedule,
    build_schedule,
    critical_path_latency,
    estimate_energy,
    simulate_discrete,
)


def make_eg(nodes, edges):
    """nodes: (name, queue, exec_us, task, layer); edges: (src, dst)."""
    table = {
        name: ExecNode(name, queue, exec_us, "transfer" if queue == "memory" else "compute", task, layer)
        for name, queue, exec_us, task, layer in nodes
    }
    parents = {name: tuple(s for s, d in edges if d == name) for name in table}
    return ExecutionGraph(table, parents)


def random_exec_graph(rng, max_nodes=30, max_queues=4):
    n = int(rng.integers(2, max_nodes + 1))
    n_dev = int(rng.integers(1, max_queues))
    queues = [f"d{i}" for i in range(n_dev)] + ["memory"]
    nodes, edges = [], []
    for i in range(n):
        queue = queues[int(rng.integers(0, len(queues)))]
        exec_us = int(rng.integers(0, 100)) if queue == "memory" else int(rng.integers(1, 100))
        task = f"t{int(rng.integers(0, 3))}"
        nodes.append((f"n{i:02d}", queue, exec_us, task, i))
        for j in range(i):
            if rng.random() < 0.15:
                edges.append((f"n{j:02d}", f"n{i:02d}"))
    return make_eg(nodes, edges)


def longest_path_ends(eg, orders):
    """Independent oracle: per-node longest path over graph + queue edges."""
    g = nx.DiGraph()
    g.add_nodes_from(eg.nodes)
    for node, ps in eg.parents.items():
        g.add_edges_from((p, node) for p in ps)
    for order in orders.values():
        g.add_edges_from(zip(order, order[1:]))
    dist = {}
    for n in nx.topological_sort(g):
        preds = [dist[p] for p in g.predecessors(n)]
        dist[n] = eg.nodes[n].exec_us + (max(preds) if preds else 0)
    return dist


def lexicographic_orders(eg):
    """Independent oracle: networkx's least-key-first topological sort with
    key (ASAP ready time, task, layer, name), projected onto the queues."""
    g = nx.DiGraph()
    g.add_nodes_from(eg.nodes)
    for node, ps in eg.parents.items():
        g.add_edges_from((p, node) for p in ps)
    ready = {}
    for n in nx.topological_sort(g):
        ready[n] = max((ready[p] + eg.nodes[p].exec_us for p in g.predecessors(n)), default=0)

    def key(n):
        node = eg.nodes[n]
        return (ready[n], node.task_id, node.layer_index, n)

    orders = {q: [] for q in eg.queues}
    for n in nx.lexicographical_topological_sort(g, key=key):
        orders[eg.nodes[n].queue].append(n)
    return orders


class TestOrderQueues:
    def test_tie_break_prefers_lower_task(self):
        eg = make_eg(
            [("a", "d0", 4, "t2", 0), ("b", "d0", 6, "t1", 0)],
            [],
        )
        assert build_schedule(eg).orders["d0"] == ["b", "a"]

    def test_tie_break_prefers_earlier_ready(self):
        # "x" (t1) is ready at 10, after its parent "p" on d1; "y" (t2) is
        # ready at 0, so it goes first although its task sorts later.
        eg = make_eg(
            [("p", "d1", 10, "t1", 0), ("x", "d0", 3, "t1", 1), ("y", "d0", 5, "t2", 0)],
            [("p", "x")],
        )
        sched = build_schedule(eg)
        assert sched.orders["d0"] == ["y", "x"]
        assert sched.end_us == {"p": 10, "y": 5, "x": 13}

    def test_chain_respects_dependencies(self):
        eg = make_eg(
            [("a", "d0", 1, "t1", 0), ("b", "d0", 1, "t1", 1), ("c", "d0", 1, "t1", 2)],
            [("a", "b"), ("b", "c")],
        )
        assert build_schedule(eg).orders["d0"] == ["a", "b", "c"]

    def test_cycle_detected(self):
        eg = make_eg(
            [("a", "d0", 1, "t1", 0), ("b", "d0", 1, "t1", 1)],
            [("a", "b"), ("b", "a")],
        )
        with pytest.raises(CycleError):
            build_schedule(eg)

    def test_orders_are_linear_extensions(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            eg = random_exec_graph(rng)
            orders = build_schedule(eg).orders
            g = nx.DiGraph()
            g.add_nodes_from(eg.nodes)
            for node, ps in eg.parents.items():
                g.add_edges_from((p, node) for p in ps)
            closure = nx.transitive_closure_dag(g)
            for order in orders.values():
                idx = {n: i for i, n in enumerate(order)}
                for u, v in closure.edges:
                    if u in idx and v in idx:
                        assert idx[u] < idx[v]

    def test_orders_match_lexicographic_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            eg = random_exec_graph(rng)
            assert build_schedule(eg).orders == lexicographic_orders(eg)


class TestEndTimes:
    def test_transfer_chain(self):
        eg = make_eg(
            [
                ("a", "d1", 5, "t1", 0),
                ("a->b", "memory", 2, "t1", 0),
                ("b", "d2", 3, "t1", 1),
            ],
            [("a", "a->b"), ("a->b", "b")],
        )
        end = build_schedule(eg).end_us
        assert end == {"a": 5, "a->b": 7, "b": 10}

    def test_queue_serialization(self):
        eg = make_eg(
            [("a", "d0", 4, "t1", 0), ("b", "d0", 6, "t2", 0)],
            [],
        )
        end = build_schedule(eg).end_us
        assert end == {"a": 4, "b": 10}

    def test_diamond_matches_simulation(self):
        eg = make_eg(
            [
                ("a", "d0", 3, "t1", 0),
                ("b", "d0", 5, "t1", 1),
                ("c", "d1", 4, "t1", 1),
                ("d", "d1", 2, "t1", 2),
            ],
            [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        )
        sched = build_schedule(eg)
        assert sched.end_us == simulate_discrete(eg, sched.orders)

    def test_causality(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            eg = random_exec_graph(rng)
            end = build_schedule(eg).end_us
            for node, ps in eg.parents.items():
                for p in ps:
                    assert end[node] >= end[p] + eg.nodes[node].exec_us

    def test_queue_intervals_disjoint(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            eg = random_exec_graph(rng)
            sched = build_schedule(eg)
            for order in sched.orders.values():
                for a, b in zip(order, order[1:]):
                    assert sched.end_us[a] <= sched.start_us[b]


class TestCriticalPath:
    def test_single_node(self):
        eg = make_eg([("a", "d0", 7, "t1", 0)], [])
        per_task, makespan = critical_path_latency(eg, build_schedule(eg).end_us)
        assert per_task == {"t1": 7} and makespan == 7

    def test_two_tasks(self):
        eg = make_eg(
            [("a", "d0", 10, "t1", 0), ("b", "d1", 14, "t2", 0)],
            [],
        )
        per_task, makespan = critical_path_latency(eg, build_schedule(eg).end_us)
        assert per_task == {"t1": 10, "t2": 14} and makespan == 14

    def test_matches_longest_path_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            eg = random_exec_graph(rng)
            sched = build_schedule(eg)
            end = sched.end_us
            oracle = longest_path_ends(eg, sched.orders)
            assert end == oracle


class TestSimulationEquivalence:
    def test_empty_graph(self):
        eg = ExecutionGraph({}, {})
        assert simulate_discrete(eg, {}) == {}

    def test_fuzz_exact_equality(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            eg = random_exec_graph(rng)
            sched = build_schedule(eg)
            assert sched.end_us == simulate_discrete(eg, sched.orders)

    def test_determinism(self):
        rng = np.random.default_rng(29)
        eg = random_exec_graph(rng)
        a, b = build_schedule(eg), build_schedule(eg)
        assert a == b


class TestEnergy:
    def _platform(self):
        from dvskit.hardware import DeviceProfile, Link, PlatformProfile

        link = Link(10**9, 0)
        return PlatformProfile(
            devices=(
                DeviceProfile("d0", ("fp32",), {"l": {"fp32": 10}}, 2000, 500),
                DeviceProfile("d1", ("fp32",), {"l": {"fp32": 10}}, 3000, 700),
            ),
            links={("d0", "d1"): link, ("d1", "d0"): link},
        )

    def test_empty_schedule_zero_active(self):
        platform = self._platform()
        eg = ExecutionGraph({}, {})
        report = estimate_energy(eg, build_schedule(eg), platform)
        assert all(v == 0 for v in report.active_mj.values())
        assert report.total_mj == 0

    def test_single_node_arithmetic(self):
        platform = self._platform()
        eg = make_eg([("a", "d0", 1000, "t1", 0)], [])
        report = estimate_energy(eg, build_schedule(eg), platform)
        # 1000 us at 2000 mW = 2 mJ active on d0
        assert report.active_mj["d0"] == 2.0
        assert report.idle_mj["d0"] == 0.0
        # d1 idles for the whole 1000 us makespan at 700 mW
        assert report.idle_mj["d1"] == 0.7

    def test_monotone_in_added_nodes(self):
        platform = self._platform()
        base = make_eg([("a", "d0", 500, "t1", 0)], [])
        more = make_eg(
            [("a", "d0", 500, "t1", 0), ("b", "d1", 500, "t1", 1)], [("a", "b")]
        )
        r_base = estimate_energy(base, build_schedule(base), platform)
        sched_more = build_schedule(more)
        r_more = estimate_energy(more, sched_more, platform)
        assert r_more.total_mj > r_base.total_mj
