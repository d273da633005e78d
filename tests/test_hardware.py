import numpy as np
import pytest

from dvskit.errors import CycleError, ProfileError, ValidationError
from dvskit.hardware import (
    DeviceProfile,
    ExecutionGraph,
    Link,
    MappingCandidate,
    PlatformProfile,
    TaskGraph,
    LayerNode,
    candidate_from_dict,
    candidate_to_dict,
    comm_time_us,
    graph_from_dict,
    graph_to_dict,
    lower,
    platform_from_dict,
    platform_to_dict,
    validate_candidate,
)


def two_device_platform():
    return platform_from_dict(
        {
            "devices": [
                {
                    "id": "gpu",
                    "precisions": ["fp32", "int8"],
                    "power_mw_active": 9000,
                    "power_mw_idle": 1500,
                    "exec_us": {
                        "t1.l0": {"fp32": 100, "int8": 40},
                        "t1.l1": {"fp32": 200, "int8": 90},
                    },
                },
                {
                    "id": "dla",
                    "precisions": ["fp16"],
                    "power_mw_active": 4000,
                    "power_mw_idle": 800,
                    "exec_us": {"t1.l0": {"fp16": 150}, "t1.l1": {"fp16": 260}},
                },
            ],
            "links": [
                {"src": "gpu", "dst": "dla", "bandwidth_bps": 10**9, "latency_us": 0}
            ],
        }
    )


def chain_graph():
    return graph_from_dict(
        {
            "tasks": ["t1"],
            "layers": [
                {"id": "t1.l0", "task": "t1", "index": 0, "out_bytes": 1_000_000},
                {"id": "t1.l1", "task": "t1", "index": 1, "out_bytes": 500_000},
            ],
            "edges": [{"from": "t1.l0", "to": "t1.l1"}],
        }
    )


class TestProfiles:
    def test_load_and_supported_sets(self):
        platform = two_device_platform()
        assert platform.device_ids == ("gpu", "dla")
        assert platform.device("gpu").supports("t1.l0", "int8")
        assert not platform.device("dla").supports("t1.l0", "int8")

    def test_candidate_rejected_on_unsupported_precision(self):
        platform = two_device_platform()
        graph = chain_graph()
        bad = MappingCandidate({"t1.l0": ("dla", "int8"), "t1.l1": ("gpu", "fp32")})
        with pytest.raises(ValidationError):
            validate_candidate(graph, bad, platform)

    def test_empty_device_list_rejected(self):
        with pytest.raises(ValidationError):
            platform_from_dict({"devices": [], "links": []})

    def test_links_mirrored_symmetric(self):
        platform = two_device_platform()
        assert platform.link("dla", "gpu") == platform.link("gpu", "dla")

    def test_missing_link_rejected(self):
        with pytest.raises(ProfileError):
            platform_from_dict(
                {
                    "devices": [
                        {"id": "a", "precisions": ["fp32"], "power_mw_active": 1,
                         "power_mw_idle": 0, "exec_us": {}},
                        {"id": "b", "precisions": ["fp32"], "power_mw_active": 1,
                         "power_mw_idle": 0, "exec_us": {}},
                    ],
                    "links": [],
                }
            )

    def test_roundtrip_identity(self):
        platform = two_device_platform()
        again = platform_from_dict(platform_to_dict(platform))
        assert again == platform

    def test_graph_roundtrip_identity(self):
        graph = chain_graph()
        assert graph_from_dict(graph_to_dict(graph)) == graph

    @pytest.mark.parametrize(
        "nodes,edges",
        [
            ((LayerNode("a", "t1", 1, 0), LayerNode("b", "t1", 0, 0)), (("b", "a"),)),
            ((LayerNode("a", "t1", 0, 8), LayerNode("b", "t1", 5, 4)), (("a", "b"),)),
        ],
        ids=["out_of_order", "gapped"],
    )
    def test_graph_roundtrip_keeps_layer_indices(self, nodes, edges):
        graph = TaskGraph(("t1",), nodes, edges)
        assert graph_from_dict(graph_to_dict(graph)) == graph

    def test_graph_roundtrip_keeps_interleaved_node_order(self):
        nodes = (
            LayerNode("a0", "a", 0, 8),
            LayerNode("b0", "b", 0, 4),
            LayerNode("a1", "a", 1, 2),
        )
        graph = TaskGraph(("a", "b"), nodes, (("a0", "a1"), ("b0", "a1")))
        assert graph_from_dict(graph_to_dict(graph)) == graph

    def test_synth_graphs_roundtrip(self):
        from dvskit.synth import make_instance

        for seed in range(50):
            graph, _, _ = make_instance(seed)
            assert graph_from_dict(graph_to_dict(graph)) == graph

    def test_candidate_roundtrip(self):
        cand = MappingCandidate({"t1.l0": ("gpu", "fp32"), "t1.l1": ("gpu", "int8")})
        assert candidate_from_dict(candidate_to_dict(cand)) == cand


class TestGraphValidation:
    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            TaskGraph(
                tasks=("t1", "t2"),
                nodes=(
                    LayerNode("a", "t1", 0, 0),
                    LayerNode("b", "t2", 0, 0),
                ),
                edges=(("a", "b"), ("b", "a")),
            )

    def test_intra_task_order_enforced(self):
        with pytest.raises(ValidationError):
            TaskGraph(
                tasks=("t1",),
                nodes=(LayerNode("a", "t1", 0, 0), LayerNode("b", "t1", 1, 0)),
                edges=(("b", "a"),),
            )


    def test_duplicate_task_ids_rejected(self):
        with pytest.raises(ValidationError):
            TaskGraph(
                tasks=("t1", "t1"),
                nodes=(LayerNode("a", "t1", 0, 0),),
                edges=(),
            )

    def test_node_of_unknown_task_rejected(self):
        with pytest.raises(ValidationError):
            TaskGraph(
                tasks=("t1",),
                nodes=(LayerNode("a", "t1", 0, 0), LayerNode("b", "t9", 0, 0)),
                edges=(),
            )

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValidationError):
            TaskGraph(
                tasks=("t1",),
                nodes=(LayerNode("a", "t1", 0, 0), LayerNode("b", "t1", 1, 0)),
                edges=(("a", "b"), ("a", "b")),
            )

    def test_transfer_like_node_id_rejected(self):
        # lowering an a -> b edge across devices would name its transfer "a->b"
        with pytest.raises(ValidationError):
            TaskGraph(
                tasks=("t1",),
                nodes=(
                    LayerNode("a", "t1", 0, 0),
                    LayerNode("b", "t1", 1, 0),
                    LayerNode("a->b", "t1", 2, 0),
                ),
                edges=(("a", "b"),),
            )


class TestCommTime:
    def test_zero_bytes_zero_latency(self):
        assert comm_time_us(0, Link(10**9, 0)) == 0

    def test_one_megabyte_over_gigabyte_link(self):
        assert comm_time_us(1_000_000, Link(10**9, 0)) == 1000

    def test_latency_added(self):
        assert comm_time_us(1_000_000, Link(10**9, 25)) == 1025

    def test_rounding_up(self):
        # 1 byte over 1 GB/s is 1e-3 us, rounded up to 1
        assert comm_time_us(1, Link(10**9, 0)) == 1

    def test_monotone_in_bytes(self):
        rng = np.random.default_rng(3)
        link = Link(int(3.7e9), 11)
        sizes = np.sort(rng.integers(0, 10**8, size=50))
        times = [comm_time_us(int(b), link) for b in sizes]
        assert times == sorted(times)


class TestLower:
    def test_same_device_no_transfer(self):
        platform, graph = two_device_platform(), chain_graph()
        cand = MappingCandidate({"t1.l0": ("gpu", "fp32"), "t1.l1": ("gpu", "fp32")})
        eg = lower(graph, cand, platform)
        assert set(eg.nodes) == {"t1.l0", "t1.l1"}
        assert eg.parents["t1.l1"] == ("t1.l0",)

    def test_cross_device_transfer_time(self):
        platform, graph = two_device_platform(), chain_graph()
        cand = MappingCandidate({"t1.l0": ("gpu", "fp32"), "t1.l1": ("dla", "fp16")})
        eg = lower(graph, cand, platform)
        xfer = eg.nodes["t1.l0->t1.l1"]
        assert xfer.queue == "memory"
        assert xfer.exec_us == 1000  # 1 MB over 1 GB/s, zero latency
        assert eg.parents["t1.l1"] == ("t1.l0->t1.l1",)

    def test_exec_times_from_profile(self):
        platform, graph = two_device_platform(), chain_graph()
        cand = MappingCandidate({"t1.l0": ("gpu", "int8"), "t1.l1": ("gpu", "fp32")})
        eg = lower(graph, cand, platform)
        assert eg.nodes["t1.l0"].exec_us == 40
        assert eg.nodes["t1.l1"].exec_us == 200

    def test_children_derived_from_parents(self):
        platform, graph = two_device_platform(), chain_graph()
        cand = MappingCandidate({"t1.l0": ("gpu", "fp32"), "t1.l1": ("dla", "fp16")})
        eg = lower(graph, cand, platform)
        assert eg.children == {
            "t1.l0": ("t1.l0->t1.l1",),
            "t1.l0->t1.l1": ("t1.l1",),
            "t1.l1": (),
        }
        with pytest.raises(TypeError):
            ExecutionGraph(eg.nodes, eg.parents, {})

    def test_transfer_set_matches_edge_scan(self):
        from dvskit.synth import make_instance

        rng = np.random.default_rng(7)
        for seed in range(20):
            graph, platform, _ = make_instance(seed)
            cand = _random_candidate(rng, graph, platform)
            eg = lower(graph, cand, platform)
            expected = {
                f"{s}->{d}"
                for s, d in graph.edges
                if cand.assignment[s][0] != cand.assignment[d][0]
            }
            got = {n.name for n in eg.nodes.values() if n.kind == "transfer"}
            assert got == expected

    def test_lowering_preserves_reachability(self):
        import networkx as nx

        from dvskit.synth import make_instance

        rng = np.random.default_rng(19)
        graph, platform, _ = make_instance(3)
        cand = _random_candidate(rng, graph, platform)
        eg = lower(graph, cand, platform)
        g_orig = nx.DiGraph(list(graph.edges))
        g_orig.add_nodes_from(graph.node_ids)
        g_low = nx.DiGraph()
        g_low.add_nodes_from(eg.nodes)
        for node, ps in eg.parents.items():
            g_low.add_edges_from((p, node) for p in ps)
        reach_orig = nx.transitive_closure_dag(g_orig)
        reach_low = nx.transitive_closure_dag(g_low)
        for u in graph.node_ids:
            for v in graph.node_ids:
                if u == v:
                    continue
                assert reach_orig.has_edge(u, v) == reach_low.has_edge(u, v)


def _random_candidate(rng, graph, platform):
    assignment = {}
    for node in graph.nodes:
        options = [
            (dev.device_id, prec)
            for dev in platform.devices
            for prec in dev.precisions
            if dev.supports(node.node_id, prec)
        ]
        assignment[node.node_id] = options[int(rng.integers(0, len(options)))]
    return MappingCandidate(assignment)
