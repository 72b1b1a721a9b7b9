"""The indexed structure layer against the scan-based paths it replaced.

The per-graph index (in-edges and their integer view, the edge-id table and
the structural violations, from one scan of the edges), integer colour
refinement, the balance check, the one-pass quotient and the dict-backed
``block_of`` must give exactly what the reference
implementations in ``util`` give, on ``util.networks``, or on a network that a
``util.Seeded`` case draws: self-loops, parallel edges, mixed phase spaces,
isolated nodes, deep class splits and lifts, with creation order, id order and
least block members at odds.
"""

import importlib
import inspect
import math
import pkgutil
import re

import pytest
from hypothesis import example, given, strategies as st

import fibra
from fibra import (
    Edge,
    Graph,
    Network,
    NetworkMap,
    Partition,
    PreconditionError,
    R1,
    R2,
    S1,
    aut_order,
    canonical_isos,
    check_fibration,
    check_network_map,
    coarsest_balanced,
    enumerate_tree_isos,
    input_tree,
    is_balanced,
    network,
    quotient_of,
    symmetry_groupoid,
    validate_network,
)
from fibra import fixtures
from fibra.jsonio import map_to_json, network_from_json, network_to_json

from util import (
    LONE_NODE,
    R1_TRIANGLE,
    cases,
    doubled_edge_chain,
    random_lift,
    random_map_onto,
    networks,
    random_network,
    reference_adjacency,
    reference_balance_witness,
    reference_check_network_map,
    reference_coarsest_balanced,
    reference_edge_index,
    reference_lift_failures,
    reference_partition_blocks,
    reference_quotient_of,
    reference_validate_network,
    scan_block_of,
    scan_network,
)


KITCHEN_SINK = network(
    [("a", R1), ("b", R1), ("c", R1), ("d", R2), ("e", S1), ("z", R2)],
    [
        ("e5", "a", "a"),  # self-loop
        ("e1", "a", "b"),  # parallel pair
        ("e0", "a", "b"),
        ("e3", "b", "c"),
        ("e2", "a", "c"),
        ("e4", "e", "d"),
        ("e6", "d", "e"),
        ("e7", "e", "e"),
    ],
)


@given(networks())
@example(KITCHEN_SINK)
@example(LONE_NODE)
@example(R1_TRIANGLE)
def test_structure_layer_matches_reference(net):
    ref_net = scan_network(net)
    graph = net.graph
    for a in graph.nodes:
        assert graph.in_edges(a) == ref_net.graph.in_edges(a)
    assert graph.in_edges("no-such-node") == ()
    assert graph.node_set == frozenset(graph.nodes)
    for e in graph.edges:
        assert graph.edge_by_id(e.edge_id) == e
    assert graph._index.nodes == tuple(dict.fromkeys(graph.nodes))
    for a in graph.nodes:  # what the readers of the columns walk
        assert graph._index.in_pairs(a) == [(e.edge_id, e.src) for e in ref_net.graph.in_edges(a)]

    partition, quotient, projection = coarsest_balanced(net)
    ref_partition, ref_quotient, ref_projection = reference_coarsest_balanced(ref_net)
    assert partition == ref_partition
    assert quotient.graph == ref_quotient.graph
    assert dict(quotient.phase) == dict(ref_quotient.phase)
    assert list(projection.node_map.items()) == list(ref_projection.node_map.items())
    assert list(projection.edge_map.items()) == list(ref_projection.edge_map.items())

    discrete = Partition([a] for a in graph.nodes)
    q_new, p_new = quotient_of(net, discrete)
    q_ref, p_ref = reference_quotient_of(ref_net, discrete)
    assert q_new.graph == q_ref.graph and dict(q_new.phase) == dict(q_ref.phase)
    assert list(p_new.edge_map.items()) == list(p_ref.edge_map.items())

    groupoid = symmetry_groupoid(net)
    assert groupoid == symmetry_groupoid(ref_net)
    for b in groupoid.blocks:
        assert canonical_isos(net, b, b[0]) == canonical_isos(ref_net, b, b[0])
        # every member, on either network, has its representative's order
        assert {aut_order(input_tree(n, a)) for n in (net, ref_net) for a in b} == {aut_order(input_tree(net, b[0]))}

    for a in graph.nodes:
        assert partition.block_of(a) == scan_block_of(partition, a)
        assert partition.block_id(a) == scan_block_of(partition, a)[0]
        assert groupoid.block_of(a) == scan_block_of(groupoid, a)
        assert groupoid.block_id(a) == scan_block_of(groupoid, a)[0]
    with pytest.raises(PreconditionError):
        partition.block_of("no-such-node")
    with pytest.raises(PreconditionError, match="^unknown node id 'no-such-node'$"):
        canonical_isos(net, [], "no-such-node")


def _balance_check_matches(net, labels):
    """Coarsest, discrete, phase-class and random within-phase partitions, each against the reference."""
    nodes = sorted(net.graph.node_set)
    merged = {}
    for i, a in enumerate(nodes):
        merged.setdefault((net.space(a).name, labels[i % len(labels)]), []).append(a)
    phase_classes = {}
    for a in nodes:
        phase_classes.setdefault(net.space(a).name, []).append(a)
    coarsest, _, projection = coarsest_balanced(net)
    assert check_fibration(projection).is_fibration
    partitions = [
        coarsest,
        Partition([a] for a in nodes),
        Partition(phase_classes.values()),
        Partition(merged.values()),
    ]
    for p in partitions:
        witness = reference_balance_witness(scan_network(net), p)
        assert is_balanced(net, p) == (witness is None, witness)
        if witness is None:
            assert check_fibration(quotient_of(net, p)[1]).is_fibration
        else:
            with pytest.raises(PreconditionError, match="not balanced"):
                quotient_of(net, p)


@given(cases())
def test_balance_check_matches_per_node_signatures(case):
    net = case.network()
    _balance_check_matches(net, [case.randint(0, 2) for _ in range(case.randint(1, 40))])


@pytest.mark.parametrize(
    "net, labels",
    [(KITCHEN_SINK, [0]), (KITCHEN_SINK, [0, 1]), (LONE_NODE, [0]), (R1_TRIANGLE, [0])],
    ids=["kitchen-sink-0", "kitchen-sink-01", "lone-node", "r1-triangle"],
)
def test_balance_check_matches_per_node_signatures_on_listed_networks(net, labels):
    _balance_check_matches(net, labels)


@given(networks())
@example(KITCHEN_SINK)
@example(doubled_edge_chain(9))
@example(LONE_NODE)
@example(R1_TRIANGLE)
def test_coarsest_quotient_matches_the_checked_quotient(net):
    """``coarsest_balanced`` builds its quotient unchecked; ``quotient_of`` on its partition checks balance first.

    Neither re-checks its projection, so this test proves both are fibrations.
    """
    partition, quotient, projection = coarsest_balanced(net)
    assert is_balanced(net, partition) == (True, None)
    checked_quotient, checked_projection = quotient_of(net, partition)
    assert check_fibration(projection).is_fibration and check_fibration(checked_projection).is_fibration
    fibers: dict = {}
    for a, b in checked_projection.node_map.items():
        fibers.setdefault(b, []).append(a)
    assert Partition(fibers.values()) == partition
    assert network_to_json(quotient) == network_to_json(checked_quotient)
    assert map_to_json(projection) == map_to_json(checked_projection)


# Three nodes in three blocks whose quotient edge ids "a" + ":" + "b:c" and "a:b" + ":" + "c" are the same.
COLON_COLLISION = network(
    [("a", R1), ("a:b", R1), ("x", R1)],
    [("b:c", "x", "a"), ("c", "x", "a:b"), ("d", "x", "a:b")],
)


def renamed(net: Network, node_ids, edge_ids) -> tuple[Network, dict]:
    """``net`` with its nodes and edges renamed in listing order, and the node renaming."""
    rename = dict(zip(net.graph.nodes, node_ids))
    nodes = [(rename[a], net.space(a)) for a in net.graph.nodes]
    return network(nodes, [(eid, rename[e.src], rename[e.tgt]) for eid, e in zip(edge_ids, net.graph.edges)]), rename


def test_colliding_quotient_edge_ids_are_refused():
    partition = Partition([a] for a in COLON_COLLISION.graph.nodes)
    assert is_balanced(COLON_COLLISION, partition) == (True, None)
    for build in (lambda: coarsest_balanced(COLON_COLLISION), lambda: quotient_of(COLON_COLLISION, partition)):
        with pytest.raises(PreconditionError, match="^quotient edge id 'a:b:c' would name two edges"):
            build()


def _fibration_or_refusal(net):
    """Where the coarsest partition's joined quotient edge ids repeat, both quotients refuse it.

    Otherwise each builds exactly those ids, and a fibration.  The partition
    comes from the same network with plain ids, which join without repeats.
    """
    n_nodes, n_edges = len(net.graph.nodes), len(net.graph.edges)
    plain, rename = renamed(net, [f"n{i}" for i in range(n_nodes)], [f"e{j}" for j in range(n_edges)])
    name = {b: a for a, b in rename.items()}
    partition = Partition([name[a] for a in b] for b in coarsest_balanced(plain)[0].blocks)
    joined = sorted(f"{b[0]}:{e.edge_id}" for b in partition.blocks for e in net.in_edges(b[0]))
    repeated = next((i for i, j in zip(joined, joined[1:]) if i == j), None)
    for build in (lambda: coarsest_balanced(net)[1:], lambda: quotient_of(net, partition)):
        if repeated is not None:
            with pytest.raises(PreconditionError, match=f"^quotient edge id {re.escape(repr(repeated))} would"):
                build()
        else:
            quotient, projection = build()
            assert [e.edge_id for e in quotient.graph.edges] == joined
            assert check_fibration(projection).is_fibration


@given(cases())
def test_colon_ids_give_a_fibration_or_a_refusal(case):
    # node and edge ids of the form "a", "a:a", "a:a:a", ..., each of 1 to 40 'a's (or as many as there are
    # nodes or edges), distinct within nodes and within edges: a block id joined to an edge id then repeats
    # whenever two such pairs hold as many 'a's in all
    net = case.network()
    node_ids, edge_ids = (
        [":".join("a" * k) for k in case.sample(range(1, max(n, 40) + 1), n)]
        for n in (len(net.graph.nodes), len(net.graph.edges))
    )
    _fibration_or_refusal(renamed(net, node_ids, edge_ids)[0])


def test_colon_ids_give_a_fibration_or_a_refusal_on_the_collision():
    _fibration_or_refusal(COLON_COLLISION)


def test_kitchen_sink_has_every_feature():
    edges = KITCHEN_SINK.graph.edges
    assert any(e.src == e.tgt for e in edges)
    assert len({(e.src, e.tgt) for e in edges}) < len(edges)
    touched = {e.src for e in edges} | {e.tgt for e in edges}
    assert set(KITCHEN_SINK.graph.nodes) - touched == {"z"}
    assert {s.name for s in KITCHEN_SINK.phase.values()} == {"R1", "R2", "S1"}


@pytest.mark.parametrize("build", [Partition], ids=["init"])
def test_partition_is_canonical_by_construction(build):
    p = build((("3", "1"), ("2",)))
    assert p.blocks == (("1", "3"), ("2",))
    assert p.block_id("3") == p.block_id("1") == "1" and p.block_of("3") == scan_block_of(p, "3")
    assert build([[], ["2"], [], ["3", "1"]]) == p
    quotient, projection = quotient_of(fixtures.g3(), build((("3", "1"), ("2",), ())))
    assert (quotient, projection) == quotient_of(fixtures.g3(), Partition([["1", "3"], ["2"]]))
    assert quotient.graph.nodes == ("1", "2") and projection.node_map == {"1": "1", "2": "2", "3": "1"}
    for blocks in ([["a", "b"], ["b", "c"]], [["a", "a"]]):
        with pytest.raises(PreconditionError, match="partition does not list each node exactly once"):
            build(blocks)
    with pytest.raises(PreconditionError, match="node 'b' not covered by the partition"):
        build([["a"], ["b"]]).refines(build([["a"]]))


@given(st.lists(st.lists(st.sampled_from("abcde"), max_size=3), max_size=4))
def test_partition_constructors_match_the_sorting_oracle(blocks):
    members = [a for b in blocks for a in b]
    if len(set(members)) == len(members):
        assert Partition(blocks).blocks == reference_partition_blocks(blocks)
    else:
        with pytest.raises(PreconditionError, match="exactly once"):
            Partition(blocks)


@given(networks())
@example(KITCHEN_SINK)
@example(LONE_NODE)
@example(R1_TRIANGLE)
def test_witness_is_the_first_enumerated_isomorphism(net):
    for b in symmetry_groupoid(net).blocks:
        for m, witness in zip(b, canonical_isos(net, b, b[0])):
            assert enumerate_tree_isos(net, m, b[0], cap=math.inf)[0] == witness


def test_doubled_edge_chain_refines_to_discrete_partition():
    # nested signatures grow as 2^rounds here; integer colours keep them flat
    net = doubled_edge_chain(60)
    partition, quotient, projection = coarsest_balanced(net)
    assert partition.blocks == tuple((a,) for a in sorted(net.graph.nodes))
    assert len(quotient.graph.nodes) == 60 and len(quotient.graph.edges) == 118
    assert dict(projection.node_map) == {a: a for a in net.graph.nodes}


def test_graph_indexes_stay_out_of_equality_and_hash():
    g1 = Graph(("a", "b"), (Edge("e", "a", "b"),))
    g2 = Graph(("a", "b"), (Edge("e", "a", "b"),))
    g1.in_edges("b"), g1.edge_by_id("e"), g1.node_set  # build g1's indexes only
    assert g1 == g2 and hash(g1) == hash(g2)
    # a graph read from JSON keeps its edges as columns until they are read; before and after, it equals,
    # hashes and prints as the graph built from the same lists
    obj = {
        "nodes": [{"id": a, "space": {"kind": "S1"}} for a in ("b", "a")],
        "edges": [{"id": "f", "src": "b", "tgt": "b"}, {"id": "e", "src": "a", "tgt": "b"}],
    }
    built = Graph(("b", "a"), (Edge("f", "b", "b"), Edge("e", "a", "b")))
    for read_first in (False, True):
        loaded = network_from_json(obj).graph
        loaded.in_edges("b") if read_first else loaded.node_set  # the edges, or only the index
        assert ("edges" in vars(loaded)) is read_first
        assert hash(loaded) == hash(built) and loaded == built and built == loaded and repr(loaded) == repr(built)
        assert loaded.edges == built.edges and loaded.in_edges("b") == built.in_edges("b")


def test_validate_network_reports_in_order():
    net = Network(
        Graph(
            ("a", "b", "a"),
            (Edge("e1", "a", "b"), Edge("e1", "x", "b"), Edge("e2", "b", "y")),
        ),
        {"a": R1, "q": R1},
    )
    got = [(v.kind, v.subject) for v in validate_network(net)]
    assert got == [
        ("duplicate-node", "a"),
        ("duplicate-edge", "e1"),
        ("dangling-src", "e1"),
        ("dangling-tgt", "e2"),
        ("missing-phase", "b"),
        ("extra-phase", "q"),
    ]


def _graph_index_matches(net):
    graph = net.graph
    in_edges, nodes = reference_adjacency(graph)
    assert validate_network(net) == reference_validate_network(net)
    for a in (*graph.nodes, *(e.tgt for e in graph.edges), *(e.src for e in graph.edges), "no-such-node"):
        assert graph.in_edges(a) == in_edges.get(a, ())
    by_id = reference_edge_index(graph)
    for edge_id in by_id:
        assert graph.edge_by_id(edge_id) is by_id[edge_id]
    assert graph.node_set == frozenset(graph.nodes)
    # the columns: names are the nodes, then the endpoints that are none, and every position reads back the
    # listed edge; each name's in-edges are listed by position in edge-id order, ties in listing order
    index = graph._index
    assert index.nodes == nodes and index.names[: len(nodes)] == nodes
    assert sorted(index.names[len(nodes) :]) == sorted({a for e in graph.edges for a in (e.src, e.tgt)} - set(nodes))
    assert index.position == {a: i for i, a in enumerate(index.names)}
    at = index.names.__getitem__
    assert [*zip(index.edge_ids, map(at, index.src), map(at, index.tgt))] == [(e.edge_id, e.src, e.tgt) for e in graph.edges]
    assert len(index.in_edges) == len(index.names)
    assert {a: tuple(graph.edges[k] for k in ks) for a, ks in zip(index.names, index.in_edges) if ks} == in_edges
    assert index.edge_pos.keys() == by_id.keys() and all(graph.edges[k] is by_id[e] for e, k in index.edge_pos.items())
    # the loader builds the same index from the same lists, and the same graph
    loaded = network_from_json(
        {
            "nodes": [{"id": a, "space": {"kind": "S1"}} for a in graph.nodes],
            "edges": [{"id": e.edge_id, "src": e.src, "tgt": e.tgt} for e in graph.edges],
        }
    ).graph
    assert loaded._index == index and loaded == graph


@given(cases())
def test_graph_index_matches_the_separate_scans(case):
    # a ``util.random_network`` with repeated node and edge ids, unknown edge endpoints and missing and
    # extra phase entries injected, each at drawn positions
    net = random_network(case, max_nodes=5, max_edges=8)
    nodes, edges, phase = list(net.graph.nodes), list(net.graph.edges), dict(net.phase)
    for _ in range(case.randint(0, 2)):
        nodes.insert(case.randint(0, len(nodes)), case.choice(nodes))
    for i, e in enumerate(edges):
        fault = case.choice(["none", "none", "id", "src", "tgt", "both"])
        if fault == "id" and i:
            e = Edge(edges[case.randrange(i)].edge_id, e.src, e.tgt)
        if fault in ("src", "both"):
            e = Edge(e.edge_id, case.choice(["ghost", "zz"]), e.tgt)
        if fault in ("tgt", "both"):
            e = Edge(e.edge_id, e.src, case.choice(["ghost", "yy"]))
        edges[i] = e
    for _ in range(case.randint(0, 2)):
        phase.pop(case.choice(nodes), None)
    for _ in range(case.randint(0, 2)):
        phase[case.choice(["ghost", "extra"])] = R1
    _graph_index_matches(Network(Graph(tuple(nodes), tuple(edges)), phase))


def test_graph_index_matches_the_separate_scans_on_a_listed_network():
    nodes, edges = ("a", "b", "a"), (Edge("e", "zz", "yy"), Edge("e", "a", "yy"), Edge("f", "a", "b"))
    _graph_index_matches(Network(Graph(nodes, edges), {"b": R1, "q": R2}))


@given(cases())
def test_map_checks_match_the_edge_scans(case):
    # a lift of a random network, or another map onto it, with up to three images changed: a node's moved,
    # dropped or sent outside the codomain; an edge's moved to any codomain edge, to one that shares its
    # image's source, target or both, dropped or sent outside; so maps of every kind of fault occur, as do
    # valid maps whose lifts fail
    cod = case.network()
    m = random_lift(case, cod) if case.random() < 0.5 else random_map_onto(case, cod)
    node_map, edge_map = dict(m.node_map), dict(m.edge_map)
    cod_edges = cod.graph.edges
    for _ in range(case.randint(0, 3)):
        how = case.choice(["node", "drop-node", "node-outside", "edge", "src", "tgt", "parallel", "drop-edge", "edge-outside"])
        if how.endswith("node") or how == "node-outside":
            a = case.choice(m.domain.graph.nodes)
            if how == "node":
                node_map[a] = case.choice(cod.graph.nodes)
            elif how == "drop-node":
                node_map.pop(a, None)
            else:
                node_map[a] = "zz"
        elif edge_map:
            eid = case.choice(sorted(edge_map))
            image = cod.graph.edge_by_id(edge_map[eid]) if edge_map[eid] in cod.graph._index.edge_pos else None
            shares = {
                "edge": lambda e: True,
                "src": lambda e: e.src == image.src,
                "tgt": lambda e: e.tgt == image.tgt,
                "parallel": lambda e: (e.src, e.tgt) == (image.src, image.tgt),
            }.get(how)
            if shares is not None and image is not None:
                edge_map[eid] = case.choice([e for e in cod_edges if shares(e)]).edge_id
            elif how == "drop-edge":
                del edge_map[eid]
            elif how == "edge-outside":
                edge_map[eid] = "zz"
    m = NetworkMap(m.domain, cod, node_map, edge_map)
    violations = reference_check_network_map(m)
    assert check_network_map(m) == violations
    if violations:
        with pytest.raises(PreconditionError, match="^check_fibration requires a valid network map; first violation: "):
            check_fibration(m)
    else:
        assert check_fibration(m).failures == tuple(reference_lift_failures(m))


class CountedEdges(tuple):
    """An edge tuple that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_one_scan_of_the_edges_serves_every_lookup():
    edges = CountedEdges(KITCHEN_SINK.graph.edges)
    net = Network(Graph(KITCHEN_SINK.graph.nodes, edges), dict(KITCHEN_SINK.phase))
    assert validate_network(net) == []
    assert [e.edge_id for e in net.graph.in_edges("b")] == ["e0", "e1"]
    assert net.graph.edge_by_id("e4") == Edge("e4", "e", "d")
    symmetry_groupoid(net)
    assert edges.iterations == 1


TWO_BLOCKS = Partition([["a"], ["b"]])


@pytest.mark.parametrize(
    "call",
    [
        symmetry_groupoid,
        lambda net: is_balanced(net, TWO_BLOCKS),
        lambda net: quotient_of(net, TWO_BLOCKS),
        coarsest_balanced,
    ],
    ids=["symmetry_groupoid", "is_balanced", "quotient_of", "coarsest_balanced"],
)
def test_refinement_refuses_an_edge_from_an_unknown_node(call):
    net = network([("a", R1), ("b", R1)], [("e", "a", "b"), ("f", "zz", "b")])
    with pytest.raises(PreconditionError, match=r"^edge 'f' has unknown source 'zz'$"):
        call(net)


def test_no_module_level_caches():
    """No fibra module or class holds a functools cache, which would hash whole graphs."""
    modules = [fibra] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(fibra.__path__, prefix="fibra.")
    ]
    cached = []
    for module in modules:
        for name, obj in vars(module).items():
            members = vars(obj).items() if inspect.isclass(obj) else ()
            for label, candidate in [(name, obj), *((f"{name}.{k}", v) for k, v in members)]:
                if callable(getattr(candidate, "cache_clear", None)):
                    cached.append(f"{module.__name__}.{label}")
    assert cached == []
