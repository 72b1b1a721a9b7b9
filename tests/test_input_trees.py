import itertools
import math
import random
import re
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from fibra import (
    EnumerationCapExceeded,
    NetworkMap,
    Partition,
    PreconditionError,
    R1,
    R2,
    TreeIso,
    aut_order,
    canonical_isos,
    compose_maps,
    enumerate_tree_isos,
    identity_map,
    induced_tree_map,
    input_tree,
    iso_count,
    network,
    symmetry_groupoid,
)
from fibra import fixtures

from util import (
    naive_tree_isos,
    random_injective_fibration,
    random_network,
    random_surjective_fibration,
    reference_symmetry_groupoid,
)


def test_input_trees_of_four_node_multigraph():
    net = fixtures.four_node_multi()
    assert input_tree(net, "1").leaves == ()
    assert input_tree(net, "2").leaf_ids() == ("alpha", "beta")
    assert input_tree(net, "3").leaf_ids() == ("gamma",)
    assert input_tree(net, "4").leaf_ids() == ("delta", "epsilon", "zeta")
    assert {l.source_node for l in input_tree(net, "4").leaves} == {"1", "3"}


def test_input_tree_double_edge_target():
    net = fixtures.double_edge()
    tree = input_tree(net, "b")
    assert len(tree.leaves) == 2
    assert all(l.source_node == "a" for l in tree.leaves)


def test_input_tree_loop_contributes_own_leaf():
    net = fixtures.loop_net()
    tree = input_tree(net, "a")
    assert [l.source_node for l in tree.leaves] == ["a"]


def test_input_tree_unknown_node():
    with pytest.raises(PreconditionError):
        input_tree(fixtures.g3(), "zzz")


MISSING_IMAGES = {
    "compose-maps-second-map-lacks-a-node": (
        lambda: compose_maps(
            fixtures.g3_to_c2(),
            NetworkMap(fixtures.cycle2(), fixtures.cycle2(), {"a": "a"}, {"ab": "ab", "ba": "ba"}),
        ),
        PreconditionError, "compose_maps: the second map has no image of node 'b'",
    ),
    "compose-maps-second-map-lacks-an-edge": (
        lambda: compose_maps(
            fixtures.g3_to_c2(),
            NetworkMap(fixtures.cycle2(), fixtures.cycle2(), {"a": "a", "b": "b"}, {"ab": "ab"}),
        ),
        PreconditionError, "compose_maps: the second map has no image of edge 'ba'",
    ),
    "induced-tree-map-at-an-unknown-node": (
        lambda: induced_tree_map(fixtures.g3_to_c2(), "zz"), PreconditionError, "unknown node id 'zz'",
    ),
    "induced-tree-map-lacks-a-node": (
        lambda: induced_tree_map(NetworkMap(fixtures.g3(), fixtures.cycle2(), {}, {}), "1"),
        PreconditionError, "induced_tree_map: the map has no image of node '1'",
    ),
    "induced-tree-map-lacks-an-edge": (
        lambda: induced_tree_map(
            NetworkMap(fixtures.g3(), fixtures.cycle2(), {"1": "a", "2": "b", "3": "a"}, {"a": "ab", "c": "ba"}),
            "1",
        ),
        PreconditionError, "induced_tree_map: the map has no image of edge 'b'",
    ),
}


@pytest.mark.parametrize("case", sorted(MISSING_IMAGES))
def test_structure_call_rejects_an_id_without_an_image(case):
    call, exc, message = MISSING_IMAGES[case]
    with pytest.raises(exc, match=re.escape(message)):
        call()


def test_induced_tree_map_collapse_onto_cycle():
    psi = fixtures.g3_to_c2()
    itm = induced_tree_map(psi, "3")
    assert itm.is_iso
    assert dict(itm.leaf_map) == {"c": "ba"}
    iso = itm.as_iso()
    assert iso.source == "3" and iso.target == "a"


def test_induced_tree_map_identity():
    net = fixtures.g3()
    for a in net.graph.nodes:
        itm = induced_tree_map(identity_map(net), a)
        assert itm.is_iso and itm.as_iso().is_identity


def test_induced_tree_map_non_fibration_tagged():
    m = fixtures.double_collapse()
    itm = induced_tree_map(m, "b")
    assert not itm.is_iso
    assert sorted(itm.leaf_map.values()) == ["loop", "loop"]  # 2 leaves onto 1
    with pytest.raises(PreconditionError):
        itm.as_iso()


def test_enumerate_isos_single_when_one_leaf_each():
    net = fixtures.g3()
    isos = enumerate_tree_isos(net, "1", "2")
    assert len(isos) == 1
    assert isos[0].leaf_bijection == {"b": "a"}


def test_enumerate_isos_empty_on_leaf_count_mismatch():
    net = fixtures.four_node_multi()
    assert enumerate_tree_isos(net, "2", "3") == []


def test_enumerate_isos_all_permutations_of_same_type():
    net = fixtures.four_node_multi()
    isos = enumerate_tree_isos(net, "4", "4")
    assert len(isos) == 6
    assert len({tuple(sorted(i.leaf_bijection.items())) for i in isos}) == 6


def test_enumerate_isos_nine_over_all_ordered_pairs():
    # g3 with one space everywhere: every tree has one leaf, so each ordered
    # pair of nodes carries exactly one isomorphism, 9 in total
    net = fixtures.g3()
    total = sum(
        len(enumerate_tree_isos(net, a, b)) for a in net.graph.nodes for b in net.graph.nodes
    )
    assert total == 9


def test_enumerate_isos_deterministic_order():
    net = fixtures.four_node_multi()
    first = enumerate_tree_isos(net, "4", "4")
    second = enumerate_tree_isos(net, "4", "4")
    assert first == second
    assert first[0].is_identity  # lexicographic enumeration starts at the identity


def test_enumerate_isos_empty_on_root_space_mismatch():
    net = network([("a", R1), ("b", R2)], [])
    assert enumerate_tree_isos(net, "a", "b") == []


def test_enumerate_isos_cap():
    edges = [(f"e{i}", "a", "b") for i in range(10)]  # 10! > 10^6
    net = network([("a", R1), ("b", R1)], edges)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_tree_isos(net, "b", "b")
    assert len(enumerate_tree_isos(net, "b", "b", cap=10**7)) == math.factorial(10)


def test_enumerate_matches_naive_oracle():
    rng = random.Random(23)
    for _ in range(25):
        net = random_network(rng, max_nodes=4, max_edges=5)
        nodes = list(net.graph.nodes)
        a, b = rng.choice(nodes), rng.choice(nodes)
        got = {tuple(sorted(i.leaf_bijection.items())) for i in enumerate_tree_isos(net, a, b)}
        expected = {tuple(sorted(d.items())) for d in naive_tree_isos(net, a, b)}
        assert got == expected


def test_iso_composition_closure():
    net = fixtures.g3()
    ab = enumerate_tree_isos(net, "1", "2")[0]
    bc = enumerate_tree_isos(net, "2", "3")[0]
    ac = ab.then(bc)
    assert ac.source == "1" and ac.target == "3"
    assert ac.leaf_bijection in [i.leaf_bijection for i in enumerate_tree_isos(net, "1", "3")]


def test_iso_inverse_roundtrip():
    net = fixtures.four_node_multi()
    for iso in enumerate_tree_isos(net, "4", "4"):
        assert iso.then(iso.inverse()).is_identity


def test_iso_then_rejects_mismatched_ends():
    net = fixtures.four_node_multi()
    at_4, at_2 = enumerate_tree_isos(net, "4", "4")[0], enumerate_tree_isos(net, "2", "2")[0]
    with pytest.raises(PreconditionError, match="tree isomorphisms do not compose: target/source mismatch"):
        at_4.then(at_2)


def test_tree_isos_are_unequal_to_a_non_sequence():
    isos = enumerate_tree_isos(fixtures.four_node_multi(), "4", "4")
    assert (isos == 5) is False and isos != 5


@pytest.mark.parametrize("n", [25, 2000])
def test_tree_isos_of_a_large_star_compare_and_print(n):
    # 25! passes sys.maxsize, so len() overflows; 2000! has 5736 digits, more than Python prints by default
    star = network([("root", R1)] + [(f"l{i}", R1) for i in range(n)], [(f"e{i}", f"l{i}", "root") for i in range(n)])
    isos, count = enumerate_tree_isos(star, "root", "root", cap=math.inf), math.factorial(n)
    assert iso_count(star, "root", "root") == count
    with pytest.raises(OverflowError):
        len(isos)
    shown = hex(count) if n == 2000 else str(count)
    assert repr(isos) == f"TreeIsos('root' -> 'root', {shown} isomorphisms)"
    assert isos == enumerate_tree_isos(star, "root", "root", cap=math.inf)
    assert isos != [] and isos != [None]  # the counts differ, so no isomorphism is built
    assert enumerate_tree_isos(star, "l0", "root", cap=math.inf) != isos
    # indexing unranks: the last item reverses the leaves, in edge-id order, and the first three are iteration's
    ids = sorted(f"e{i}" for i in range(n))
    assert isos[-1] == TreeIso("root", "root", dict(zip(ids, reversed(ids))))
    assert isos[:3] == list(itertools.islice(isos, 3))


def test_tree_isos_build_each_isomorphism_on_iteration():
    # a 9-leaf star has 9! = 362880 automorphisms: building every permutation before the first takes tens of MB
    star = network([("root", R1)] + [(f"l{i}", R1) for i in range(9)], [(f"e{i}", f"l{i}", "root") for i in range(9)])
    isos = iter(enumerate_tree_isos(star, "root", "root"))
    tracemalloc.start()
    try:
        first = next(isos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.is_identity and peak < 2**20


def test_aut_order_is_product_of_factorials():
    net = fixtures.four_node_multi()
    assert [aut_order(input_tree(net, a)) for a in "1234"] == [1, 2, 1, 6]


def test_groupoid_two_tier_same_space():
    g = symmetry_groupoid(fixtures.funnel4())
    assert g.blocks == (("1", "2"), ("3", "4"))
    assert g.representatives() == ("1", "3")


def test_groupoid_two_tier_split_by_sink_space():
    g = symmetry_groupoid(fixtures.funnel4(R1, R2))
    assert g.blocks == (("1", "2"), ("3",), ("4",))


@pytest.mark.parametrize(
    "members", [(("1", "2"), ("2", "3")), (("1", "2"), ("3", "1")), (("1", "1"), ("2", "3"))], ids=str
)
def test_groupoid_refuses_a_node_listed_twice(members):
    with pytest.raises(PreconditionError, match="^partition does not list each node exactly once$"):
        Partition(members)
    disjoint = Partition([("3", "1"), ("2",)])
    assert disjoint.block_of("3") == ("1", "3") and disjoint.block_id("3") == "1"
    assert disjoint.representatives() == ("1", "2")
    with pytest.raises(PreconditionError, match="^node '4' not covered by the partition$"):
        disjoint.block_of("4")


def test_groupoid_broadcast_single_class_trivial_aut():
    net = fixtures.broadcast10()
    g = symmetry_groupoid(net)
    assert len(g.blocks) == 1
    assert len(g.blocks[0]) == 10
    assert {aut_order(input_tree(net, a)) for a in net.graph.nodes} == {1}


def test_groupoid_witnesses_are_valid_isos():
    net = fixtures.funnel4()
    g = symmetry_groupoid(net)
    for members in g.blocks:
        for member, w in zip(members, canonical_isos(net, members, members[0])):
            assert w.source == member and w.target == members[0]
            keys = {tuple(sorted(i.leaf_bijection.items()))
                    for i in enumerate_tree_isos(net, member, members[0])}
            assert tuple(sorted(w.leaf_bijection.items())) in keys


@pytest.mark.parametrize(
    "call",
    [
        lambda net, zz: iso_count(net, zz, "1"),
        lambda net, zz: iso_count(net, "1", zz),
        lambda net, zz: canonical_isos(net, ["1", zz], "1"),
        lambda net, zz: canonical_isos(net, ["1"], zz),
    ],
    ids=["iso-count-source", "iso-count-target", "canonical-isos-source", "canonical-isos-target"],
)
def test_groupoid_readers_name_an_unknown_node(call):
    with pytest.raises(PreconditionError, match="^unknown node id 'zz'$"):
        call(fixtures.g3(), "zz")


@given(st.integers(0, 10_000))
def test_groupoid_partitions_nodes_and_aut_counts(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=5, max_edges=6)
    g = symmetry_groupoid(net)
    members = [a for b in g.blocks for a in b]
    assert sorted(members) == sorted(net.graph.nodes)
    for a in net.graph.nodes:
        assert sum(1 for _ in enumerate_tree_isos(net, a, a)) == aut_order(input_tree(net, g.block_id(a)))


@given(st.integers(0, 10_000))
def test_groupoid_classes_are_the_partition_of_the_reference_classes(seed):
    net = random_network(random.Random(seed), max_nodes=8, max_edges=12)
    g = symmetry_groupoid(net)
    classes, orders = reference_symmetry_groupoid(net)
    assert g == Partition(members for _, members, _ in classes)
    assert {a: aut_order(input_tree(net, a)) for a in net.graph.nodes} == orders


@given(st.integers(0, 10_000))
def test_iso_sets_are_torsors(seed):
    # |isos(a, b)| is 0 or exactly |Aut(a)|
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=5, max_edges=6)
    nodes = list(net.graph.nodes)
    a, b = rng.choice(nodes), rng.choice(nodes)
    n = len(enumerate_tree_isos(net, a, b))
    assert n in (0, aut_order(input_tree(net, a)))
    assert n == iso_count(net, a, b)


@given(st.integers(0, 10_000))
def test_isomorphy_is_transitive(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=5, max_edges=6)
    nodes = list(net.graph.nodes)
    a, b, c = (rng.choice(nodes) for _ in range(3))
    if enumerate_tree_isos(net, a, b) and enumerate_tree_isos(net, b, c):
        assert enumerate_tree_isos(net, a, c)


@given(st.integers(0, 10_000))
def test_fibrations_induce_isos_on_all_input_trees(seed):
    rng = random.Random(seed)
    m = random_surjective_fibration(rng)
    for a in m.domain.graph.nodes:
        assert induced_tree_map(m, a).is_iso
    mi = random_injective_fibration(rng)
    for a in mi.domain.graph.nodes:
        assert induced_tree_map(mi, a).is_iso
