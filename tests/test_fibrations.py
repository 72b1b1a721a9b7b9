import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fibra import (
    FibrationRequired,
    NetworkMap,
    Partition,
    PreconditionError,
    R1,
    R2,
    S1,
    check_fibration,
    check_network_map,
    coarsest_balanced,
    compose_maps,
    essential_image,
    factorize,
    is_balanced,
    network,
    polydiagonal_of,
    quotient_of,
)
from fibra import fixtures

from util import (
    all_phase_homogeneous_partitions,
    naive_is_fibration,
    oracle_balanced,
    random_injective_fibration,
    random_map_onto,
    random_network,
    random_surjective_fibration,
)


def test_collapse_to_loop_is_surjective_fibration():
    report = check_fibration(fixtures.g3_to_loop())
    assert report.is_fibration
    assert report.surjective_on_nodes and report.surjective_on_edges
    assert not report.injective_on_nodes


def test_collapse_to_cycle_is_surjective_fibration():
    report = check_fibration(fixtures.g3_to_c2())
    assert report.is_fibration and report.surjective_on_nodes


def test_cycle_embedding_is_injective_fibration():
    report = check_fibration(fixtures.c2_into_g3())
    assert report.is_fibration
    assert report.injective_on_nodes and report.injective_on_edges
    assert not report.surjective_on_nodes


def test_double_collapse_rejected_with_lift_counts():
    report = check_fibration(fixtures.double_collapse())
    assert not report.is_fibration
    by_node = {f.node: f.lift_count for f in report.failures}
    assert by_node["b"] == 2  # both parallel edges land on the loop
    assert by_node["a"] == 0  # nothing lifts the loop at a


def test_fibration_agrees_with_naive_oracle():
    rng = random.Random(31)
    seen_fibration = seen_failure = 0
    for _ in range(120):
        cod = random_network(rng, max_nodes=4, max_edges=5)
        m = random_map_onto(rng, cod, max_nodes=5, max_edges=7)
        got = check_fibration(m).is_fibration
        assert got == naive_is_fibration(m)
        seen_fibration += got
        seen_failure += not got
    assert seen_fibration and seen_failure  # the generator exercises both outcomes


def test_generated_fibrations_check_out():
    rng = random.Random(37)
    for _ in range(40):
        m = random_surjective_fibration(rng)
        assert check_network_map(m) == []
        report = check_fibration(m)
        assert report.is_fibration and report.surjective_on_nodes
        assert report.surjective_on_edges  # forced for surjective fibrations
        mi = random_injective_fibration(rng)
        ri = check_fibration(mi)
        assert ri.is_fibration and ri.injective_on_nodes and ri.injective_on_edges


def test_factorize_fork_through_double_edge():
    surj, inj = factorize(fixtures.fork_to_chain())
    image = surj.codomain
    assert set(image.graph.nodes) == {"a", "b"}
    assert sorted(e.edge_id for e in image.graph.edges) == ["dp", "gp"]
    assert check_fibration(surj).is_fibration and check_fibration(surj).surjective_on_nodes
    assert check_fibration(inj).is_fibration and check_fibration(inj).injective_on_nodes
    recomposed = compose_maps(surj, inj)
    m = fixtures.fork_to_chain()
    assert recomposed.node_map == m.node_map and recomposed.edge_map == m.edge_map


def test_factorize_surjective_gives_identity_injection():
    surj, inj = factorize(fixtures.g3_to_c2())
    assert inj.node_map == {"a": "a", "b": "b"}
    assert surj.codomain.is_same(fixtures.cycle2())


def test_factorize_injective_gives_iso_surjection():
    surj, inj = factorize(fixtures.c2_into_g3())
    report = check_fibration(surj)
    assert report.surjective_on_nodes and report.injective_on_nodes


def test_factorize_rejects_non_fibration():
    with pytest.raises(FibrationRequired):
        factorize(fixtures.double_collapse())


def test_factorize_random_fibrations_recompose():
    rng = random.Random(41)
    for _ in range(25):
        m = random_injective_fibration(rng)
        surj, inj = factorize(m)
        assert check_fibration(surj).is_fibration
        assert check_fibration(inj).is_fibration
        back = compose_maps(surj, inj)
        assert back.node_map == dict(m.node_map) and back.edge_map == dict(m.edge_map)


def test_polydiagonal_of_cycle_collapse():
    pd = polydiagonal_of(fixtures.g3_to_c2())
    assert pd.partition.blocks == (("1", "3"), ("2",))
    x = np.array([1.0, 5.0, 1.0])
    assert pd.contains(x)
    assert not pd.contains(np.array([1.0, 5.0, 2.0]))
    assert pd.violation(np.array([1.0, 5.0, 1.5])) == pytest.approx(0.5)


def test_polydiagonal_of_loop_collapse_is_full_diagonal():
    pd = polydiagonal_of(fixtures.g3_to_loop())
    assert pd.partition.blocks == (("1", "2", "3"),)
    assert pd.contains(np.array([2.0, 2.0, 2.0]))
    assert not pd.contains(np.array([2.0, 2.0, 2.1]))


def test_polydiagonal_identity_has_no_constraints():
    from fibra import identity_map

    pd = polydiagonal_of(identity_map(fixtures.g3()))
    assert all(len(b) == 1 for b in pd.partition.blocks)
    assert pd.violation(np.array([1.0, 2.0, 3.0])) == 0.0


def test_polydiagonal_circle_wraps():
    m = fixtures.g3_to_c2(S1)
    pd = polydiagonal_of(m)
    x = np.array([0.1, 2.0, 0.1 + 2 * np.pi])  # same circle point, unwrapped
    assert pd.contains(x)


def test_polydiagonal_requires_surjective():
    with pytest.raises(PreconditionError):
        polydiagonal_of(fixtures.c2_into_g3())
    with pytest.raises(FibrationRequired):
        polydiagonal_of(fixtures.double_collapse())


def test_coarsest_balanced_string_graphs():
    for n in (2, 3):
        partition, quotient, projection = coarsest_balanced(fixtures.string_graph(n))
        odd = tuple(str(k) for k in range(1, 2 * n + 1) if k % 2 == 1)
        even = tuple(str(k) for k in range(1, 2 * n + 1) if k % 2 == 0)
        assert partition.blocks == (odd, even)
        # quotient is the 2-cycle: two nodes, one edge each way
        assert len(quotient.graph.nodes) == 2
        srcs = sorted((e.src, e.tgt) for e in quotient.graph.edges)
        assert srcs == [("1", "2"), ("2", "1")]
        assert check_fibration(projection).is_fibration


def test_coarsest_balanced_two_tier_splits_fully():
    # stable refinement separates the hub from the sink
    partition, _, projection = coarsest_balanced(fixtures.funnel4())
    assert partition.blocks == (("1", "2"), ("3",), ("4",))
    assert check_fibration(projection).is_fibration


def test_coarsest_balanced_no_edges_single_blocks():
    net = network([("a", R1), ("b", R1), ("c", R1)], [])
    partition, quotient, _ = coarsest_balanced(net)
    assert partition.blocks == (("a", "b", "c"),)
    assert len(quotient.graph.nodes) == 1 and quotient.graph.edges == ()


def test_coarsest_balanced_g3_all_same_space():
    partition, quotient, _ = coarsest_balanced(fixtures.g3())
    assert partition.blocks == (("1", "2", "3"),)
    assert len(quotient.graph.edges) == 1  # the loop


def test_is_balanced_g3_examples():
    net = fixtures.g3()
    ok, _ = is_balanced(net, Partition([["1", "3"], ["2"]]))
    assert ok
    # confirmed by brute force: every member of {1,2} sees one input from {1,2}
    ok, _ = is_balanced(net, Partition([["1", "2"], ["3"]]))
    assert ok
    assert oracle_balanced(net, Partition([["1", "2"], ["3"]]))
    ok, witness = is_balanced(net, Partition([["2", "3"], ["1"]]))
    assert not ok and witness is not None
    assert {witness.left, witness.right} == {"2", "3"}


def test_is_balanced_discrete_partition():
    net = fixtures.funnel4()
    singletons = Partition([[a] for a in net.graph.nodes])
    ok, _ = is_balanced(net, singletons)
    assert ok


def test_is_balanced_rejects_non_homogeneous():
    net = fixtures.funnel4(R1, R2)
    with pytest.raises(PreconditionError):
        is_balanced(net, Partition([["3", "4"], ["1", "2"]]))


def test_is_balanced_rejects_a_node_listed_twice():
    with pytest.raises(PreconditionError, match="exactly once"):
        is_balanced(fixtures.g3(), Partition([["1", "2", "3"], ["3"]]))


@pytest.mark.parametrize("blocks", [[["1", "2"]], [["1", "2", "3"], ["zz"]]], ids=["misses-a-node", "names-an-unknown-node"])
def test_partition_must_cover_the_network(blocks):
    for check in (is_balanced, quotient_of):
        with pytest.raises(PreconditionError, match="^partition does not list each node exactly once$"):
            check(fixtures.g3(), Partition(blocks))


def test_quotient_rejects_unbalanced():
    with pytest.raises(PreconditionError):
        quotient_of(fixtures.funnel4(), Partition([["1", "2"], ["3", "4"]]))


def test_fiber_partition_of_surjective_fibration_is_balanced():
    rng = random.Random(43)
    for _ in range(30):
        m = random_surjective_fibration(rng)
        fibers: dict[str, list[str]] = {}
        for a in m.domain.graph.nodes:
            fibers.setdefault(m.node_map[a], []).append(a)
        ok, _ = is_balanced(m.domain, Partition(fibers.values()))
        assert ok


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_coarsest_against_brute_force(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=5, max_edges=6)
    partition, _, projection = coarsest_balanced(net)
    assert naive_is_fibration(projection)
    balanced = [p for p in all_phase_homogeneous_partitions(net) if oracle_balanced(net, p)]
    assert any(p.blocks == partition.blocks for p in balanced)
    for p in balanced:
        assert p.refines(partition)
        # cross-route: balanced partitions yield quotient projections that are fibrations
        _, proj = quotient_of(net, p)
        assert naive_is_fibration(proj)


def test_essential_image_of_core_inclusion_all_nodes():
    m = fixtures.g3_into_ten()
    assert essential_image(m) == frozenset(fixtures.broadcast10().graph.nodes)


def test_essential_image_identity():
    from fibra import identity_map

    net = fixtures.four_node_multi()
    assert essential_image(identity_map(net)) == frozenset(net.graph.nodes)


def test_essential_image_of_source_inclusion():
    cod = fixtures.four_node_multi()
    dom = network([("1", R1)], [])
    m = NetworkMap(dom, cod, {"1": "1"}, {})
    assert essential_image(m) == frozenset({"1"})  # only node with zero in-edges


def test_essential_image_contains_image():
    rng = random.Random(47)
    for _ in range(25):
        cod = random_network(rng, max_nodes=5, max_edges=6)
        m = random_map_onto(rng, cod)
        assert set(m.node_map.values()) <= essential_image(m)


def test_essential_image_misses_retyped_tail():
    m = fixtures.c2_into_g3_mixed()
    assert essential_image(m) == frozenset({"1", "2"})
