#!/usr/bin/env python3
"""Coarsest balanced partitions and quotient networks.

A node partition is balanced when members of each block see the same multiset
of source blocks across their in-edges; equivalently, the projection onto the
quotient network is a fibration.  Iterated refinement from the phase-space
classes computes the coarsest such partition, i.e. the smallest quotient.
"""

from fibra import Partition, check_fibration, coarsest_balanced, is_balanced
from fibra.fixtures import funnel4, g3, string_graph

# The string graph: 2n nodes in a line with a feedback pair at the head,
# odd nodes carrying R^1 and even nodes R^2.  Refinement stops at the
# odd/even split, and the quotient is the two-node cycle.
for n in (2, 3):
    net = string_graph(n)
    partition, quotient, projection = coarsest_balanced(net)
    print(f"string graph n={n}: blocks={[list(b) for b in partition.blocks]}")
    print(f"  quotient edges: {[(e.src, e.tgt) for e in quotient.graph.edges]}")
    print(f"  projection is a fibration: {check_fibration(projection).is_fibration}")

# All nodes of g3 share one space and each sees exactly one in-edge, so the
# coarsest balanced partition collapses everything to a single loop node.
partition, quotient, _ = coarsest_balanced(g3())
print(f"\ng3 coarsest blocks: {[list(b) for b in partition.blocks]}")
print(f"quotient: {len(quotient.graph.nodes)} node, {len(quotient.graph.edges)} edge")

# Membership checking of a user-supplied partition, with a witness on failure.
net = funnel4()
for blocks in ([["1", "2"], ["3"], ["4"]], [["1", "2"], ["3", "4"]]):
    ok, witness = is_balanced(net, Partition(blocks))
    print(f"\nfunnel partition {blocks}: balanced={ok}")
    if witness:
        print(f"  witness: nodes {witness.left} and {witness.right} in block {witness.block}")
