#!/usr/bin/env python3
"""Synchrony subspaces carved out by surjective fibrations.

Collapsing g3 onto the two-cycle identifies nodes 1 and 3, so the subspace
{x1 = x3} is invariant under *any* dynamics assembled from one control per
isomorphism class.  The trajectory below starts partially synchronised and
stays so to machine precision, while the full state keeps moving.
"""

import numpy as np

from fibra import integrate, interconnect, polydiagonal_of, pullback, verify_polydiagonal_invariance
from fibra.fixtures import cycle2, g3_to_c2, linear_dynamics

psi = g3_to_c2()
w_cycle = linear_dynamics(cycle2())

pd = polydiagonal_of(psi)
print(f"fiber blocks of the collapse: {[list(b) for b in pd.partition.blocks]}")

field = interconnect(psi.domain, pullback(psi, w_cycle))
x0 = np.array([0.3, -1.0, 0.3])  # x1 = x3, node 2 free
traj = integrate(field, x0, T=10.0, h=1e-3)

drift = pd.violation(traj.states)
movement = np.abs(traj.states[-1] - traj.states[0]).max()
print(f"max |x1 - x3| along the trajectory: {drift:.3e}")
print(f"total state movement over T=10:    {movement:.3f}")

# the same check, packaged: integrates and reports the worst violation
worst = verify_polydiagonal_invariance(psi, w_cycle, x0, T=10.0, h=1e-3)
print(f"packaged synchrony certification:  {worst:.3e}")

# a start off the subspace is rejected up front
try:
    verify_polydiagonal_invariance(psi, w_cycle, np.array([0.3, -1.0, 0.31]), T=1.0, h=1e-2)
except Exception as exc:
    print(f"off-subspace start rejected: {exc}")
