#!/usr/bin/env python3
"""Driving subsystems and the kernel of the pullback.

An injective fibration exhibits its image as an autonomous subsystem that
drives the rest of the network: no edges feed back into the image, and
restriction to the image maps the large system's field onto the small one's.
The pullback of class controls along the map is onto, and it kills exactly
the controls supported off the essential image.
"""

import numpy as np

from fibra import (
    essential_image,
    interconnect,
    parse_control,
    per_class_field,
    pullback,
    pullback_kernel_check,
    signature_at,
    verify_driving_decomposition,
)
from fibra.fixtures import (
    broadcast10,
    c2_into_g3_mixed,
    g3_into_ten,
    linear_dynamics,
)
from fibra.sampling import sample_state

# The three-node core sits inside the ten-node broadcast network with no
# feedback from the seven downstream nodes.
incl = g3_into_ten()
report = verify_driving_decomposition(incl, linear_dynamics(broadcast10()), samples=20, seed=0)
print(f"core drives the broadcast network: {report.ok}")
print(f"  feedback edges: {list(report.feedback_edges)}")
print(f"  restriction conjugacy residual: {report.pointwise_max_residual:.3e}")

# With one space everywhere, every input tree is isomorphic to a core tree,
# so the inclusion is essentially surjective and only the zero control
# pulls back to zero.
print(f"  essential image size: {len(essential_image(incl))} of 10")

# Distinct spaces break that: the two-cycle embeds into a variant of g3 whose
# tail node carries R^2.  The tail class is invisible to the pullback.
m = c2_into_g3_mixed()
cod = m.codomain
print(f"\nmixed-space embedding essential image: {sorted(essential_image(m))} of {sorted(cod.graph.nodes)}")
off_image = per_class_field(
    cod,
    {
        "1": parse_control(["0"], signature_at(cod, "1")),
        "3": parse_control(["x[0] + 1", "x[1] - 2"], signature_at(cod, "3")),
    },
)
pulled = interconnect(m.domain, pullback(m, off_image))
rng = np.random.default_rng(0)
samples = [pulled(sample_state(pulled.index, rng)) for _ in range(100)]
print(f"nonzero control off the essential image pulls back to zero: {not np.any(samples)}")
print(f"kernel description certified: {pullback_kernel_check(m, off_image, samples=100, seed=0)}")
