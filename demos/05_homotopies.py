"""Homotopies of arrows through paths in finite unitary groups.

The unitaries on a finite correspondence form a product of unitary groups,
so the space is path connected: any intertwiner can be walked back to the
identity along a geodesic U(t) = U0 exp(tH).  That walk upgrades every
shift-equivalence witness to a homotopy shift equivalence: the composite
arrows [M (x) N, ...] and [N (x) M, ...] become homotopic to tensor-power
arrows, with explicit sampled paths.
"""

import numpy as np

from shiftcalc import (
    SEWitness,
    connect_unitaries,
    from_matrix,
    from_rows,
    homotopy_shift_equivalence_from_se,
    identity_unitary,
    random_block_unitary,
    unitarity_defect,
    unitary_distance,
    verify_homotopy,
)

# Geodesics in U(4): endpoints reproduced to machine precision and every
# intermediate sample is unitary.
c4 = from_matrix(from_rows([[4]]))
rng = np.random.default_rng(0)
u0, u1 = random_block_unitary(c4, rng), random_block_unitary(c4, rng)
path = connect_unitaries(u0, u1, steps=8)
print("endpoint error:", unitary_distance(path[-1][1], u1))
print("worst sample defect:", max(unitarity_defect(u) for _, u in path))

# The branch convention: for a scalar block, the path from 1 to i runs
# through exp(i pi t / 2).
c1 = from_matrix(from_rows([[1]]))
quarter = connect_unitaries(
    identity_unitary(c1),
    identity_unitary(c1).replace_block(0, 0, np.array([[1j]])),
    steps=5,
)
print("quarter-turn samples:", [complex(np.round(u.block(0, 0)[0, 0], 6)) for _, u in quarter])

# A witness becomes a homotopy shift equivalence: the composite unitary on
# each side is conjugated onto the tensor-power fiber and homotoped to the
# identity permutation; endpoint 2-arrows tie the fibers back to the arrows.
w = SEWitness(
    from_rows([[2]]),
    from_rows([[1, 1], [1, 1]]),
    from_rows([[1, 1]]),
    from_rows([[1], [1]]),
    lag=1,
)
shift, hom_x, hom_y = homotopy_shift_equivalence_from_se(w, steps=16)
print("X-side homotopy verifies:", verify_homotopy(hom_x))
print("Y-side homotopy verifies:", verify_homotopy(hom_y))
print("fiber dims (X side):", hom_x.fiber.dims, "samples:", len(hom_x.path))

# For the identity self-witness the composite maps are already identities,
# so both homotopies are constant paths.
from shiftcalc import identity_witness

_, hx, _ = homotopy_shift_equivalence_from_se(identity_witness(from_rows([[3]])), steps=4)
spread = max(unitary_distance(u, hx.path[0][1]) for _, u in hx.path)
print("identity witness gives a constant path, spread:", spread)
