"""Concrete shifts between correspondences, alignment, and transitivity.

A witness (A, B, R, S, m) induces a six-tuple (M, N, Phi_M, Phi_N, Psi_X,
Psi_Y) of correspondences and unitaries: a *concrete shift*.  It is *aligned*
when two triple-tensor coherence equations hold; equivalently, when the Psi
maps are 2-arrows onto the tensor-power arrows.  Alignment survives coherent
conjugation and composition, which is how new aligned shifts are made.
"""

import numpy as np

from shiftcalc import (
    SEWitness,
    alignment_residuals,
    build_from_se,
    compose_shifts,
    conjugate_shift,
    from_rows,
    random_block_unitary,
    reverse_shift,
    trivial_shift,
    two_arrow_residuals,
    verify_aligned,
    verify_concrete_shift,
)

w = SEWitness(
    from_rows([[2]]),
    from_rows([[1, 1], [1, 1]]),
    from_rows([[1, 1]]),
    from_rows([[1], [1]]),
    lag=1,
)

# The canonical shift induced by the witness: M = X(R), N = X(S), all four
# unitaries the canonical basis identifications.
shift = build_from_se(w)
print("concrete:", verify_concrete_shift(shift))
print("alignment residuals of the canonical maps:", alignment_residuals(shift))
print("aligned:", verify_aligned(shift))

# The same verdict through the 2-arrow formulation, computed separately;
# the acceptance suite checks that the two formulations agree.
print("2-arrow residuals:", two_arrow_residuals(shift))

# Breaking alignment while staying concrete: phase a single basis vector of
# Psi_X.  Unitarity is untouched, the coherence equation is not.
from shiftcalc import AlignedShiftData

block = shift.psi_x.block(0, 0)
phase = np.diag([np.exp(0.9j), 1.0])
twisted = AlignedShiftData(
    shift.x_obj, shift.y_obj, shift.m_arrow, shift.n_arrow,
    shift.psi_x.replace_block(0, 0, phase @ block), shift.psi_y, shift.lag,
)
print("twisted is concrete:", verify_concrete_shift(twisted),
      "| aligned:", verify_aligned(twisted))

# Conjugating all six maps coherently by random unitaries preserves
# alignment exactly; composing aligned shifts adds their lags.
base = trivial_shift(from_rows([[1, 1], [1, 0]]))
rng = np.random.default_rng(5)
conj = conjugate_shift(
    base,
    random_block_unitary(base.m_arrow.f, rng),
    random_block_unitary(base.n_arrow.f, rng),
)
print("conjugated trivial shift aligned:", verify_aligned(conj))

composed = compose_shifts(conj, reverse_shift(conj))
print("composed lag:", composed.lag,
      "| aligned:", verify_aligned(composed, 8e-9),
      "| residual:", max(alignment_residuals(composed)))
