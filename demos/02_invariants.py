"""Refuting shift equivalence with computable invariants.

The invariant battery (characteristic polynomial away from zero,
Bowen-Franks cokernels via Smith normal form, eventual rank) can prove two
matrices are NOT shift equivalent; it never certifies a positive answer,
which is what witnesses are for.
"""

from shiftcalc import (
    bowen_franks_general,
    compare,
    compute_invariants,
    fold_chain,
    from_rows,
    poly,
    random_sse_chain,
    smith_normal_form,
)

# The full 2-shift and 3-shift look similar but carry different spectra.
two, three = from_rows([[2]]), from_rows([[3]])
for name, m in (("[2]", two), ("[3]", three)):
    inv = compute_invariants(m)
    print(name, "-> char away from zero:", inv.nonzero_char_poly,
          "| Bowen-Franks:", inv.bowen_franks, "| eventual rank:", inv.eventual_rank)

verdict = compare(two, three)
print("compare([2],[3]):", verdict)

# [2] and the all-ones 2x2 matrix agree on every invariant (they are in fact
# shift equivalent, as the witness demo shows).
print("compare([2], ones):", compare(two, from_rows([[1, 1], [1, 1]])))

# Bowen-Franks groups are cokernels presented by Smith normal form.  The
# invariant-factor list drops 1s and keeps one trailing 0 per free summand.
m = from_rows([[2, 4], [6, 8]])
print("SNF of [[2,4],[6,8]]:", smith_normal_form(m))

# Generalized Bowen-Franks groups coker(p(A)) refine the classical one for
# any integer polynomial with p(0) = +-1.
fib = from_rows([[1, 1], [1, 0]])
for coeffs in ([1, -1], [1, 1], [1, 0, -1]):
    p = poly(coeffs)
    print(f"coker(p(A)) for p={p}:", bowen_franks_general(fib, p) or "trivial")

# Along any strong-shift-equivalence chain the whole battery is constant.
chain = random_sse_chain(from_rows([[1, 2], [1, 1]]), steps=4, seed=3)
folded = fold_chain(chain)
print("endpoints of a random SSE chain compare as:", compare(folded.a, folded.b))
