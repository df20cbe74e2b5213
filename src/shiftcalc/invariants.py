"""Computable shift-equivalence invariants of essential matrices.

These invariants can refute shift equivalence but never certify it: a
difference in any of them separates the matrices, while agreement merely
returns an inconclusive verdict (positive certificates are the business of
the witness module).

Cokernel groups are reported as invariant-factor lists in canonical form:
factors equal to 1 are dropped and each free summand appears as a trailing 0,
so two lists are equal iff the groups are isomorphic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain
from typing import Optional

from .errors import DomainError
from .exact import (
    IntMatrix,
    IntPolynomial,
    char_poly_and_adjugate,
    from_rows,
    is_essential,
    poly,
    poly_eval_matrix,
    poly_strip_t,
    smith_normal_form,
)


@dataclass(frozen=True)
class DimensionInvariants:
    """The computable shadow of the dimension data of an essential matrix.

    ``nonzero_char_poly`` is the characteristic polynomial with every factor
    of t removed; ``bowen_franks`` is the canonical invariant-factor list of
    coker(I - A), taken from D = chi_A(1) = det(I - A), adj(I - A) = q(A) for
    q(t) = (chi_A(t) - D) / (t - 1), and the Smith form modulo
    h = gcd(D, adj(I - A) B), where chi_A and q(A) B come from one table of
    powers of A.  At h = 1 that Smith form is all ones without any work, at
    h = 2 it is a rank over GF(2), and only h = 0, that is D = 0 and
    adj(I - A) B = 0, takes the Smith form over Z (see
    :func:`compute_invariants`);
    ``eventual_rank`` is the rank of A^n for n the matrix size,
    which counts the nonzero eigenvalues with multiplicity and so is the
    degree of ``nonzero_char_poly``.  Being derived from that polynomial, it
    and ``det_away_from_zero`` are never the only separating invariant.
    :func:`compare` checks the fields in their order.
    """

    nonzero_char_poly: IntPolynomial
    bowen_franks: tuple[int, ...]
    eventual_rank: int
    det_away_from_zero: int


#: Order in which invariants are compared and named in verdicts: the field order.
INVARIANT_NAMES = tuple(field.name for field in fields(DimensionInvariants))


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of comparing two invariant batteries.

    ``separating`` lists every invariant that differs, in the order of
    ``INVARIANT_NAMES``; empty means inconclusive.  ``primary`` names the first of them.
    """

    separating: tuple[str, ...]

    @property
    def distinguished(self) -> bool:
        return bool(self.separating)

    @property
    def primary(self) -> Optional[str]:
        return self.separating[0] if self.separating else None

    def __str__(self):
        if not self.distinguished:
            return "Inconclusive"
        return f"Distinguished({', '.join(self.separating)})"


def cokernel_invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Canonical invariant factors of coker(m) for a square m: the Smith
    diagonal without its 1s, each 0 (a free summand) trailing."""
    return tuple(d for d in smith_normal_form(m) if d != 1)


def compute_invariants(a: IntMatrix) -> DimensionInvariants:
    """The full invariant battery for an essential matrix.

    The Bowen-Franks factors d1 | ... | dn of M = I - A come from chi = det(tI - A),
    computed once for the other invariants.  One table of powers of A, with
    primes sized for both, gives chi and adj M B
    (:func:`~shiftcalc.exact.char_poly_and_adjugate`):

    * D = chi(1) = det M.
    * adj M = q(A) for q(t) = (chi(t) - D) / (t - 1), by Cayley-Hamilton.
      Every entry of adj M is an (n-1)-minor, so a multiple of
      g = d1 ... d(n-1); hence g divides
      h = gcd(D, entries of adj M B) for the two fixed columns B = (1, ..., 1)
      and (1, ..., n), and h divides D.
    * h != 0: the Smith form modulo h gives gcd(di, h) = di for i < n, since
      di | g | h, and dn = |D| / (d1 ... d(n-1)), which is 0 when D = 0 (rank
      n - 1, one free summand).  For h = 1 the Smith form reads nothing of M,
      and for h = 2 it is the rank of M over GF(2) (see
      :func:`~shiftcalc.exact.smith_normal_form`); other h eliminate modulo h.
    * h = 0 only when D = 0 and adj M B = 0; the same call, modulo 0, then
      takes the Smith form over Z.
    """
    if not is_essential(a):
        raise DomainError("invariants are defined for essential matrices")
    chi, adjugate = char_poly_and_adjugate(a, from_rows([[1, j] for j in range(1, a.rows + 1)]))
    stripped, _ = poly_strip_t(chi)
    # I - A in one pass: A's entries are already valid ints.
    m = IntMatrix(
        a.rows, a.rows, tuple(tuple((i == j) - x for j, x in enumerate(row)) for i, row in enumerate(a.entries))
    )
    det = sum(chi.coeffs)
    h = abs(det)
    for y in chain.from_iterable(adjugate.entries):
        h = math.gcd(h, y)
        if h == 1:
            break
    diag = smith_normal_form(m, modulus=h)
    if h:
        diag = (*diag[:-1], abs(det) // math.prod(diag[:-1]))
    bf = tuple(d for d in diag if d != 1)
    det_away = (-1) ** stripped.degree * stripped.constant_term()
    return DimensionInvariants(stripped, bf, stripped.degree, det_away)


def compare(a: IntMatrix, b: IntMatrix) -> ComparisonVerdict:
    """Compare the invariant batteries of two essential matrices.

    Distinguished verdicts name every differing invariant; shift-equivalent
    matrices always compare inconclusive.
    """
    inv_a = compute_invariants(a)
    inv_b = compute_invariants(b)
    return ComparisonVerdict(
        tuple(name for name in INVARIANT_NAMES if getattr(inv_a, name) != getattr(inv_b, name))
    )


def bowen_franks_general(a: IntMatrix, p: IntPolynomial) -> tuple[int, ...]:
    """Invariant factors of coker(p(A)) for a polynomial with p(0) = +-1.

    The unit constant term makes the group invariant under shift
    equivalence, refining the plain I - A cokernel.
    """
    if p.constant_term() not in (1, -1):
        raise DomainError("generalized Bowen-Franks groups need p(0) in {1, -1}")
    return cokernel_invariant_factors(poly_eval_matrix(p, a))


#: The polynomial 1 - t, giving the classical cokernel group.
ONE_MINUS_T = poly([1, -1])
#: 1 + t and 1 - t^2, the refinements used by the cross-check suite.
ONE_PLUS_T = poly([1, 1])
ONE_MINUS_T_SQUARED = poly([1, 0, -1])
