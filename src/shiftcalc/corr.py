"""Finite graph correspondences and the block-unitary calculus over them.

A nonnegative integer V-by-W matrix R determines a finite bimodule over the
function algebras on V and W: block (v, w) is a complex space of dimension
R[v][w], spanned by the edges (v, alpha, w) with 0 <= alpha < R[v][w].  The
commutative algebra actions force every bimodule map to preserve blocks, so a
unitary between two such correspondences is simply one complex unitary matrix
per block.

Tensor products are taken over composable edge paths.  Basis vectors of any
iterated tensor product are flat edge paths, ordered inside each block by the
path's (node, alpha) itinerary.  That order is derived from the sequence of
atomic factors, never stored, and never depends on the bracketing, so every
associativity isomorphism is the identity permutation and equality compares
factor sequences.  All the coherence bookkeeping in this module rests on
that one convention.  Only this module reads a sequence.  It keeps it as runs
(factor, count), a new run starting only where the factor changes, so any
bracketing gives one spelling, and X^(x)m of an edge correspondence is one run.
Where the calculus tensors a map with an identity, u (x) 1_F, the caller passes
F itself, and ``tensor_unitaries`` places u's blocks without forming 1_F.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .exact import IntMatrix, is_essential, is_nonnegative, mat_mul
from .exact import identity as int_identity

#: A basis vector: a path of edges (source label, alpha, target label).
Path = tuple

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class GraphCorrespondence:
    """The edge bimodule of an integer matrix, or a tensor product of such.

    Immutable, and equal and hashed by labels, dims and factor runs.  ``dims`` records the block
    dimensions, ``factors`` the atomic (left labels, right labels, matrix) triples multiplied together,
    as runs (triple, count).  No constructor allocates per edge: ``ends`` is derived when first read.
    """

    left_index: tuple
    right_index: tuple
    dims: IntMatrix
    factors: tuple

    @cached_property
    def ends(self) -> tuple:
        """``ends[i]``: the right index at which each path out of i ends, in basis order, kept once read.  An
        atom repeats column j R[i][j] times in row i; a run raises it to its count by repeated squaring."""
        try:
            runs = ((tuple(np.repeat(np.arange(r.cols), row) for row in r.entries), n) for (_, _, r), n in self.factors)
            return reduce(_follow, (_power(atom, n, _follow) for atom, n in runs))
        except MemoryError:
            raise DomainError("correspondence block dimensions are too large to hold a basis") from None

    # -- structure ---------------------------------------------------------

    def block_dim(self, i: int, j: int) -> int:
        return self.dims[i, j]

    def block_basis(self, i: int, j: int) -> tuple[Path, ...]:
        """Basis paths of block (i, j): the paths out of i, each factor's
        row taken in (target, alpha) order, that end at j."""
        paths = [((), i)]
        for left, right, r in (atom for atom, count in self.factors for _ in range(count)):
            paths = [
                (p + ((left[u], alpha, right[w]),), w)
                for p, u in paths
                for w in range(r.cols)
                for alpha in range(r[u, w])
            ]
        return tuple(p for p, end in paths if end == j)

    def blocks(self):
        """(i, j) pairs of nonempty blocks, row-major."""
        for i in range(len(self.left_index)):
            for j in range(len(self.right_index)):
                if self.dims[i, j] > 0:
                    yield (i, j)

    @property
    def total_dim(self) -> int:
        return sum(x for row in self.dims.entries for x in row)

    @property
    def basis(self) -> tuple[Path, ...]:
        """All basis paths, blocks in row-major order."""
        out = []
        for ij in self.blocks():
            out.extend(self.block_basis(*ij))
        return tuple(out)

    def same_shape(self, other: "GraphCorrespondence") -> bool:
        return (
            self.left_index == other.left_index
            and self.right_index == other.right_index
            and self.dims == other.dims
        )

    def __repr__(self):
        return (
            f"GraphCorrespondence({len(self.left_index)}x{len(self.right_index)}, "
            f"total dim {self.total_dim})"
        )


def from_matrix(r: IntMatrix, v: Optional[Sequence] = None, w: Optional[Sequence] = None) -> GraphCorrespondence:
    """The edge correspondence of a nonnegative integer matrix.

    Block (v, w) gets the ordered basis (v, 0, w), (v, 1, w), ...; zero rows
    and columns are allowed here (only object correspondences must be
    essential).
    """
    if not is_nonnegative(r):
        raise DomainError("correspondence matrices must be nonnegative")
    v = tuple(v) if v is not None else tuple(range(r.rows))
    w = tuple(w) if w is not None else tuple(range(r.cols))
    if len(v) != r.rows or len(w) != r.cols:
        raise ShapeError("index label lists must match the matrix shape")
    if not basis_fits(r):
        raise DomainError("correspondence block dimensions are too large to hold a basis")
    return GraphCorrespondence(v, w, r, (((v, w, r), 1),))


def basis_fits(r: IntMatrix) -> bool:
    """Whether numpy can index each row's edges, 8 bytes apiece, as :func:`from_matrix` requires.  No constructor
    allocates them: a correspondence's edges are first held when ``tensor_unitaries`` reads its ends."""
    return all(sum(row) <= np.iinfo(np.intp).max // 8 for row in r.entries)


def tensor(x: GraphCorrespondence, y: GraphCorrespondence) -> GraphCorrespondence:
    """Interior tensor product over the shared middle index set.

    Block (v, w) is spanned by the composable path pairs, flattened and
    ordered by their (node, alpha) itinerary: each path of X out of v, in
    order, followed by its continuations in Y.  Its dimension is the (v, w)
    entry of the product of the two dims matrices.
    """
    if x.right_index != y.left_index:
        raise ShapeError("tensor factors must share their middle index set")
    return GraphCorrespondence(x.left_index, y.right_index, mat_mul(x.dims, y.dims), _join(x.factors, y.factors))


def _join(a: tuple, b: tuple) -> tuple:
    """Factor runs ``a`` then ``b``, the two runs at the seam merged if their factors agree."""
    (last, p), (first, q) = a[-1], b[0]
    return a[:-1] + (((last, p + q),) if last == first else ((last, p), (first, q))) + b[1:]


def _follow(x_ends: tuple, y_ends: tuple) -> tuple:
    """The ends of X (x) Y from those of X and Y: each path of X, in order, followed by Y's out of its end."""
    return tuple(np.concatenate([y_ends[u] for u in row]) if row.size else row for row in x_ends)


def _power(x, m: int, times: Callable):
    """x times itself, m >= 1 factors, by repeated squaring: O(log m) products, for associative ``times``."""
    if m == 1:
        return x
    square = times(half := _power(x, m // 2, times), half)
    return times(square, x) if m & 1 else square


def _pair_positions(row_ends: np.ndarray, col: np.ndarray, u: int) -> np.ndarray:
    """Positions, p-major, in block (i, j) of X (x) Y of the pairs p (x) q with
    p in block (i, u) of X and q in block (u, j) of Y.  ``row_ends`` is
    ``X.ends[i]`` and ``col`` column j of Y's dims; earlier paths p come first."""
    counts = col[row_ends]
    starts = np.cumsum(counts) - counts
    return (starts[row_ends == u][:, None] + np.arange(col[u])).ravel()


# ---------------------------------------------------------------------------
# Block unitaries
# ---------------------------------------------------------------------------


class BlockUnitary:
    """A block-preserving linear map between two same-shaped correspondences.

    ``blocks[(i, j)]`` maps block (i, j) of the source to block (i, j) of the
    target, columns indexed by source basis vectors.  Unitarity is not
    enforced at construction (corrupted maps must be representable); use
    :func:`unitarity_defect` to measure it.
    """

    __slots__ = ("source", "target", "blocks")

    def __init__(self, source: GraphCorrespondence, target: GraphCorrespondence, blocks):
        if not source.same_shape(target):
            raise ShapeError("source and target of a block unitary must have equal dims")
        self.source = source
        self.target = target
        self.blocks = {}
        for ij in source.blocks():
            d = source.block_dim(*ij)
            try:
                m = np.asarray(blocks[ij], dtype=complex)
            except KeyError:
                raise ShapeError(f"missing block {ij}") from None
            if m.shape != (d, d):
                raise ShapeError(f"block {ij} must be {d}x{d}, got {m.shape}")
            self.blocks[ij] = m

    def block(self, i: int, j: int) -> np.ndarray:
        return self.blocks[(i, j)]

    def adjoint(self) -> "BlockUnitary":
        """Blockwise conjugate transpose; the inverse when unitary."""
        return BlockUnitary(
            self.target, self.source, {ij: m.conj().T for ij, m in self.blocks.items()}
        )

    def replace_block(self, i: int, j: int, m) -> "BlockUnitary":
        blocks = dict(self.blocks)
        blocks[(i, j)] = np.asarray(m, dtype=complex)
        return BlockUnitary(self.source, self.target, blocks)

    def __repr__(self):
        return f"BlockUnitary({len(self.blocks)} blocks, total dim {self.source.total_dim})"


def identity_unitary(c: GraphCorrespondence) -> BlockUnitary:
    return canonical_identification(c, c)


def canonical_identification(src: GraphCorrespondence, tgt: GraphCorrespondence) -> BlockUnitary:
    """The identity-in-coordinates unitary between two same-shaped correspondences.

    This is the canonical move identifying, e.g., the tensor product of two
    edge correspondences with the edge correspondence of the product matrix:
    the k-th basis path of each block is sent to the k-th.
    """
    return BlockUnitary(src, tgt, {ij: np.eye(src.block_dim(*ij)) for ij in src.blocks()})


def unitarity_defect(u: BlockUnitary, tol: float = 0.0) -> float:
    """Largest blockwise deviation of U*U and UU* from the identity.  Blocks are
    square, so both deviations are max |sigma_i^2 - 1|: one ``eigvalsh`` of U*U - I.

    A verdict ``<= tol`` is all the caller needs: a block whose Frobenius norm
    ||U*U - I||_F, an upper bound of the operator norm, is at most tol / 2 counts
    at that bound, and only the other blocks take the ``eigvalsh``.  The result is
    <= tol exactly when the exact defect is, and any result above tol / 2 (at the
    default tol = 0, any result) is exact.  A block whose U*U - I holds nan or inf
    (from a nan or an overflow) has defect nan, which no ``<= tol`` accepts.
    """
    worst = 0.0
    for m in u.blocks.values():
        gram = m.conj().T @ m - np.eye(m.shape[0])
        if (bound := np.linalg.norm(gram)) <= tol / 2:
            defect = bound
        elif np.isfinite(gram).all():
            defect = np.abs(np.linalg.eigvalsh(gram)).max()
        else:
            defect = np.nan  # eigvalsh need not converge on it
        worst = np.maximum(worst, defect)  # unlike max(), keeps a nan
    return float(worst)


def unitary_distance(u1: BlockUnitary, u2: BlockUnitary) -> float:
    """Largest blockwise operator-norm difference of two same-shaped maps.

    Per block, the square root of the largest eigenvalue of D*D for the
    difference D.  ``aligned verify`` and ``corr check-2arrow`` print this
    value as a residual, so a bound in its place would change their reports,
    and an SVD of D gave last bits that changed with the BLAS thread count on
    dense blocks, where ``eigvalsh`` of D*D gave the same bits at 1, 2 and 4
    threads.  A block whose D has no nonzero entry has distance 0 with no
    product and no ``eigvalsh``.  A block whose D*D holds nan or inf (from a
    nan, or from an overflow at distances above about 1e154) has distance nan,
    which no ``<= tol`` accepts; below about 1e-154, D*D underflows and the
    distance loses digits (it reads 0 below about 1e-162).
    """
    if not (u1.source.same_shape(u2.source) and u1.target.same_shape(u2.target)):
        raise ShapeError("cannot compare block maps of different shapes")
    worst = 0.0
    for ij, m in u1.blocks.items():
        diff = m - u2.blocks[ij]
        if not diff.any():  # nan and inf count as nonzero here
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            gram = diff.conj().T @ diff
        if np.isfinite(gram).all():
            distance = np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0))
        else:
            distance = np.nan  # eigvalsh need not converge on it
        worst = np.maximum(worst, distance)  # unlike max(), keeps a nan
    return float(worst)


def compose_unitaries(u1: BlockUnitary, u2: BlockUnitary) -> BlockUnitary:
    """Apply ``u1`` first, then ``u2`` (blockwise matrix product u2 @ u1)."""
    if not u1.target.same_shape(u2.source):
        raise ShapeError("cannot compose: middle correspondences differ in shape")
    return BlockUnitary(
        u1.source, u2.target, {ij: u2.blocks[ij] @ m for ij, m in u1.blocks.items()}
    )


def tensor_unitaries(u1: BlockUnitary | GraphCorrespondence, u2: BlockUnitary | GraphCorrespondence) -> BlockUnitary:
    """The map sending each basis pair p (x) q to u1(p) (x) u2(q).

    On every block of the tensor correspondence this is a Kronecker product per middle node,
    rearranged into the canonical sorted path basis.  A correspondence F in place of one factor
    stands for 1_F: the other factor's blocks are placed onto their pairs by one indexed
    assignment, with no identity matrix and no product.
    """
    x, xp = (u1, u1) if isinstance(u1, GraphCorrespondence) else (u1.source, u1.target)
    y, yp = (u2, u2) if isinstance(u2, GraphCorrespondence) else (u2.source, u2.target)
    src = tensor(x, y)
    tgt = tensor(xp, yp)
    y_dims = np.array(y.dims.entries)
    blocks = {}
    for (i, j) in src.blocks():
        d = src.block_dim(i, j)
        out = np.zeros((d, d), dtype=complex)
        for u in range(len(x.right_index)):
            p, q = x.block_dim(i, u), y.block_dim(u, j)
            if p == 0 or q == 0:
                continue
            src_pos = _pair_positions(x.ends[i], y_dims[:, j], u).reshape(p, q)
            tgt_pos = _pair_positions(xp.ends[i], y_dims[:, j], u).reshape(p, q)
            if u2 is y:  # u1 (x) 1: entry (a, b) of u1's block on each pair (a, k), (b, k)
                out[tgt_pos[:, None, :], src_pos[None, :, :]] = u1.block(i, u)[:, :, None]
            elif u1 is x:  # 1 (x) u2: u2's block on the pairs of each p
                out[tgt_pos[:, :, None], src_pos[:, None, :]] = u2.block(u, j)
            else:
                out[np.ix_(tgt_pos.ravel(), src_pos.ravel())] = np.kron(u1.block(i, u), u2.block(u, j))
        blocks[(i, j)] = out
    return BlockUnitary(src, tgt, blocks)


def canonical_assoc(x: GraphCorrespondence, y: GraphCorrespondence, z: GraphCorrespondence) -> BlockUnitary:
    """Associativity isomorphism ((x . y) . z) -> (x . (y . z)).

    Both bracketings have the same factor sequence, hence the same derived
    path basis, so this is always the identity permutation.
    """
    return canonical_identification(tensor(tensor(x, y), z), tensor(x, tensor(y, z)))


def random_block_unitary(src: GraphCorrespondence, rng: np.random.Generator) -> BlockUnitary:
    """Haar-distributed unitary blocks from ``src`` to itself; deterministic for a fixed generator."""
    blocks = {}
    for ij in src.blocks():
        d = src.block_dim(*ij)
        z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q, r = np.linalg.qr(z)
        phases = np.diag(r).copy()
        phases /= np.abs(phases)
        blocks[ij] = q * phases
    return BlockUnitary(src, src, blocks)


# ---------------------------------------------------------------------------
# Objects and 1-arrows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ObjectPair:
    """An object of the calculus: a vertex set V with an essential V-by-V
    correspondence over it.  Construction holds the one check of essential dims."""

    algebra_index: tuple
    x: GraphCorrespondence

    def __post_init__(self):
        if self.x.left_index != self.algebra_index or self.x.right_index != self.algebra_index:
            raise ShapeError("object correspondence must be indexed by the object's vertex set")
        if not is_essential(self.x.dims):
            raise DomainError("object correspondence must have essential dims")


def object_pair(a: IntMatrix, labels: Optional[Sequence] = None) -> ObjectPair:
    """Object with vertex matrix ``a``; labels default to 0..n-1."""
    labels = tuple(labels) if labels is not None else tuple(range(a.rows))
    return ObjectPair(labels, from_matrix(a, labels, labels))


@dataclass(frozen=True, eq=False)
class OneArrow:
    """An arrow (target) <- (source): a correspondence F from the target's
    vertex set to the source's, with a unitary intertwiner

        phi : Y (x) F  ->  F (x) X

    between the two dynamics.  Construction checks that phi's endpoints are
    exactly the canonical tensor products, and through them F's labels.
    """

    source: ObjectPair
    target: ObjectPair
    f: GraphCorrespondence
    phi: BlockUnitary

    def __post_init__(self):
        if self.phi.source != tensor(self.target.x, self.f):
            raise ShapeError("phi must start at Y (x) F with the canonical basis")
        if self.phi.target != tensor(self.f, self.source.x):
            raise ShapeError("phi must end at F (x) X with the canonical basis")


def identity_arrow(obj: ObjectPair) -> OneArrow:
    """The unit arrow [X^(x)0, 1]: F is the edge correspondence of the identity
    matrix, phi the canonical permutation between X (x) I and I (x) X."""
    return power_arrow(obj, 0)


def power_correspondence(obj: ObjectPair, m: int) -> GraphCorrespondence:
    """The m-fold tensor power of the object correspondence, the identity matrix's for m = 0,
    by repeated squaring in O(log m) tensors.  For essential A each has dims at most A^m,
    which the caller sizes: the command line checks A^m = R S, and bounds R S, first."""
    if m < 0:
        raise DomainError("tensor powers need a nonnegative exponent")
    if m == 0:
        n = len(obj.algebra_index)
        return from_matrix(int_identity(n), obj.algebra_index, obj.algebra_index)
    return _power(obj.x, m, tensor)


def arrow_with(source: ObjectPair, target: ObjectPair, f: GraphCorrespondence, make=None) -> OneArrow:
    """The arrow [F, phi] from ``source`` to ``target`` with phi = make(Y (x) F, F (x) X):
    the one place an intertwiner gets its endpoints, and the one check, before ``make``,
    that they have equal dims B F = F A.  ``make`` defaults to :func:`canonical_identification`."""
    yf, fx = tensor(target.x, f), tensor(f, source.x)
    if yf.dims != fx.dims:
        raise ShapeError("the arrow's F does not fit its objects: B F = F A fails")
    return OneArrow(source, target, f, (make or canonical_identification)(yf, fx))


def power_arrow(obj: ObjectPair, m: int) -> OneArrow:
    """The arrow [X^(x)m, 1]; phi is the identity permutation because both
    X (x) X^(x)m and X^(x)m (x) X carry the same sorted path basis."""
    return arrow_with(obj, obj, power_correspondence(obj, m))


def compose_one_arrows(g: OneArrow, f: OneArrow) -> OneArrow:
    """Composite of (C,Z) <- (B,Y) after (B,Y) <- (A,X).

    The underlying correspondence is G (x) F and the intertwiner is
    (1_G (x) phi_F) after (phi_G (x) 1_F), with all associators identity.
    """
    if g.source != f.target:
        raise ShapeError("arrows are not composable: middle objects differ")
    gf = tensor(g.f, f.f)
    step1 = tensor_unitaries(g.phi, f.f)
    step2 = tensor_unitaries(g.f, f.phi)
    return OneArrow(f.source, g.target, gf, compose_unitaries(step1, step2))


def two_arrow_residual(psi: BlockUnitary, f: OneArrow, g: OneArrow) -> float:
    """Operator-norm defect of the intertwining square for psi : F -> G.

    Zero exactly when (psi (x) 1_X) after phi_F equals phi_G after
    (1_Y (x) psi).
    """
    if f.source != g.source or f.target != g.target:
        raise ShapeError("two-arrow check needs parallel arrows")
    if not (psi.source.same_shape(f.f) and psi.target.same_shape(g.f)):
        raise ShapeError("psi endpoints must match the arrows' correspondences")
    lhs = compose_unitaries(f.phi, tensor_unitaries(psi, f.source.x))
    rhs = compose_unitaries(tensor_unitaries(f.target.x, psi), g.phi)
    return unitary_distance(lhs, rhs)


def check_two_arrow(psi: BlockUnitary, f: OneArrow, g: OneArrow, tol: float = DEFAULT_TOL) -> bool:
    """Whether psi makes the intertwining square commute within ``tol``."""
    return bool(two_arrow_residual(psi, f, g) <= tol)


def conjugate_arrow(arrow: OneArrow, u: BlockUnitary) -> OneArrow:
    """Rewire an arrow through a unitary u : F -> F'.

    The returned arrow [F', (u (x) 1_X) phi (1_Y (x) u)*] is parallel to the
    input and u is a 2-arrow between them by construction.
    """
    if not u.source.same_shape(arrow.f):
        raise ShapeError("u must start at the arrow's correspondence")
    phi = compose_unitaries(
        compose_unitaries(tensor_unitaries(arrow.target.x, u.adjoint()), arrow.phi),
        tensor_unitaries(u, arrow.source.x),
    )
    return OneArrow(arrow.source, arrow.target, u.target, phi)


def left_unitor(c: GraphCorrespondence) -> BlockUnitary:
    """I (x) F -> F, the canonical unit identification (identity blocks)."""
    n = len(c.left_index)
    unit = from_matrix(int_identity(n), c.left_index, c.left_index)
    return canonical_identification(tensor(unit, c), c)


def right_unitor(c: GraphCorrespondence) -> BlockUnitary:
    """F (x) I -> F, the canonical unit identification (identity blocks)."""
    n = len(c.right_index)
    unit = from_matrix(int_identity(n), c.right_index, c.right_index)
    return canonical_identification(tensor(c, unit), c)
