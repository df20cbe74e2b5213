"""Explicit homotopies of arrows through paths in finite unitary groups.

The space of block unitaries on a finite correspondence is a product of
finite-dimensional unitary groups, hence path connected: any two unitaries
are joined by the geodesic U(t) = U0 exp(tH) with H a blockwise matrix
logarithm of W = U0* U1.  A ``UnitaryPath`` is that geodesic and holds no
sample: it keeps its endpoints' correspondences, its times and, per block,
U0 Z, Z* and theta from unitary eigenvectors of W = Z diag(exp(i theta)) Z*,
and makes the sample at t, the one product (U0 Z) diag(exp(i theta t)) Z* per
block, when that sample is indexed.  It stores no generator either: H = Z
diag(i theta) Z* is made on each read.  When W is the identity, every sample
is a copy of U0 and H is zero; when it is any other permutation, Z and theta
come in closed form, cycle by cycle; any other block takes a Schur form.
``_SAMPLES_BYTES`` bounds what a path's samples make and write, summed over all
of them, though each is dropped once it is checked or written.  A homotopy of
arrows is represented fiberwise: a fixed correspondence, a unitary path for the
intertwiner component, and endpoint 2-arrows tying the t = 0 and t = 1 fibers
to the two given arrows.

Verification is sampled: building a homotopy checks every sample's time and
endpoints, and ``homotopy_failure`` their unitarity and the two endpoint squares.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .aligned import AlignedShiftData, build_from_se
from .corr import (
    DEFAULT_TOL,
    BlockUnitary,
    GraphCorrespondence,
    ObjectPair,
    OneArrow,
    compose_one_arrows,
    conjugate_arrow,
    identity_unitary,
    power_arrow,
    tensor,
    two_arrow_residual,
    unitarity_defect,
)
from .errors import DomainError, ShapeError
from .exact import IntMatrix, mat_mul, power_equals
from .witnesses import SEWitness

#: Bytes the samples of one path may take all together.  A path makes each sample when it
#: is asked for and holds none, so this bounds what a run makes, checks and writes of it
#: (the sample payload of a bundle), not what it holds at once.  The bytes are predicted
#: from the block dims before any sample is made, and a larger path is refused with a
#: ``DomainError``.  The command line's paths take a few MB (16 samples at lag 6).
_SAMPLES_BYTES = 1 << 30
#: What a sample is charged besides its arrays in that prediction, per sample and per block:
#: the objects it makes (its time, its tuple, its ``BlockUnitary`` and that unitary's dict) and
#: the bundle text ``homotopy from-se`` writes of it.  They are a margin, not a measurement: the
#: golden lag-1 witness writes 2411 B of bundle per step for both sides together against 7808 B
#: charged, and the ``[[1]]`` identity witness 658 B against 5408 B (``--steps`` 1000 against
#: 2000).  Without them, the golden Y path (four 2x2 blocks) would be charged 76.8 MB at
#: 300000 steps and accepted.
_SAMPLE_OVERHEAD_BYTES = 2048
_BLOCK_OVERHEAD_BYTES = 640


@dataclass(frozen=True, eq=False)
class UnitaryPath(Sequence):
    """A geodesic of block unitaries, as the sequence of its samples (t, U(t)).

    Every sample shares ``source`` and ``target``, and ``times`` increase from 0 to 1.
    ``rotations`` holds (U0 Z, Z*, theta) per nonempty block of ``source``, or (U0, None, None)
    where W is the identity; construction checks that each fits its block.  The
    ``ArrowHomotopy`` carrying the path checks its ``times`` and :meth:`ends`.
    """

    source: GraphCorrespondence
    target: GraphCorrespondence
    times: list
    rotations: dict

    def __post_init__(self):
        if set(self.rotations) != set(self.source.blocks()):
            raise ShapeError("a path needs one rotation per nonempty block of its source")
        for ij, rotation in self.rotations.items():
            d = self.source.block_dim(*ij)
            shapes = [None if x is None else np.shape(x) for x in rotation]
            if shapes not in ([(d, d), None, None], [(d, d), (d, d), (d,)]):
                raise ShapeError(f"the rotation of block {ij} does not fit a {d}x{d} block")

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, k: int) -> tuple:
        t = self.times[k]
        blocks = {
            ij: start.copy() if back is None else (start * np.exp(1j * theta * t)) @ back
            for ij, (start, back, theta) in self.rotations.items()
        }
        return t, BlockUnitary(self.source, self.target, blocks)

    def ends(self) -> list:
        """(source, target) of the samples' unitaries, read without making a sample."""
        return [(self.source, self.target)]

    @property
    def generator(self) -> dict:
        """The blockwise skew-Hermitian H with U(t) = U0 exp(tH), made anew on each read."""
        return {
            ij: np.zeros_like(start) if back is None else (back.conj().T * (1j * theta)) @ back
            for ij, (start, back, theta) in self.rotations.items()
        }


def _refuse_oversized_path(dims: IntMatrix, steps: int) -> None:
    """Refuse ``steps`` samples on blocks of ``dims`` if they are fewer than two or their arrays and objects
    would exceed ``_SAMPLES_BYTES``."""
    if steps < 2:
        raise DomainError("need at least two samples")
    per_block = (_BLOCK_OVERHEAD_BYTES + 16 * d * d for row in dims.entries for d in row if d)  # complex128 entries
    predicted = steps * (_SAMPLE_OVERHEAD_BYTES + sum(per_block))
    if predicted > _SAMPLES_BYTES:
        raise DomainError(f"{steps} samples would take {predicted} bytes, above the {_SAMPLES_BYTES} a path may take")


def _permutation_eig(w: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """Unitary eigenvectors Z and arguments theta in (-pi, pi] with w = Z diag(exp(i theta)) Z*,
    or None unless w is exactly a permutation matrix: real 0/1 entries, one 1 in each row and column.

    A cycle c_0 -> ... -> c_(L-1) -> c_0 of w carries the DFT vectors sum_m exp(-2 pi i km/L) e_(c_m) / sqrt(L)
    with eigenvalues exp(2 pi i k/L), k < L (Higham, *Functions of Matrices*, ch. 11); the angle 2 pi k/L is
    folded into (-pi, pi], and k = L/2 gets exactly +pi.
    """
    real = w.real
    if w.imag.any() or not ((real == 0) | (real == 1)).all():
        return None
    if (real.sum(axis=0) != 1).any() or (real.sum(axis=1) != 1).any():
        return None
    image = real.argmax(axis=0)  # column j holds its 1 in row image[j]
    d = len(image)
    z, theta = np.zeros((d, d), dtype=complex), np.empty(d)
    seen, col = np.zeros(d, dtype=bool), 0
    for start in range(d):
        if seen[start]:
            continue
        cycle = [start]
        while image[cycle[-1]] != start:
            cycle.append(image[cycle[-1]])
        seen[cycle] = True
        size = len(cycle)
        k = np.arange(size)
        z[np.ix_(cycle, col + k)] = np.exp(-2j * np.pi * (np.outer(k, k) % size) / size) / np.sqrt(size)
        theta[col:col + size] = np.pi * (2 * np.where(2 * k > size, k - size, k) / size)
        col += size
    return z, theta


def _schur_eig(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schur vectors Z and eigenvalue arguments theta in (-pi, pi] of a unitary w."""
    # Imported on first use: it is slow to load, and no permutation needs it.
    import scipy.linalg

    t_mat, z = scipy.linalg.schur(w, output="complex")
    theta = np.angle(np.diag(t_mat))
    # A Schur diagonal entry at -1 can carry a -0.0 or tiny negative
    # imaginary part, which np.angle sends to -pi or just above it.
    theta[theta <= -np.pi + 4 * np.spacing(np.pi)] = np.pi
    return z, theta


def connect_unitaries(u0: BlockUnitary, u1: BlockUnitary, steps: int) -> UnitaryPath:
    """The geodesic from ``u0`` to ``u1``, two same-shaped block unitaries, sampled at t = k/(steps-1).

    Per block, H = log(W), W = U0* U1, has eigenvalue arguments theta in (-pi, pi]: an
    eigenvalue at -1, or an argument that rounding puts within a few ulp of -pi, gets +pi
    (this fixed branch is a representation choice, discontinuous only on a measure-zero
    set).  Fewer than two samples, or samples that would take more than ``_SAMPLES_BYTES``
    in all, counting what each holds besides its arrays, are refused before any is made.
    """
    if u0.source != u1.source or u0.target != u1.target:
        raise ShapeError("endpoints must share source and target correspondences")
    _refuse_oversized_path(u0.source.dims, steps)
    rotations = {}
    for ij, m0 in u0.blocks.items():
        w = m0.conj().T @ u1.blocks[ij]
        if (w == np.eye(len(w))).all():
            rotations[ij] = m0, None, None
            continue
        z, theta = _permutation_eig(w) or _schur_eig(w)
        rotations[ij] = m0 @ z, z.conj().T, theta
    times = [k / (steps - 1) for k in range(steps)]
    return UnitaryPath(u0.source, u0.target, times, rotations)


@dataclass(frozen=True, eq=False)
class ArrowHomotopy:
    """A fiberwise homotopy between two parallel arrows.

    The fiber at time t is the arrow [fiber, U(t)]; ``h0`` and ``h1`` are the
    endpoint 2-arrows onto ``f_arrow`` and ``g_arrow``.  Construction checks the
    shapes, every sample's too (a geodesic's once, as its samples share them);
    :func:`homotopy_failure` checks the numbers.
    """

    f_arrow: OneArrow
    g_arrow: OneArrow
    fiber: GraphCorrespondence
    path: UnitaryPath
    h0: BlockUnitary
    h1: BlockUnitary

    def __post_init__(self):
        if self.f_arrow.source != self.g_arrow.source or self.f_arrow.target != self.g_arrow.target:
            raise ShapeError("homotopy endpoints must be parallel arrows")
        ts = self.path.times
        if len(ts) < 2 or ts[0] != 0.0 or ts[-1] != 1.0 or any(a >= b for a, b in zip(ts, ts[1:])):
            raise ShapeError("a path needs two or more samples at times increasing strictly from 0 to 1")
        start, end = tensor(self.f_arrow.target.x, self.fiber), tensor(self.fiber, self.f_arrow.source.x)
        for source, target in self.path.ends():
            if source != start:
                raise ShapeError("path unitaries must start at Y (x) fiber")
            if target != end:
                raise ShapeError("path unitaries must end at fiber (x) X")
        if not (self.h0.source.same_shape(self.fiber) and self.h0.target.same_shape(self.f_arrow.f)):
            raise ShapeError("h0 must map the fiber onto the first arrow's correspondence")
        if not (self.h1.source.same_shape(self.fiber) and self.h1.target.same_shape(self.g_arrow.f)):
            raise ShapeError("h1 must map the fiber onto the second arrow's correspondence")

    def fiber_arrow(self, index: int) -> OneArrow:
        """The arrow carried by the sample at the given index."""
        return OneArrow(
            self.f_arrow.source,
            self.f_arrow.target,
            self.fiber,
            self.path[index][1],
        )


def homotopy_failure(h: ArrowHomotopy, tol: float = DEFAULT_TOL) -> Optional[str]:
    """Description of the first defect found, or None if the homotopy checks out:
    the samples in order, one at a time, then h0 and h1, each for unitarity before its square."""
    for idx, (t, u) in enumerate(h.path):
        defect = unitarity_defect(u, tol)
        if not defect <= tol:
            return f"sample {idx} (t={t:g}) is not unitary: defect {defect:.3e}"
    last = len(h.path) - 1
    for name, psi, index, arrow in (("h0", h.h0, 0, h.f_arrow), ("h1", h.h1, last, h.g_arrow)):
        defect = unitarity_defect(psi, tol)
        if not defect <= tol:
            return f"endpoint 2-arrow {name} is not unitary: defect {defect:.3e}"
        residual = two_arrow_residual(psi, h.fiber_arrow(index), arrow)
        if not residual <= tol:
            t = h.path.times[index]
            return f"{name} fails the 2-arrow square at t={t:g}: residual {residual:.3e}"
    return None


def verify_homotopy(h: ArrowHomotopy, tol: float = DEFAULT_TOL) -> bool:
    """True iff every sample is unitary and both endpoint squares commute within
    ``tol``; every sample's time and endpoints were checked at construction."""
    return homotopy_failure(h, tol) is None


def homotopy_to_identity(
    phi: BlockUnitary, obj: ObjectPair, m: int, steps: int = 16
) -> ArrowHomotopy:
    """Homotope the arrow [X^(x)m, phi] to the identity arrow [X^(x)m, 1].

    Works fiberwise over the interval: the fiber correspondence is constant
    X^(x)m and the intertwiner follows the geodesic from the identity
    permutation to phi; both endpoint 2-arrows are the identity.  A phi that
    does not start at X (x) X^(x)m, of dims A^(m+1), is refused before X^(x)m is built.
    """
    if m >= 0 and not power_equals(obj.x.dims, m + 1, phi.source.dims):
        raise ShapeError("endpoints must share source and target correspondences")
    power = power_arrow(obj, m)
    path = connect_unitaries(power.phi, phi, steps)
    ident = identity_unitary(power.f)
    return ArrowHomotopy(power, OneArrow(obj, obj, power.f, phi), power.f, path, ident, ident)


def homotopy_shift_equivalence_from_se(
    w: SEWitness, steps: int = 16
) -> tuple[AlignedShiftData, ArrowHomotopy, ArrowHomotopy]:
    """Realize a verified witness as a homotopy shift equivalence.

    Builds the canonical concrete shift, conjugates each composite arrow
    down to a tensor-power arrow through its Psi map, homotopes the
    resulting unitary to the identity permutation, and reassembles the two
    homotopies

        [M (x) N, Phi_M . Phi_N] ~ [X^(x)m, 1]
        [N (x) M, Phi_N . Phi_M] ~ [Y^(x)m, 1]

    whose endpoint 2-arrows are the identity and the inverse Psi.
    """

    def refuse_oversized_paths():
        # X (x) X^(x)m has dims A R S, Y (x) Y^(x)m has B S R.
        _refuse_oversized_path(mat_mul(w.a, mat_mul(w.r, w.s)), steps)
        _refuse_oversized_path(mat_mul(w.b, mat_mul(w.s, w.r)), steps)

    # Raises ContractError on an unverified witness; once it verifies, both paths are
    # refused before any structure map is made.
    d = build_from_se(w, before_maps=refuse_oversized_paths)
    homotopies = []
    for obj, first, second, psi in ((d.x_obj, d.m_arrow, d.n_arrow, d.psi_x), (d.y_obj, d.n_arrow, d.m_arrow, d.psi_y)):
        composite = compose_one_arrows(first, second)
        # Conjugate the composite intertwiner onto the tensor-power fiber, homotope it
        # to the identity, and retarget the t = 1 end at the composite through psi^{-1}.
        base = homotopy_to_identity(conjugate_arrow(composite, psi).phi, obj, w.lag, steps)
        homotopies.append(replace(base, g_arrow=composite, h1=psi.adjoint()))
    return d, *homotopies
