"""Symplectic and orthogonal block maps on the doubled one-particle space
and their unitary implementers on Fock space.

A map r restricted to the doubled coordinates (z1, z2bar) has the block
form [[p, q], [conj q, conj p]].  Bosonic (symplectic) blocks satisfy
the minus-sign relations, fermionic (orthogonal) blocks the plus-sign
ones; ``validate_blocks`` reports all four residuals.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse

from .fock import BOSE, FERMI, SIGN, FockSpace
from .linalg import dense, require_square, sqrtm_psd
from .ops import _implementer_matrix, multi_create


class FermiDegenerateError(ValueError):
    """p has a kernel, so the closed-form fermionic implementer fails."""


@dataclass(frozen=True)
class BogolubovBlocks:
    p: np.ndarray
    q: np.ndarray
    statistics: str

    def __post_init__(self):
        p = require_square(np.asarray(self.p, dtype=complex))
        q = require_square(np.asarray(self.q, dtype=complex))
        if p.shape != q.shape:
            raise ValueError("p and q must have the same shape")
        if self.statistics not in (BOSE, FERMI):
            raise ValueError(f"unknown statistics {self.statistics!r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def d(self) -> int:
        return self.p.shape[0]

    @property
    def sign(self) -> float:
        return SIGN[self.statistics]

    def matrix(self) -> np.ndarray:
        """[[p, q], [conj q, conj p]] acting on doubled coordinates (z1, z2bar)."""
        return np.block([[self.p, self.q], [self.q.conj(), self.p.conj()]])

    def compose(self, other: "BogolubovBlocks") -> "BogolubovBlocks":
        if other.statistics != self.statistics:
            raise ValueError("statistics mismatch")
        p = self.p @ other.p + self.q @ other.q.conj()
        q = self.p @ other.q + self.q @ other.p.conj()
        return BogolubovBlocks(p, q, self.statistics)

    def inverse(self) -> "BogolubovBlocks":
        return BogolubovBlocks(self.p.conj().T, self.sign * self.q.T, self.statistics)

    @classmethod
    def identity(cls, d: int, statistics: str) -> "BogolubovBlocks":
        return cls(np.eye(d, dtype=complex), np.zeros((d, d), dtype=complex), statistics)


def validate_blocks(blocks: BogolubovBlocks) -> dict:
    """Residuals of the four block relations, by name.

    In finite dimension q and p - 1 are always Hilbert-Schmidt, so group
    membership beyond the relations is automatic.
    """
    p, q, s = blocks.p, blocks.q, blocks.sign
    eye = np.eye(blocks.d)
    res = {
        "p*p+s.q#qbar-1": np.linalg.norm(p.conj().T @ p + s * q.T @ q.conj() - eye, 2),
        "p#qbar+s.q*p": np.linalg.norm(p.T @ q.conj() + s * q.conj().T @ p, 2),
        "pp*+s.qq*-1": np.linalg.norm(p @ p.conj().T + s * q @ q.conj().T - eye, 2),
        "pq#+s.qp#": np.linalg.norm(p @ q.T + s * q @ p.T, 2),
    }
    return {k: float(np.real(v)) for k, v in res.items()}


@dataclass(frozen=True)
class CDPair:
    c: np.ndarray
    d_kernel: np.ndarray


def blocks_to_cd(blocks: BogolubovBlocks) -> CDPair:
    """The pair kernels c = p^{-1} q and d = q pbar^{-1}.

    Both defining expressions are evaluated and must agree within 1e-9;
    fermionic blocks with Ker p != 0 raise FermiDegenerateError.
    """
    p, q = blocks.p, blocks.q
    svals = np.linalg.svd(p, compute_uv=False)
    if svals.min() <= 1e-10 * max(svals.max(), 1.0):
        if blocks.statistics == FERMI:
            raise FermiDegenerateError("Ker p is nontrivial; use degenerate_implementer")
        raise np.linalg.LinAlgError("bosonic p unexpectedly singular")
    c1 = np.linalg.solve(p, q)
    d1 = q @ np.linalg.inv(p.conj())
    c2 = -blocks.sign * q.T @ np.linalg.inv(p.T)
    d2 = -blocks.sign * np.linalg.inv(p.conj().T) @ q.T
    scale = max(1.0, float(np.abs(c1).max()), float(np.abs(d1).max()))
    if np.max(np.abs(c1 - c2)) > 1e-9 * scale or np.max(np.abs(d1 - d2)) > 1e-9 * scale:
        raise np.linalg.LinAlgError("the two defining expressions for c or d disagree")
    return CDPair((c1 + c2) / 2, (d1 + d2) / 2)


def _implementer_from_cd(space: FockSpace, blocks: BogolubovBlocks, cd: CDPair,
                         prefactor: complex) -> scipy.sparse.csr_array:
    """prefactor exp(-+a*(d)/2) Gamma(p*^{-1}) exp(+-a(c)/2): upper signs for bosons."""
    return _implementer_matrix(space, prefactor, multi_create(space, cd.d_kernel),
                               np.linalg.inv(blocks.p.conj().T), multi_create(space, cd.c),
                               0.5 * blocks.sign)


def shale_implementer(space: FockSpace, blocks: BogolubovBlocks) -> scipy.sparse.csr_array:
    """The unitary with positive vacuum expectation implementing r, a CSR array of
    its two parity blocks (ops._implementer_matrix).

    Conjugation sends phi(y) to phi(r y).  Bosonic implementers live on
    the truncated space and are unitary only up to the truncation tail;
    a warning fires when the cutoff looks too small for the squeezing
    content.  For fermionic r with Ker p != 0 the closed form fails with
    FermiDegenerateError; degenerate_implementer is the composed path.
    """
    if space.statistics != blocks.statistics:
        raise ValueError("space and blocks disagree on statistics")
    # raises for a singular p, so a bosonic det(p p*) ** -1/4 never divides by zero
    cd = blocks_to_cd(blocks)
    if blocks.statistics == BOSE:
        exc = 2.0 * float(np.trace(cd.d_kernel @ cd.d_kernel.conj().T).real)
        if space.n_max < 2.0 * exc:
            warnings.warn(
                f"cutoff {space.n_max} may be too small for expected pair excitation {exc:.2f}",
                RuntimeWarning,
            )
    det = np.linalg.det(blocks.p @ blocks.p.conj().T).real
    pref = float(abs(det)) ** (0.25 * blocks.sign)
    return _implementer_from_cd(space, blocks, cd, pref)


def metaplectic_pair(space: FockSpace, blocks: BogolubovBlocks):
    """The two-valued implementer (U, -U) with the determinantal phase, two CSR
    arrays of their parity blocks.

    The phase is the principal square root of det p* (fermionic) or of
    its inverse (bosonic); either member differs from the Shale
    implementer by a modulus-one scalar.
    """
    det = complex(np.linalg.det(blocks.p.conj().T))
    if blocks.statistics == FERMI:
        pref = np.sqrt(det)
    else:
        pref = 1.0 / np.sqrt(det)
    u = _implementer_from_cd(space, blocks, blocks_to_cd(blocks), pref)
    return u, -u


def positive_blocks_from_c(c, statistics: str) -> BogolubovBlocks:
    """The positive map p = (1 + s cc*)^{-1/2}, q = p c whose implementer is the squeezer of c.

    c is symmetric for bosons, where it must be a strict contraction, and
    antisymmetric for fermions; s is the statistics sign.
    """
    c = require_square(np.asarray(c, dtype=complex))
    s = SIGN[statistics]
    if s < 0 and np.linalg.norm(c, 2) >= 1.0:
        raise ValueError("need ||c|| < 1")
    if np.max(np.abs(c + s * c.T)) > 1e-12 * max(1.0, np.abs(c).max()):
        raise ValueError("bosonic kernel must be symmetric" if s < 0
                         else "fermionic kernel must be antisymmetric")
    p = np.linalg.inv(sqrtm_psd(np.eye(c.shape[0]) + s * (c @ c.conj().T)))
    return BogolubovBlocks(p, p @ c, statistics)


def mode_pair_swap(d: int, k: int, l: int) -> BogolubovBlocks:
    """The orthogonal map implemented by the field monomial phi_k phi_l.

    Sends a*_k -> -a_k, a*_l -> -a_l and flips the sign of every other
    mode; p = 1 - E_kk - E_ll is singular by construction.
    """
    if k == l:
        raise ValueError("need two distinct modes")
    p = np.eye(d, dtype=complex)
    p[k, k] = 0.0
    p[l, l] = 0.0
    q = np.zeros((d, d), dtype=complex)
    q[k, k] = -1.0
    q[l, l] = -1.0
    return BogolubovBlocks(p, q, FERMI)


def mode_pair_swap_implementer(space: FockSpace, k: int, l: int) -> np.ndarray:
    """The field monomial phi_k phi_l implementing mode_pair_swap, as a dense unitary."""
    phi_k = space.creation(k) + space.annihilation(k)
    phi_l = space.creation(l) + space.annihilation(l)
    return dense(phi_k @ phi_l)


def degenerate_implementer(space: FockSpace, blocks: BogolubovBlocks) -> np.ndarray:
    """Implementer for fermionic r with Ker p != 0, as a dense unitary.

    Composes r with a mode-pair swap whose implementer is a known field
    monomial, applies the closed form to the nondegenerate product, and
    undoes the swap.  The phase is normalized deterministically, by the
    largest matrix entry: the vacuum expectation cannot serve, since
    |<Omega, U Omega>|^2 = |det p| vanishes when Ker p != 0.
    """
    if blocks.statistics != FERMI:
        raise ValueError("only the fermionic case can be p-degenerate")
    d = blocks.d
    for k, l in combinations(range(d), 2):
        s = mode_pair_swap(d, k, l)
        composed = blocks.compose(s)
        svals = np.linalg.svd(composed.p, compute_uv=False)
        if svals.min() > 1e-6 * max(svals.max(), 1e-300):
            u_comp = dense(shale_implementer(space, composed))
            u_swap = mode_pair_swap_implementer(space, k, l)
            u = u_comp @ u_swap.conj().T
            lead = u.flat[np.argmax(np.abs(u))]
            return u * (lead.conjugate() / abs(lead))
    raise FermiDegenerateError("no mode-pair completion made p invertible")


# spectral norm of the squeezing kernel of random_blocks
RANDOM_KERNEL_NORM = {BOSE: 0.3, FERMI: 0.6}


def random_blocks(d: int, statistics: str, rng: np.random.Generator) -> BogolubovBlocks:
    """Generic Bogolubov map u . r_c . v: u, v unitary, r_c positive with kernel norm
    RANDOM_KERNEL_NORM; fermionic maps are j-nondegenerate."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    c = (a - SIGN[statistics] * a.T) / 2
    nrm = np.linalg.norm(c, 2)
    if nrm > 0:
        c = RANDOM_KERNEL_NORM[statistics] * c / nrm
    core = positive_blocks_from_c(c, statistics)

    def unitary_blocks():
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        u, _ = np.linalg.qr(g)
        return BogolubovBlocks(u, np.zeros((d, d), dtype=complex), statistics)

    return unitary_blocks().compose(core).compose(unitary_blocks())
