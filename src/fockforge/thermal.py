"""Doubled-Fock-space thermal representations, modular data, Gibbs
densities, and the confined-gas identifications.

The doubled one-particle space is C^{2d}: the first d modes are the
original ones, the last d their conjugates.  Bosonic fields on the
doubled space carry the 1/sqrt(2) normalization, fermionic ones do not,
matching the respective single-space identifications.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .fock import BOSE, FERMI, SIGN, FockSpace, _lambda_signs, dgamma, exp_law, gamma
from .linalg import (_self_adjoint, dense, exp_herm, ordered_products, polar_decompose,
                     require_square, sqrtm_psd, window_norm)
from .ops import gaussian_vector, squeezer

DEFAULT_SINGLE_CUTOFF = 8


class KernelViolationError(ValueError):
    pass


def pair_kernel(gamma_one, kind: str) -> np.ndarray:
    """The off-diagonal two-mode kernel with blocks gamma^{1/2} between the
    original and the conjugate modes, antisymmetric for fermions."""
    g = sqrtm_psd(np.asarray(gamma_one, dtype=complex))
    d = g.shape[0]
    c = np.zeros((2 * d, 2 * d), dtype=complex)
    c[:d, d:] = g
    c[d:, :d] = -SIGN[kind] * g.T
    return c


def _leg_swap_index(space: FockSpace) -> np.ndarray:
    """The occupation permutation (n, m) -> (m, n) of the leg swap on the doubled space."""
    d = space.d // 2
    occ = space.occupations
    return space.indices(np.hstack([occ[:, d:], occ[:, :d]]))


def _lambda_sandwich(space: FockSpace, op) -> scipy.sparse.csr_array:
    """Lambda op Lambda for a sparse op; Lambda is diagonal with entries +-1."""
    lam = scipy.sparse.diags_array(_lambda_signs(space.total_numbers))
    return (lam @ op @ lam).tocsr()


def _field(space: FockSpace, w, right: bool) -> scipy.sparse.csr_array:
    """a*(w) + a(w) as a CSR array: over sqrt(2) for bosons, and for fermions
    Lambda-sandwiched when it is a field of the right leg."""
    phi = space.ladder(w, w)
    if not space.is_fermi:
        return phi / math.sqrt(2)
    return _lambda_sandwich(space, phi) if right else phi


class Antiunitary:
    """An antiunitary operator stored as (signed permutation u, conjugation), u sparse.

    Acts as psi -> u conj(psi); the sandwich J M J of a linear map M,
    dense or sparse, is the dense u conj(M) conj(u), linear again.
    """

    def __init__(self, signs: np.ndarray, perm: np.ndarray):
        """u sends e_i to signs[i] e_perm[i]."""
        n = len(perm)
        self._u = scipy.sparse.csr_array((np.asarray(signs, dtype=complex), (perm, np.arange(n))),
                                         shape=(n, n))

    @property
    def unitary(self) -> np.ndarray:
        return dense(self._u)

    def __call__(self, psi: np.ndarray) -> np.ndarray:
        return self._u @ np.conj(psi)

    def sandwich(self, m) -> np.ndarray:
        return dense(self._u @ m.conj() @ self._u.conj())


@dataclass(frozen=True)
class ThermalParams:
    """One-particle density data for a thermal representation."""

    kind: str
    gamma: np.ndarray
    h: np.ndarray | None = None

    def __post_init__(self):
        g = _self_adjoint(self.gamma, "gamma")
        g = (g + g.conj().T) / 2
        w = np.linalg.eigvalsh(g)
        if self.kind == BOSE:
            if w.min() < -1e-12 or w.max() >= 1.0 - 1e-14:
                raise ValueError(f"bosonic gamma needs spectrum in [0,1), got [{w.min()},{w.max()}]")
        elif self.kind == FERMI:
            if w.min() < -1e-12:
                raise ValueError("fermionic gamma must be positive semidefinite")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "gamma", g)
        if self.h is not None:
            h = _self_adjoint(self.h, "h")
            if h.shape != g.shape:
                raise ValueError(f"h is {h.shape} but gamma is {g.shape}")
            if np.linalg.norm(h @ g - g @ h, 2) > 1e-10 * max(1.0, np.linalg.norm(h, 2)):
                raise ValueError("h must commute with gamma")
            object.__setattr__(self, "h", h)

    @property
    def d(self) -> int:
        return self.gamma.shape[0]

    @property
    def density(self) -> np.ndarray:
        """gamma (1 + s gamma)^{-1}: rho for bosons (s = -1), chi for fermions (s = +1)."""
        out = self.gamma @ np.linalg.inv(np.eye(self.d) + SIGN[self.kind] * self.gamma)
        return (out + out.conj().T) / 2

    @classmethod
    def gibbs(cls, kind: str, h, beta: float) -> "ThermalParams":
        h = _self_adjoint(h, "h")
        return cls(kind, exp_herm(h, -beta), h=h)


def _ladder_words(outer, inner, x, top: int) -> dict:
    """outer^m inner^n x for m + n <= top, keyed (m, n)."""
    words = {}
    for n in range(top + 1):
        words[0, n] = inner @ words[0, n - 1] if n else x
        for m in range(1, top + 1 - n):
            words[m, n] = outer @ words[m - 1, n]
    return words


def _doubled_generator(h) -> np.ndarray:
    """h (+) -conj h on C^{2d}: the one-particle generator of the standard Liouvillean."""
    h = _self_adjoint(h, "h")
    return scipy.linalg.block_diag(h, -np.conj(h))


class DoubledRep:
    """Thermal representation on the Fock space over C^{2d}.

    The creation, annihilation and field operators of both legs are CSR
    arrays; the Weyl operators, built from them by eigh, are dense.
    """

    def __init__(self, params: ThermalParams, single_cutoff: int | None = None):
        self.params = params
        d = params.d
        if params.kind == FERMI:
            single_cutoff = d
        elif single_cutoff is None:
            # keep the doubled dimension moderate for several modes
            single_cutoff = DEFAULT_SINGLE_CUTOFF if d == 1 else 4
        self.single_cutoff = single_cutoff
        # doubled cutoff is twice the single-sided one: pair excitations
        self.space = FockSpace(params.kind, 2 * d, 2 * single_cutoff)
        # the single space serves both legs, Gamma(Z) and Gamma(Zbar)
        self.space_single = FockSpace(params.kind, d, single_cutoff)
        dens = params.density
        self._amp_left = sqrtm_psd(np.eye(d) - SIGN[params.kind] * dens)   # creation side
        self._amp_right = sqrtm_psd(dens)

    @property
    def kind(self) -> str:
        return self.params.kind

    @property
    def d(self) -> int:
        return self.params.d

    def _doubled(self, top, bottom) -> np.ndarray:
        w = np.zeros(2 * self.d, dtype=complex)
        w[: self.d] = top
        w[self.d:] = bottom
        return w

    # -- left and right representations ---------------------------------

    def _left_legs(self, z):
        """The one-particle vectors (u, v) with a*_l(z) = a*(u) + a(v)."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        return self._doubled(self._amp_left @ z, 0), self._doubled(0, np.conj(self._amp_right @ z))

    def create_left(self, z) -> scipy.sparse.csr_array:
        """a*_l(z) = a*((1 +- rho)^{1/2} z (+) 0) + a(0 (+) conj(rho^{1/2} z)), as a CSR
        array; + for bosons, - for fermions, rho the one-particle density."""
        return self.space.ladder(*self._left_legs(z))

    def annihilate_left(self, z) -> scipy.sparse.csr_array:
        """(a*(u) + a(v))* = a(u) + a*(v) for the legs (u, v) of create_left(z)."""
        u, v = self._left_legs(z)
        return self.space.ladder(v, u)

    def field_left(self, z) -> scipy.sparse.csr_array:
        """phi_l(z) = a*_l(z) + a_l(z), over sqrt(2) for bosons, as a CSR array."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        return _field(self.space, self._doubled(self._amp_left @ z, np.conj(self._amp_right @ z)),
                      right=False)

    def field_right(self, z) -> scipy.sparse.csr_array:
        """The right field, legs swapped and Lambda-dressed for fermions, as a CSR array."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        return _field(self.space, self._doubled(self._amp_right @ z, np.conj(self._amp_left @ z)),
                      right=True)

    def create_right(self, z) -> scipy.sparse.csr_array:
        """The right creation operator, Lambda-dressed for fermions, as a CSR array."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        op = self.space.ladder(self._doubled(0, np.conj(self._amp_left @ z)),
                               self._doubled(self._amp_right @ z, 0))
        if self.kind == FERMI:
            return _lambda_sandwich(self.space, op)
        return op

    def weyl_left(self, z) -> np.ndarray:
        if self.kind != BOSE:
            raise ValueError("Weyl operators are bosonic")
        return exp_herm(self.field_left(z), 1j)

    def weyl_right(self, z) -> np.ndarray:
        if self.kind != BOSE:
            raise ValueError("Weyl operators are bosonic")
        return exp_herm(self.field_right(z), 1j)

    # -- modular structure ----------------------------------------------

    def modular_conjugation(self) -> Antiunitary:
        """J = Gamma(leg swap) o conj, dressed by Lambda for fermions.

        Gamma(leg swap) permutes the occupations, (n, m) -> (m, n).  For
        fermions, moving the b second-leg creators past the a first-leg ones
        gives the sign (-1)^(ab) = Lambda(a + b) Lambda(a) Lambda(b), so the
        Lambda-dressed J carries the sign Lambda(a) Lambda(b).
        """
        space = self.space
        sign = np.ones(space.dim)
        if self.kind == FERMI:
            a = space.occupations[:, :self.d].sum(axis=1)
            b = space.total_numbers - a
            sign = _lambda_signs(a) * _lambda_signs(b)
        return Antiunitary(sign, _leg_swap_index(space))

    def modular_operator(self) -> scipy.sparse.csr_array:
        """Delta = Gamma(gamma (+) conj(gamma)^{-1}), sparse; needs trivial kernels."""
        g = self.params.gamma
        w = np.linalg.eigvalsh(g)
        if w.min() <= 1e-12:
            raise KernelViolationError(f"gamma has (near-)kernel, eigenvalues {w}")
        return gamma(self.space, scipy.linalg.block_diag(g, np.conj(np.linalg.inv(g))))

    def modular_data(self):
        return self.modular_conjugation(), self.modular_operator()

    def modular_oracle(self):
        """(J, Delta) recovered from the polar decomposition of S: A Omega -> A* Omega.

        A runs over the 4^d ordered monomials of the left creators and
        annihilators, whose adjoints are the ordered monomials of the
        reversed adjoints at the bit-reversed mask, or for one bosonic mode
        over the words a*^m a^n up to the cutoff; both sides are built as
        vectors.  Returns (j_linear, delta); j_linear is the linear part of
        the antiunitary J.  Independent of modular_data up to the shared
        field definitions.
        """
        d = self.d
        if self.kind == BOSE and d > 1:
            raise ValueError("the bosonic polar-of-S oracle is built for d = 1 only")
        gens = []
        for e in np.eye(d):
            gens += [self.create_left(e), self.annihilate_left(e)]
        adjoints = [g.conj().T for g in gens]
        vac = self.space.vacuum()
        if self.kind == FERMI:
            m = len(gens)
            xs = ordered_products(gens, vac)
            reversed_ys = ordered_products(adjoints[::-1], vac)
            ys = [reversed_ys[int(f"{mask:0{m}b}"[::-1], 2)] for mask in range(2**m)]
        else:
            words = _ladder_words(gens[0], gens[1], vac, self.space.n_max)
            adjoint_words = _ladder_words(adjoints[1], adjoints[0], vac, self.space.n_max)
            xs = [words[key] for key in sorted(words)]
            # the adjoint of a*^m a^n is (a^n)* (a*^m)*
            ys = [adjoint_words[n, m] for m, n in sorted(words)]
        xs, ys = np.column_stack(xs), np.column_stack(ys)
        norms = np.linalg.norm(xs, axis=0)
        keep = norms > 1e-13
        xs = xs[:, keep] / norms[keep]
        ys = ys[:, keep] / norms[keep]  # real rescaling commutes with the antilinear S
        # S (x) = y antilinearly: linear part L solves L conj(xs) = ys
        l_part, *_ = np.linalg.lstsq(np.conj(xs).T, ys.T, rcond=1e-12)
        l_part = l_part.T
        delta = l_part.T @ np.conj(l_part)
        return polar_decompose(l_part)[0], delta

    def standard_liouvillean(self, h) -> scipy.sparse.csr_array:
        """dGamma(h (+) -conj h), sparse; generates the dressed dynamics, kills Omega."""
        return dgamma(self.space, _doubled_generator(h))

    # -- confined-gas identifications ------------------------------------

    def omega_vector(self) -> np.ndarray:
        """Standard vector representative of the Gibbs state: the Gaussian
        vector of the pair kernel."""
        return gaussian_vector(self.space, pair_kernel(self.params.gamma, self.kind))

    def r_gamma(self) -> scipy.sparse.csr_array:
        """The dressing unitary mapping omega_vector back to the vacuum: the squeezer
        of the pair kernel, a CSR array of its two parity blocks, built Gamma(m)
        first (ops.squeezer)."""
        return squeezer(self.space, pair_kernel(self.params.gamma, self.kind))

    def pair_embedding(self):
        """Isometry from Gamma(Z) (x) Gamma(Zbar) box into the doubled space."""
        return exp_law(self.space_single, self.space_single, target=self.space)[0]

    def iota(self, b: np.ndarray) -> np.ndarray:
        """Identify a (Hilbert-Schmidt) matrix on Gamma(Z) with a doubled vector.

        Fermionic identification reverses the particle order on the
        conjugate leg, i.e. carries a Lambda sign.
        """
        u = self.pair_embedding()
        b = np.asarray(b, dtype=complex)
        if self.kind == FERMI:
            lam = self.space_single.lambda_op()
            b = b @ lam.conj()  # column index lives on the conjugate leg
        return u @ b.reshape(-1)

    def theta_left(self, a) -> np.ndarray:
        """Left multiplication by a, dense or sparse, on the doubled space; dense."""
        u = self.pair_embedding()
        eye = np.eye(self.space_single.dim)
        return u @ np.kron(np.asarray(dense(a), dtype=complex), eye) @ u.conj().T

    def theta_right(self, a) -> np.ndarray:
        """Right multiplication by a*, i.e. the image of conj(a), for a dense or
        sparse a; dense."""
        u = self.pair_embedding()
        eye = np.eye(self.space_single.dim)
        abar = np.conj(np.asarray(dense(a), dtype=complex))
        if self.kind == FERMI:
            lam = self.space_single.lambda_op()
            abar = lam @ abar @ lam
        return u @ np.kron(eye, abar) @ u.conj().T

    def theta_left_field(self, z) -> scipy.sparse.csr_array:
        """theta_l of the single-space field, written directly on the doubled space."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        return _field(self.space, self._doubled(z, 0), right=False)

    def theta_right_field(self, z) -> scipy.sparse.csr_array:
        z = np.asarray(z, dtype=complex).reshape(-1)
        return _field(self.space, self._doubled(0, np.conj(z)), right=True)

    def confined_equivalence_report(self) -> dict:
        """Residuals of the dressing identities relating theta and the thermal fields.

        Bosonic field identities are compared on the sectors up to two
        particles (double-sided compression), since the dressing
        unitary loses unitarity near the cutoff; the Liouvillean
        invariance is a commutator, exact on the truncation, and is
        reported at full norm.
        """
        r = dense(self.r_gamma())
        rdag = r.conj().T
        d = self.d
        if self.kind == BOSE:
            keep = self.space.sector_mask(2)
        else:
            keep = np.ones(self.space.dim, dtype=bool)
        out = {}
        worst_l = 0.0
        worst_r = 0.0
        for k in range(d):
            z = np.zeros(d)
            z[k] = 1.0
            lhs = r @ self.theta_left_field(z) @ rdag
            worst_l = max(worst_l, window_norm(lhs - self.field_left(z), keep))
            lhs_r = r @ self.theta_right_field(z) @ rdag
            worst_r = max(worst_r, window_norm(lhs_r - self.field_right(z), keep))
        out["left_field_residual"] = float(worst_l)
        out["right_field_residual"] = float(worst_r)
        vac = self.space.vacuum()
        out["vacuum_residual"] = float(np.linalg.norm(r @ self.omega_vector() - vac))
        if self.params.h is not None:
            ell = self.standard_liouvillean(self.params.h)
            out["liouvillean_residual"] = float(np.linalg.norm(r @ ell - ell @ r, 2))
        return out


def confined_gibbs(space: FockSpace, gamma_one: np.ndarray):
    """The truncated trace of the Gibbs density Gamma(gamma) against its closed value.

    Returns (trace, reference, tail): reference is the closed
    determinantal value det(1-gamma)^{-1} or det(1+gamma); tail is the
    (nonnegative) part of the reference missed by the truncation.
    """
    g = require_square(np.asarray(gamma_one, dtype=complex))
    if not space.is_fermi and np.linalg.eigvalsh(g).max() >= 1.0:
        raise ValueError("bosonic gamma needs spectrum inside [0,1)")
    reference = float(np.linalg.det(np.eye(space.d) + space.sign * g).real ** space.sign)
    trace = float(gamma(space, g).trace().real)
    return trace, reference, reference - trace


def _relative_defect(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| over the larger of |lhs| and |rhs|; 0 when both vanish."""
    scale = max(abs(lhs), abs(rhs))
    return float(abs(lhs - rhs) / scale) if scale > 0 else 0.0


def kms_check(rep: DoubledRep, h, beta: float, a, b, t: float) -> float:
    """Relative KMS boundary defect of omega(A tau^{t+i beta}(B)) and omega(tau^t(B) A).

    The state is the doubled vacuum, the dynamics is generated by the
    standard Liouvillean L = dGamma(k) of h, k = h (+) -conj h, so
    tau^z(B) = Gamma(e^{izk}) B Gamma(e^{-izk}).  Gamma(p) fixes Omega, so
    each side takes one 2d x 2d exponential, through eigh, and one Gamma:
    <Omega, A Gamma(e^{i(t+i beta)k}) B Omega> against
    <Omega, B Gamma(e^{-itk}) A Omega>.  The defect vanishes when the
    representation density is the Gibbs density exp(-beta h).  It is the
    gap between the two sides over the larger of them, so a wrong density
    at large beta, where both sides are small, still shows; A and B may be
    dense or sparse.
    """
    k = _doubled_generator(h)
    vac = rep.space.vacuum()
    forward = gamma(rep.space, exp_herm(k, 1j * (t + 1j * beta)))
    backward = gamma(rep.space, exp_herm(k, -1j * t))
    lhs = np.vdot(vac, a @ (forward @ (b @ vac)))
    rhs = np.vdot(vac, b @ (backward @ (a @ vac)))
    return _relative_defect(lhs, rhs)


def tracial_field(space: FockSpace, v, side: str = "left") -> scipy.sparse.csr_array:
    """Tracial CAR fields over a real vector v: left phi(v), right Lambda phi(v) Lambda."""
    if not space.is_fermi:
        raise ValueError("tracial fields are fermionic")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return _field(space, np.asarray(v, dtype=float).reshape(-1), side == "right")


def tracial_conjugation(space: FockSpace) -> Antiunitary:
    """J = Lambda o (entrywise conjugation) for the tracial representation."""
    return Antiunitary(_lambda_signs(space.total_numbers), np.arange(space.dim))
