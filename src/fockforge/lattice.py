"""Real subspaces of C^d, their lattice operations and angle data, and
the fermionic duality check.

Real-linear objects are represented as real matrices on R^{2d}, with a
complex vector z stored as (Re z; Im z) and multiplication by i given by
the fixed block matrix J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockSpace, _lambda_signs
from .linalg import _require_dense, dense, ordered_products, polar_decompose, sqrtm_psd

RANK_RTOL = 1e-10
GRAY_LOW = 1e-12
GRAY_HIGH = 1e-8


class GeneralPositionError(ValueError):
    pass


def mult_i_matrix(d: int) -> np.ndarray:
    j = np.zeros((2 * d, 2 * d))
    j[:d, d:] = -np.eye(d)
    j[d:, :d] = np.eye(d)
    return j


def to_complex(y) -> np.ndarray:
    y = np.asarray(y, dtype=float).reshape(-1)
    d = y.shape[0] // 2
    return y[:d] + 1j * y[d:]


def _orthonormalize(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis (n x rank) of the span of the real or complex columns."""
    if cols.size == 0:
        return cols.reshape(cols.shape[0], 0)
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    smax = s.max(initial=0.0)
    keep = s > RANK_RTOL * max(smax, 1e-300)
    return u[:, keep]


@dataclass(frozen=True)
class RealSubspace:
    ambient_d: int
    basis: np.ndarray  # 2d x k, orthonormal columns

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != 2 * self.ambient_d:
            raise ValueError(f"basis must be 2d x k with 2d = {2 * self.ambient_d}")
        object.__setattr__(self, "basis", _orthonormalize(b))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T

    @classmethod
    def from_vectors(cls, d: int, cols) -> "RealSubspace":
        cols = np.asarray(cols, dtype=float)
        if cols.ndim == 1:
            cols = cols.reshape(-1, 1)
        return cls(d, cols)


def perp(v: RealSubspace) -> RealSubspace:
    """Orthogonal complement for the real part of the inner product."""
    p = v.projector()
    w, vecs = np.linalg.eigh(np.eye(2 * v.ambient_d) - p)
    cols = vecs[:, w > 0.5]
    return RealSubspace(v.ambient_d, cols)


def symplectic_complement(v: RealSubspace) -> RealSubspace:
    """i V^perp, the annihilator of V for the imaginary part of the inner product."""
    j = mult_i_matrix(v.ambient_d)
    return RealSubspace(v.ambient_d, j @ perp(v).basis)


def meet(subspaces) -> RealSubspace:
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("meet of an empty family")
    d = subspaces[0].ambient_d
    stack = np.vstack([np.eye(2 * d) - v.projector() for v in subspaces])
    _, s, vh = np.linalg.svd(stack)
    null = np.ones(2 * d, dtype=bool)
    null[: s.shape[0]] = s <= RANK_RTOL * max(s.max(initial=0.0), 1.0)
    return RealSubspace(d, vh.T[:, null])


def join(subspaces) -> RealSubspace:
    subspaces = list(subspaces)
    if not subspaces:
        raise ValueError("join of an empty family")
    d = subspaces[0].ambient_d
    cols = np.hstack([v.basis for v in subspaces])
    return RealSubspace(d, cols)


@dataclass(frozen=True)
class GeneralPositionSplit:
    w_plus: RealSubspace
    w_zero: RealSubspace
    w_one: RealSubspace
    w_minus: RealSubspace
    v_zero: RealSubspace
    v_one: RealSubspace
    gray_zone: bool


def general_position_split(v: RealSubspace) -> GeneralPositionSplit:
    """Split the ambient space into the four canonical complex parts.

    w_plus = V&iV, w_minus = its analog for the complement, w_one the
    complex span of V & iV^perp, w_zero the remainder; V itself splits
    accordingly, with v_zero in general position inside w_zero.  Singular
    values falling in the gray zone (1e-12, 1e-8) set the gray_zone flag.
    """
    d = v.ambient_d
    j = mult_i_matrix(d)
    iv = RealSubspace(d, j @ v.basis)
    vp = perp(v)
    ivp = RealSubspace(d, j @ vp.basis)

    gray = False

    def checked_meet(a, b):
        nonlocal gray
        stack = np.vstack([np.eye(2 * d) - a.projector(), np.eye(2 * d) - b.projector()])
        s = np.linalg.svd(stack, compute_uv=False)
        if np.any((s > GRAY_LOW) & (s < GRAY_HIGH)):
            gray = True
        return meet([a, b])

    w_plus = checked_meet(v, iv)
    w_minus = checked_meet(vp, ivp)
    v_one = checked_meet(v, ivp)
    w_one = RealSubspace(d, np.hstack([v_one.basis, j @ v_one.basis]))
    rest = perp(join([w_plus, w_minus, w_one]))
    w_zero = rest
    v_zero = checked_meet(v, w_zero)
    return GeneralPositionSplit(w_plus, w_zero, w_one, w_minus, v_zero, v_one, gray)


@dataclass(frozen=True)
class HalmosData:
    z_basis: np.ndarray       # real columns spanning the complex subspace Z
    eps: np.ndarray           # real matrix of the antilinear involution
    chi: np.ndarray           # compression of (1 - m)/2 to Z, real rep
    rho: np.ndarray           # chi (1 - 2 chi)^{-1} on Z
    m: np.ndarray
    n: np.ndarray


def halmos_angles(v: RealSubspace) -> HalmosData:
    """Angle data of a real subspace in general position.

    m = p + q - 1 and n = p - q for the projections p onto V and q onto
    iV; their polar parts give the antilinear involution eps and the
    graded subspace Z = Ker(w - 1), on which chi = (1 - m)/2 lives with
    spectrum strictly inside (0, 1/2).
    """
    d = v.ambient_d
    j = mult_i_matrix(d)
    p = v.projector()
    q = j @ p @ j.T
    m = p + q - np.eye(2 * d)
    n = p - q
    for name, mat in (("m", m), ("n", n)):
        s = np.linalg.svd(mat, compute_uv=False)
        if s.min() <= 1e-8:
            raise GeneralPositionError(f"{name} has a kernel; V is not in general position")
    eps, _ = polar_decompose(n)
    w_sign, _ = polar_decompose(m)
    evals, evecs = np.linalg.eigh(w_sign)
    z_cols = evecs[:, evals > 0.5]
    z_basis = _orthonormalize(z_cols)
    nz = z_basis.shape[1]
    chi = 0.5 * (z_basis.T @ (np.eye(2 * d) - m) @ z_basis)
    chi = (chi + chi.T) / 2
    rho = chi @ np.linalg.inv(np.eye(nz) - 2 * chi)
    return HalmosData(z_basis, eps, chi, rho, m, n)


def halmos_isometry_range(data: HalmosData) -> np.ndarray:
    """Columns (1-chi)^{1/2} z + eps chi^{1/2} z over the Z basis; spans V."""
    one = np.eye(data.chi.shape[0])
    return (data.z_basis @ sqrtm_psd(one - data.chi)
            + data.eps @ data.z_basis @ sqrtm_psd(data.chi))


def field_generators(space: FockSpace, v: RealSubspace) -> list:
    """Fermionic fields phi(z) for a real basis of V (self-adjoint set), as CSR arrays."""
    ops = []
    for i in range(v.dim):
        z = to_complex(v.basis[:, i])
        ops.append(space.ladder(z, z))
    return ops


def fermionic_duality_check(v: RealSubspace, space: FockSpace) -> dict:
    """Compare the commutant of M(V) with Lambda M(iV^perp) Lambda through the CAR.

    The fields phi_i of a real orthonormal basis of V (m of them) and psi_j
    of iV^perp are self-adjoint unitaries with {g_a, g_b} = 2 delta_ab.  So
    E = prod_i (1 + Ad phi_i)/2 is the Hilbert-Schmidt-orthogonal projection
    onto M(V)', and dim_commutant is its trace 2^-m sum_S |tr phi_S|^2 over
    the ordered monomials phi_S.  dim_dressed_dual counts the dressed
    monomials Y_S = Lambda psi_S Lambda / sqrt(n), which are HS-orthonormal
    because tr(psi_S* psi_T) = +-tr psi_{S xor T} vanishes for S != T, and
    defect_dual_in_comm is max ||[phi_i, Y_S]||_HS.

    defect_comm_in_dual is the certificate that both dimensions rest on:
    the largest anticommutator defect ||{g_a, g_b} - 2 delta_ab||_HS / sqrt(n)
    and trace |tr g_S| / n of a nonempty monomial, over both generator sets.
    When it vanishes E is a projection and the Y_S are orthonormal, so once
    the dual lies in the commutant, equal dimensions put the commutant in
    the dual.
    """
    if space.d != v.ambient_d or not space.is_fermi:
        raise ValueError("need the fermionic Fock space over the ambient space")
    n = space.dim
    _require_dense(n * n)  # the monomial lists hold 2^m n^2 <= n^4 entries
    identity = space.identity()
    gens, dual = ([dense(g) for g in field_generators(space, w)]
                  for w in (v, symplectic_complement(v)))
    monomials = [ordered_products(fields, identity) for fields in (gens, dual)]
    traces = [np.array([np.trace(x) for x in monos]) for monos in monomials]
    anticommutators = [np.linalg.norm(f[a] @ f[b] + f[b] @ f[a] - 2.0 * (a == b) * identity)
                       for f in (gens, dual) for a in range(len(f)) for b in range(a + 1)]
    certificate = max(max(anticommutators, default=0.0) / math.sqrt(n),
                      max(np.abs(t[1:]).max(initial=0.0) for t in traces) / n)
    # Lambda is a diagonal unitary: ||[phi, Lambda psi_S Lambda]|| = ||[Lambda phi Lambda, psi_S]||
    signs = _lambda_signs(space.total_numbers)
    dressed = [signs[:, None] * g * signs for g in gens]
    defect = max((np.linalg.norm(g @ y - y @ g) for g in dressed for y in monomials[1]),
                 default=0.0)
    return {
        "dim_commutant": round(float(np.sum(np.abs(traces[0]) ** 2)) / 2 ** len(gens)),
        "dim_dressed_dual": len(monomials[1]),
        "defect_comm_in_dual": float(certificate),
        "defect_dual_in_comm": float(defect / math.sqrt(n)),
    }
