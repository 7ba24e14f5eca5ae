"""Real subspaces of C^d, their lattice operations and angle data,
numerical commutants, and the fermionic duality check.

Real-linear objects are represented as real matrices on R^{2d}, with a
complex vector z stored as (Re z; Im z) and multiplication by i given by
the fixed block matrix J.
"""

from __future__ import annotations

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


def commutant(generators) -> list:
    """Hilbert-Schmidt-orthonormal basis of {X : [X, A_i] = 0 for all i}.

    The adjoint of every generator is taken too, so the result is a
    *-algebra.  Starting from the n^2 matrix units, each generator and its
    adjoint keep the null space of X -> AX - XA on the basis so far, found
    by one thin SVD of the map applied to every basis element at once;
    sparse generators are densified for it.  A generator that equals its
    adjoint exactly, as every field does, takes one step.
    """
    gens = [np.asarray(dense(g), dtype=complex) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].shape[0]
    _require_dense(n * n)
    full = gens + [g.conj().T for g in gens if not np.array_equal(g, g.conj().T)]
    # floor the rank threshold at the generator scale: near-central
    # generators leave the map numerically zero
    scale = max(np.linalg.norm(g, 2) for g in full)
    basis = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    for a in full:
        image = (a @ basis - basis @ a).reshape(len(basis), n * n)
        _, s, vh = np.linalg.svd(image.T, full_matrices=False)
        null = s <= RANK_RTOL * max(s.max(initial=0.0), scale, 1e-300)
        basis = np.tensordot(vh[null].conj(), basis, axes=1)
    return list(basis)


def _containment_defect(basis_a, basis_b) -> float:
    """Max HS distance of an element of span(a) from span(b); b is orthonormal
    and neither list is empty (the identity lies in every commutant)."""
    mat_a, mat_b = (np.column_stack([x.reshape(-1) for x in basis]) for basis in (basis_a, basis_b))
    return float(np.linalg.norm(mat_a - mat_b @ (mat_b.conj().T @ mat_a), axis=0).max())


def field_generators(space: FockSpace, v: RealSubspace) -> list:
    """Fermionic fields phi(z) for a real basis of V (self-adjoint set), as CSR arrays."""
    ops = []
    for i in range(v.dim):
        z = to_complex(v.basis[:, i])
        ops.append(space.ladder(z, z))
    return ops


def fermionic_duality_check(v: RealSubspace, space: FockSpace) -> dict:
    """Compare the commutant of M(V) with Lambda M(iV^perp) Lambda.

    M(iV^perp) is the span of the ordered monomials of its fields, which
    anticommute.  Both algebras are taken as Hilbert-Schmidt-orthonormal
    bases; the report carries their dimensions and the two containment
    defects.
    """
    if space.d != v.ambient_d or not space.is_fermi:
        raise ValueError("need the fermionic Fock space over the ambient space")
    comm = commutant(field_generators(space, v) or [space.identity()])
    dual_alg = ordered_products(field_generators(space, symplectic_complement(v)),
                                space.identity())
    signs = _lambda_signs(space.total_numbers)
    dressed = [signs[:, None] * x * signs for x in dual_alg]
    dressed_on = _orthonormalize_hs(dressed)
    return {
        "dim_commutant": len(comm),
        "dim_dressed_dual": len(dressed_on),
        "defect_comm_in_dual": _containment_defect(comm, dressed_on),
        "defect_dual_in_comm": _containment_defect(dressed_on, comm),
    }


def _orthonormalize_hs(mats) -> list:
    n = mats[0].shape[0]
    cols = np.column_stack([m.reshape(-1) for m in mats])
    q = _orthonormalize(cols)
    return [q[:, i].reshape(n, n) for i in range(q.shape[1])]

