import numpy as np
import pytest

from fockforge.fock import FockSpace
from fockforge.lattice import (GeneralPositionError, RealSubspace, _orthonormalize, commutant,
                               double_commutant, fermionic_duality_check, field_generators,
                               general_position_split, halmos_angles,
                               halmos_isometry_range, join, meet, mult_i_matrix,
                               perp, symplectic_complement, to_complex)
from fockforge.thermal import tracial_field


@pytest.fixture
def rng():
    return np.random.default_rng(21)


def to_real(z) -> np.ndarray:
    """The complex vector z as the real vector (Re z; Im z)."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    return np.concatenate([z.real, z.imag])


def subspace_distance(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Max distance of a unit vector of span(a) from span(b) and back.

    Both arguments are matrices whose columns span the subspaces; they
    need not be orthonormal.
    """
    if basis_a.shape[1] == 0 and basis_b.shape[1] == 0:
        return 0.0
    if basis_a.shape[1] != basis_b.shape[1]:
        return 1.0
    qa, _ = np.linalg.qr(basis_a)
    qb, _ = np.linalg.qr(basis_b)
    return float(np.linalg.norm(qa @ qa.conj().T - qb @ qb.conj().T, 2))


def intersect_spans(mats_a, mats_b) -> list:
    """Basis of the intersection of two spans of matrices (HS geometry)."""
    if not mats_a or not mats_b:
        return []
    n = mats_a[0].shape[0]
    a = _orthonormalize(np.column_stack([m.reshape(-1) for m in mats_a]))
    b = _orthonormalize(np.column_stack([m.reshape(-1) for m in mats_b]))
    stack = np.vstack([np.eye(n * n) - a @ a.conj().T, np.eye(n * n) - b @ b.conj().T])
    _, s, vh = np.linalg.svd(stack)
    null = np.ones(n * n, dtype=bool)
    null[: s.shape[0]] = s <= 1e-8
    return [vh.conj().T[:, i].reshape(n, n) for i in np.nonzero(null)[0]]


def whole(d: int) -> RealSubspace:
    return RealSubspace(d, np.eye(2 * d))


def zero(d: int) -> RealSubspace:
    return RealSubspace(d, np.zeros((2 * d, 0)))


def test_perp_basics(rng):
    v = RealSubspace.from_vectors(2, rng.standard_normal((4, 2)))
    assert perp(v).dim == 2
    assert subspace_distance(perp(perp(v)).basis, v.basis) <= 1e-12
    assert perp(whole(2)).dim == 0
    assert perp(zero(2)).dim == 4


def test_real_chart_round_trip(rng):
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    assert np.array_equal(to_complex(to_real(z)), z)


def test_symplectic_complement_involution(rng):
    d = 2
    v = RealSubspace.from_vectors(d, rng.standard_normal((2 * d, 3)))
    sc = symplectic_complement(v)
    # i (i V^perp)^perp = V
    back = RealSubspace(d, mult_i_matrix(d) @ perp(sc).basis)
    assert subspace_distance(back.basis, v.basis) <= 1e-12
    assert v.dim + perp(v).dim == 2 * d


def test_d1_real_line_self_dual():
    v = RealSubspace.from_vectors(1, np.array([1.0, 0.0]))
    sc = symplectic_complement(v)
    assert subspace_distance(sc.basis, v.basis) <= 1e-12


def test_meet_join(rng):
    d = 2
    v = RealSubspace.from_vectors(d, rng.standard_normal((4, 2)))
    assert subspace_distance(meet([v, v]).basis, v.basis) <= 1e-12
    assert join([v, perp(v)]).dim == 4
    w = RealSubspace.from_vectors(d, rng.standard_normal((4, 3)))
    assert meet([v, w]).dim + join([v, w]).dim == v.dim + w.dim


def test_general_position_split_cases(rng):
    # the complex line through (1, i)/sqrt(2): a vector and its i-multiple
    y = to_real(np.array([1.0, 1j]) / np.sqrt(2))
    vc = RealSubspace(2, np.column_stack([y, mult_i_matrix(2) @ y]))
    s = general_position_split(vc)
    assert s.w_plus.dim == 2 and s.v_zero.dim == 0 and s.w_one.dim == 0
    line = RealSubspace.from_vectors(1, np.array([1.0, 0.0]))
    s1 = general_position_split(line)
    assert s1.w_one.dim == 2 and s1.v_one.dim == 1 and s1.w_plus.dim == 0
    generic = RealSubspace.from_vectors(2, rng.standard_normal((4, 2)))
    sg = general_position_split(generic)
    assert sg.w_zero.dim == 4 and sg.v_zero.dim == 2
    decomposed = join([sg.w_plus, sg.v_zero, sg.v_one])
    assert subspace_distance(decomposed.basis, generic.basis) <= 1e-9


def test_halmos_angle_oracle():
    # one-parameter family in C^2: V spanned by e1-real and a rotated
    # partner; the positive eigenvalue of p + q - 1 pins chi directly
    theta = 0.7
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    v1 = to_real(e1)
    v2 = to_real(np.cos(theta) * 1j * e1 + np.sin(theta) * e2)
    v = RealSubspace.from_vectors(2, np.column_stack([v1, v2]))
    data = halmos_angles(v)
    j = mult_i_matrix(2)
    p = v.projector()
    q = j @ p @ j.T
    m_eigs = np.linalg.eigvalsh(p + q - np.eye(4))
    positives = m_eigs[m_eigs > 0]
    chi_eigs = np.sort(np.linalg.eigvalsh(data.chi))
    assert np.allclose(np.sort((1 - positives) / 2), chi_eigs, atol=1e-10)
    assert chi_eigs.min() > 0 and chi_eigs.max() < 0.5


def test_halmos_structure(rng):
    v = RealSubspace.from_vectors(2, rng.standard_normal((4, 2)))
    data = halmos_angles(v)
    j = mult_i_matrix(2)
    assert np.linalg.norm(data.eps @ data.eps - np.eye(4), 2) <= 1e-10
    assert np.linalg.norm(data.eps @ j + j @ data.eps, 2) <= 1e-10
    # eps maps Z onto its orthogonal complement
    overlap = data.z_basis.T @ (data.eps @ data.z_basis)
    assert np.linalg.norm(overlap, 2) <= 1e-10
    iso = halmos_isometry_range(data)
    assert subspace_distance(iso, v.basis) <= 1e-9
    # swapping the weights gives the symplectic complement
    w, vecs = np.linalg.eigh(data.chi)
    sq_chi = vecs @ np.diag(np.sqrt(w)) @ vecs.T
    sq_one = vecs @ np.diag(np.sqrt(1 - w)) @ vecs.T
    dual_cols = data.z_basis @ sq_chi + data.eps @ data.z_basis @ sq_one
    assert subspace_distance(dual_cols, symplectic_complement(v).basis) <= 1e-9
    # rho = chi (1 - 2 chi)^(-1) stays finite below chi = 1/2
    assert np.all(np.isfinite(data.rho))


def test_halmos_rejects_non_general_position():
    line = RealSubspace.from_vectors(1, np.array([1.0, 0.0]))
    with pytest.raises(GeneralPositionError):
        halmos_angles(line)


def test_gray_zone_flag(rng):
    # nearly complex subspace: the intersection ranks sit in the gray zone
    delta = 1e-10
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    v = RealSubspace.from_vectors(
        2, np.column_stack([to_real(e1), to_real(1j * e1 + delta * e2)]))
    assert general_position_split(v).gray_zone
    clean = RealSubspace.from_vectors(2, rng.standard_normal((4, 2)))
    assert not general_position_split(clean).gray_zone


def test_commutant_basics():
    import itertools

    units = []
    for i, j in itertools.product(range(3), repeat=2):
        m = np.zeros((3, 3), dtype=complex)
        m[i, j] = 1
        units.append(m)
    comm = commutant(units)
    assert len(comm) == 1
    assert np.linalg.norm(comm[0] - comm[0][0, 0] * np.eye(3), 2) <= 1e-10
    everything = commutant([np.eye(4, dtype=complex)])
    assert len(everything) == 16


def test_commutant_guard():
    with pytest.raises(ValueError):
        commutant([np.eye(200, dtype=complex)])


def test_double_commutant_contains_generators(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = a + a.conj().T
    alg = double_commutant([a])
    basis = np.column_stack([m.reshape(-1) for m in alg])
    vec = a.reshape(-1)
    resid = vec - basis @ (basis.conj().T @ vec)
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(vec)


def test_duality_extremes():
    d = 2
    space = FockSpace("fermi", d)
    rep_whole = fermionic_duality_check(whole(d), space)
    assert rep_whole["dim_commutant"] == 1
    assert len(double_commutant(field_generators(space, whole(d)))) == space.dim**2
    rep_zero = fermionic_duality_check(zero(d), space)
    assert len(double_commutant([space.identity()])) == 1
    assert rep_zero["dim_commutant"] == space.dim**2
    for rep in (rep_whole, rep_zero):
        assert rep["defect_comm_in_dual"] <= 1e-8
        assert rep["defect_dual_in_comm"] <= 1e-8


def test_duality_random(rng):
    d = 2
    space = FockSpace("fermi", d)
    for _ in range(4):
        k = int(rng.integers(1, 4))
        v = RealSubspace.from_vectors(d, rng.standard_normal((2 * d, k)))
        rep = fermionic_duality_check(v, space)
        assert rep["dim_commutant"] == rep["dim_dressed_dual"]
        assert rep["defect_comm_in_dual"] <= 1e-8
        assert rep["defect_dual_in_comm"] <= 1e-8


def test_algebra_monotone_and_meet(rng):
    d = 2
    space = FockSpace("fermi", d)
    from fockforge.lattice import _containment_defect, _orthonormalize_hs

    small = RealSubspace.from_vectors(d, rng.standard_normal((4, 1)))
    big = RealSubspace(d, np.column_stack([small.basis, rng.standard_normal(4)]))
    alg_small = _orthonormalize_hs(double_commutant(field_generators(space, small)))
    alg_big = _orthonormalize_hs(double_commutant(field_generators(space, big)))
    assert _containment_defect(alg_small, alg_big) <= 1e-9
    # meet morphism on dimensions: M(V1 & V2) = M(V1) & M(V2)
    v1 = RealSubspace.from_vectors(d, rng.standard_normal((4, 3)))
    v2 = RealSubspace.from_vectors(d, rng.standard_normal((4, 3)))
    inter = meet([v1, v2])
    alg_inter = double_commutant(field_generators(space, inter) or [space.identity()])
    alg1 = double_commutant(field_generators(space, v1))
    alg2 = double_commutant(field_generators(space, v2))
    alg_cap = intersect_spans(alg1, alg2)
    assert len(alg_inter) == len(alg_cap)


def test_odd_dimensional_center_contains_q(rng):
    # tracial fields over an odd-dimensional real space: Q is central
    sp = FockSpace("fermi", 3)
    gens = [tracial_field(sp, np.eye(3)[k]) for k in range(3)]
    alg = double_commutant(gens)
    comm = commutant(gens)
    center = [x for x in comm]
    q = ((1j) ** 3 * gens[0] @ gens[1] @ gens[2]).toarray()
    # Q commutes with the generators and lies in the algebra
    for g in gens:
        assert np.linalg.norm(q @ g - g @ q, 2) <= 1e-12
    basis_alg = np.column_stack([m.reshape(-1) for m in alg])
    vec = q.reshape(-1)
    assert np.linalg.norm(vec - basis_alg @ (basis_alg.conj().T @ vec)) <= 1e-8
    basis_comm = np.column_stack([m.reshape(-1) for m in comm])
    assert np.linalg.norm(vec - basis_comm @ (basis_comm.conj().T @ vec)) <= 1e-8


def test_orthonormalize_real_and_complex_columns(rng):
    assert _orthonormalize(np.zeros((4, 0))).shape == (4, 0)
    a = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    q = _orthonormalize(np.column_stack([a, a @ [1.0, 2.0j]]))
    assert q.shape == (6, 2)
    assert np.allclose(q.conj().T @ q, np.eye(2))
