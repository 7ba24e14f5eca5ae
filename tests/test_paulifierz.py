import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import fockforge.paulifierz as pf
from fockforge.fock import FockSpace, dgamma, gamma
from fockforge.linalg import dense, sqrtm_psd
from fockforge.ops import pair_exponential_vacuum
from fockforge.paulifierz import (PauliFierzModel, _labelled_states, apply_pair_squeezer,
                                  confined_pf_check, coupled_create,
                                  difference_targets, exact_blocks, hamiltonian,
                                  matched_spectral_deviation, semi_liouvillean, spin_boson,
                                  standard_liouvillean)
from fockforge.thermal import DoubledRep, ThermalParams, _leg_swap_index, pair_kernel


@pytest.fixture
def rng():
    return np.random.default_rng(17)


def creators(space):
    return [space.creation(m) for m in range(space.d)]


def apply_boson_leg(mat: np.ndarray, q: np.ndarray, dim_k: int, d: int) -> np.ndarray:
    """(1_K (x) mat) q for q : K -> K (x) Z stored with K-major rows."""
    q4 = q.reshape(dim_k, d, q.shape[1])
    return np.einsum("mn,inj->imj", mat, q4).reshape(dim_k * mat.shape[0], q.shape[1])


def v_star(v: np.ndarray, dim_k: int, d: int) -> np.ndarray:
    """The conjugate-leg coupling: sum B_m (x) |e_m) -> sum B_m* (x) |conj e_m)."""
    v4 = np.asarray(v, dtype=complex).reshape(dim_k, d, dim_k)
    return np.conj(np.einsum("imj->jmi", v4)).reshape(dim_k * d, dim_k)


def _stack_legs(top: np.ndarray, bottom: np.ndarray, k: int, d: int) -> np.ndarray:
    """K -> K (x) (Z (+) Zbar) from the legs top: K -> K (x) Z and bottom: K -> K (x) Zbar."""
    q = np.zeros((k, 2 * d, k), dtype=complex)
    q[:, :d, :] = top.reshape(k, d, k)
    q[:, d:, :] = bottom.reshape(k, d, k)
    return q.reshape(k * 2 * d, k)


def dressed_coupling(model):
    """q_gamma = ((1+rho)^{1/2} v on the Z leg, rho-bar^{1/2} v-star on the Zbar leg): the
    oracle of pi_l(V), written on the one-particle space instead of through a*_l(e_m)."""
    d, k = model.d, model.dim_k
    rho = ThermalParams("bose", model.gamma).density
    top = apply_boson_leg(sqrtm_psd(np.eye(d) + rho), model.v, k, d)
    bottom = apply_boson_leg(np.conj(sqrtm_psd(rho)), v_star(model.v, k, d), k, d)
    return _stack_legs(top, bottom, k, d)


def mirrored_coupling(model):
    """The right-leg coupling (rho^{1/2} conj(v-star), (1+rho-bar)^{1/2} conj(v))."""
    d, k = model.d, model.dim_k
    rho = ThermalParams("bose", model.gamma).density
    vst_bar = np.conj(v_star(model.v, k, d))
    top = apply_boson_leg(sqrtm_psd(rho), vst_bar, k, d)
    bottom = apply_boson_leg(np.conj(sqrtm_psd(np.eye(d) + rho)), np.conj(model.v), k, d)
    return _stack_legs(top, bottom, k, d)


def jpvj_closed_form(model, space) -> np.ndarray:
    """1_K (x) (a*(mirrored coupling) + h.c.) acting on the Kbar and boson legs, dense."""
    inter = coupled_create(mirrored_coupling(model), creators(space))
    return np.kron(np.eye(model.dim_k), (inter + inter.conj().T).toarray())


def identity_middle_leg(a: np.ndarray, k: int, dim_h: int) -> np.ndarray:
    """C (x) A0 -> C (x) 1 (x) A0 for a dense a on K (x) H, dim K = k: the identity
    tensored into a middle Kbar leg, K (x) Kbar (x) H."""
    a6 = np.einsum("ixjy,ab->iaxjby", a.reshape(k, dim_h, k, dim_h), np.eye(k))
    return a6.reshape(k * k * dim_h, k * k * dim_h)


def _expm_squeezer(space, gamma_one):
    """The thermal dressing unitary through dense Pade exponentials.

    The library builds it from finite series over a sparse a*(c); this
    oracle forms a*(c) from products of creation matrices and takes
    scipy.linalg.expm of it, so the two routes share no code.
    """
    c = pair_kernel(gamma_one, "bose")
    modes = range(space.d)
    ac = sum(c[j, k] * (space.creation(j) @ space.creation(k))
             for j in modes for k in modes).toarray()
    eye = np.eye(space.d)
    g = c @ c.conj().T
    mid = dense(gamma(space, sqrtm_psd(eye - g)))
    pref = np.linalg.det(eye - g).real ** 0.25
    return pref * (scipy.linalg.expm(-0.5 * ac) @ mid @ scipy.linalg.expm(0.5 * ac.conj().T))


def test_model_validation():
    with pytest.raises(ValueError):
        PauliFierzModel(np.array([[0, 1j], [1j, 0]]), np.eye(1), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PauliFierzModel(np.eye(2), -np.eye(1), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        PauliFierzModel(np.eye(2), np.eye(1), np.zeros((3, 2)))


def test_coupled_create_factored(rng):
    k, d = 2, 2
    sp = FockSpace("bose", d, 4)
    b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    q = np.einsum("ij,m->imj", b, w).reshape(k * d, k)
    got = coupled_create(q, creators(sp)).toarray()
    assert np.linalg.norm(got - np.kron(b, sp.create(w).toarray()), 2) <= 1e-12
    # the adjoint a(q) annihilates every state K (x) vacuum
    assert not np.any(got.conj().T @ np.kron(np.eye(k), sp.vacuum()[:, None]))
    assert not np.any(coupled_create(np.zeros((k * d, k)), creators(sp)).toarray())


def test_coupled_create_linearity(rng):
    k, d = 2, 2
    sp = FockSpace("bose", d, 3)
    q1 = rng.standard_normal((k * d, k)) + 1j * rng.standard_normal((k * d, k))
    q2 = rng.standard_normal((k * d, k)) + 1j * rng.standard_normal((k * d, k))
    lhs = coupled_create(q1 + q2, creators(sp)).toarray()
    rhs = (coupled_create(q1, creators(sp)) + coupled_create(q2, creators(sp))).toarray()
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-12


def test_v_star(rng):
    k, d = 3, 2
    v = rng.standard_normal((k * d, k)) + 1j * rng.standard_normal((k * d, k))
    vs = v_star(v, k, d)
    assert np.linalg.norm(v_star(vs, k, d) - v) <= 1e-14
    b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    q = np.einsum("ij,m->imj", b, w).reshape(k * d, k)
    expect = np.einsum("ij,m->imj", b.conj().T, np.conj(w)).reshape(k * d, k)
    assert np.linalg.norm(v_star(q, k, d) - expect) <= 1e-13
    # Hermitian system part with a real mode function is a fixed point
    b_h = b + b.conj().T
    q_h = np.einsum("ij,m->imj", b_h, w.real).reshape(k * d, k)
    assert np.linalg.norm(v_star(q_h, k, d) - q_h) <= 1e-13
    # defining bilinear identity
    phi = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    psi = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    wv = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    lhs = np.vdot(np.einsum("i,m->im", phi, wv).reshape(-1), v @ psi)
    rhs = np.vdot(vs @ phi, np.einsum("i,m->im", psi, np.conj(wv)).reshape(-1))
    assert abs(lhs - rhs) <= 1e-12


def test_hamiltonian_free_spectrum():
    model = spin_boson(coupling=0.0, splitting=2.0, gamma_value=None, cutoff=2)
    ham = dense(hamiltonian(model, model.cutoff)[0])
    got = np.sort(np.linalg.eigvalsh(ham))
    expect = np.sort([s + n for s in (-1.0, 1.0) for n in range(3)])
    assert np.allclose(got, expect)


def test_hamiltonian_jaynes_cummings_spectrum():
    # K = diag(D/2, -D/2), h = w, v = g sigma_- : H conserves the excitation number,
    # and at cutoff N every manifold {|up, n>, |down, n + 1>} with n < N is exact
    split, omega, g, cutoff = 1.3, 1.0, 0.2, 12
    lower = np.array([[0.0, 0.0], [1.0, 0.0]])
    model = PauliFierzModel(np.diag([split / 2, -split / 2]), np.array([[omega]]), g * lower,
                            cutoff=cutoff)
    ham = dense(hamiltonian(model, cutoff)[0])
    n = np.arange(cutoff)
    root = np.sqrt((split - omega) ** 2 / 4 + g**2 * (n + 1))
    expect = np.concatenate([[-split / 2, split / 2 + cutoff * omega],
                             (n + 0.5) * omega + root, (n + 0.5) * omega - root])
    assert np.max(np.abs(np.linalg.eigvalsh(ham) - np.sort(expect))) <= 1e-12


def test_hamiltonian_free_spectrum_two_modes():
    # v = 0: the levels are kappa_i + sum_m n_m omega_m, omega the eigenvalues of h
    kappa = np.array([-0.4, 0.3, 1.1])
    h = np.array([[1.0, 0.3], [0.3, 1.4]])
    cutoff = 4
    model = PauliFierzModel(np.diag(kappa), h, np.zeros((6, 3)), cutoff=cutoff)
    ham = dense(hamiltonian(model, cutoff)[0])
    omega = np.linalg.eigvalsh(h)
    expect = [k + n1 * omega[0] + n2 * omega[1] for k in kappa
              for n1 in range(cutoff + 1) for n2 in range(cutoff + 1 - n1)]
    assert np.max(np.abs(np.linalg.eigvalsh(ham) - np.sort(expect))) <= 1e-12


def test_matched_deviation_failure_reasons():
    ops = np.diag([0.0, 1.0, 2.0])
    far = matched_spectral_deviation(ops, ops, lambda x: x, [("far", 100.0, np.ones(3))], None)
    assert far["unmatched"] == [("far", "target missing from comparison spectrum")]
    empty = matched_spectral_deviation(ops, ops, lambda x: x, [("empty", 1.0, np.zeros(3))],
                                       None)
    assert empty["unmatched"] == [("empty", "labelled state captured 0.000")]
    assert far["matched"] == empty["matched"] == []


def test_hamiltonian_ground_state_lowering():
    e0 = {}
    for lam in (0.0, 0.2):
        model = spin_boson(coupling=lam, gamma_value=None, cutoff=12)
        ham = dense(hamiltonian(model, model.cutoff)[0])
        e0[lam] = np.linalg.eigvalsh(ham).min()
    assert e0[0.2] < e0[0.0]


def test_hamiltonian_hermitian(rng):
    model = spin_boson(coupling=0.3, gamma_value=None, cutoff=6)
    ham = dense(hamiltonian(model, model.cutoff)[0])
    assert np.linalg.norm(ham - ham.conj().T, 2) <= 1e-12


def test_semi_liouvillean_structure():
    with pytest.raises(ValueError):
        semi_liouvillean(spin_boson(gamma_value=None, cutoff=4), 4)
    model = spin_boson(coupling=0.2, gamma_value=0.25, cutoff=4)
    ell, space = semi_liouvillean(model, model.cutoff)
    ell = ell.toarray()
    assert space.n_max == 8
    assert np.linalg.norm(ell - ell.conj().T, 2) <= 1e-12


def test_semi_liouvillean_free_difference_spectrum():
    model = spin_boson(coupling=0.0, gamma_value=0.0, cutoff=3)
    ell, space = semi_liouvillean(model, model.cutoff)
    got = np.sort(np.linalg.eigvalsh(ell.toarray()))
    expect = []
    for s in (-0.5, 0.5):
        for occ in space.basis:
            expect.append(s + occ[0] - occ[1])
    assert np.allclose(got, np.sort(expect))


def test_standard_liouvillean_structure():
    model = spin_boson(coupling=0.2, gamma_value=0.25, cutoff=4)
    ell = standard_liouvillean(model, model.cutoff)[0].toarray()
    assert np.linalg.norm(ell - ell.conj().T, 2) <= 1e-12
    assert abs(np.trace(ell)) <= 1e-9
    free = spin_boson(coupling=0.0, gamma_value=0.25, cutoff=4)
    ell0, _ = standard_liouvillean(free, free.cutoff)
    ev = np.sort(np.linalg.eigvalsh(ell0.toarray()))
    assert np.max(np.abs(ev + ev[::-1])) <= 1e-10


def _comparison(liouvillean, model, cutoff):
    """A family's comparison operator as the check builds it: its Liouvillean at density 0."""
    return liouvillean(dataclasses.replace(model, gamma=np.zeros_like(model.h)), cutoff)


def _sparse_kron(a, b):
    return scipy.sparse.kron(scipy.sparse.csr_array(a), scipy.sparse.csr_array(b), format="csr")


def _doubled_chart(model, cutoff):
    """H on K (x) Gamma(Z) and the doubled space, both at twice the cutoff, and the indices
    in Gamma(Z) of the left and right occupations of each doubled state."""
    ham, space_z = hamiltonian(model, 2 * cutoff)
    space_w = FockSpace("bose", 2 * model.d, 2 * cutoff)
    occ = space_w.occupations
    d = model.d
    return dense(ham), space_z, space_w, space_z.indices(occ[:, :d]), space_z.indices(occ[:, d:])


def semi_comparison_oracle(model, cutoff):
    """H (x) 1 - 1 (x) dGamma(h-bar) on K (x) Gamma(Z) (x) Gamma(Zbar), compressed to the
    coordinates (kappa, n, m) that the doubled truncation keeps; sparse.

    The check builds the same operator as the semi-Liouvillean at density 0;
    this route takes it from the dense H and two Kronecker products instead.
    """
    ham, space_z, space_w, n_idx, m_idx = _doubled_chart(model, cutoff)
    k, dz = model.dim_k, space_z.dim
    full = (_sparse_kron(ham, np.eye(dz))
            - _sparse_kron(np.eye(k * dz), dgamma(space_z, np.conj(model.h))))
    rows = ((np.arange(k)[:, None] * dz + n_idx) * dz + m_idx).ravel()
    return full[rows][:, rows], space_w


def standard_comparison_oracle(model, cutoff):
    """H (x) 1 - 1 (x) conj(H) compressed to K (x) Kbar (x) the doubled truncation; sparse."""
    ham, space_z, space_w, n_idx, m_idx = _doubled_chart(model, cutoff)
    k, dz = model.dim_k, space_z.dim
    full = _sparse_kron(ham, np.eye(k * dz)) - _sparse_kron(np.eye(k * dz), np.conj(ham))
    kap = np.arange(k)[:, None, None]
    kbar = np.arange(k)[None, :, None]
    rows = ((kap * dz + n_idx) * (k * dz) + kbar * dz + m_idx).ravel()
    return full[rows][:, rows], space_w


def _leg_swap(d):
    """The one-particle swap of the two legs of C^d (+) C^d."""
    eye = np.eye(d)
    zero = np.zeros((d, d))
    return np.block([[zero, eye], [eye, zero]])


def _real_d2_model(h, cutoff):
    """A real model with two boson modes: sigma_x on the first, sigma_z on the second."""
    k = np.diag([0.5, -0.5])
    v = 0.1 * np.stack([[[0, 1], [1, 0]], [[1, 0], [0, -1]]], axis=1).reshape(4, 2)
    return PauliFierzModel(k, h, v, scipy.linalg.expm(-1.5 * np.asarray(h)), cutoff)


REAL_D2 = [partial(_real_d2_model, np.diag([1.0, 1.3])),
           partial(_real_d2_model, np.array([[1.0, 0.2], [0.2, 1.3]]))]


def test_jpvj_closed_form():
    for model in (spin_boson(coupling=0.15, gamma_value=0.25, cutoff=4),
                  REAL_D2[0](cutoff=2), REAL_D2[1](cutoff=2)):
        k, cutoff = model.dim_k, model.cutoff
        ell, space = semi_liouvillean(model, cutoff)
        inter = coupled_create(dressed_coupling(model), creators(space)).toarray()
        v_full = inter + inter.conj().T
        # pi_l(V), built from the left creators a*_l(e_m), is a*(q_gamma) + a(q_gamma)
        free = PauliFierzModel(model.K, model.h, np.zeros_like(model.v), model.gamma, cutoff)
        pi_v = (ell - semi_liouvillean(free, cutoff)[0]).toarray()
        assert np.max(np.abs(pi_v - v_full)) <= 1e-14
        jw = np.kron(np.eye(k), dense(gamma(space, _leg_swap(model.d))))
        sandwich = np.kron(np.eye(k), jw @ np.conj(v_full) @ jw)
        closed = jpvj_closed_form(model, space)
        assert np.linalg.norm(sandwich - closed, 2) <= 1e-10


def test_leg_swap_gamma_is_the_swap_permutation():
    for space in (FockSpace("bose", 4, 6), FockSpace("fermi", 6)):
        d = space.d // 2
        perm = np.zeros((space.dim, space.dim))
        perm[_leg_swap_index(space), np.arange(space.dim)] = 1.0
        g = dense(gamma(space, _leg_swap(d)))
        if space.is_fermi:
            # moving b second-leg creators past a first-leg ones gives the
            # sign (-1)^(ab) = Lambda(a + b) Lambda(a) Lambda(b)
            a = np.array([sum(occ[:d]) for occ in space.basis])
            b = space.total_numbers - a
            legs = (-1.0) ** (a * (a - 1) // 2 + b * (b - 1) // 2)
            g = (np.diagonal(space.lambda_op()).real * legs)[:, None] * g
        assert np.max(np.abs(g - perm)) <= 1e-15
    # the linear part of J is a signed permutation, the Lambda-dressed Gamma(leg swap); the
    # sector route of gamma rounds by 1.1e-16 on the bose d = 1 space at n_max 16
    for kind, d in (("bose", 1), ("bose", 2), ("fermi", 2), ("fermi", 3)):
        rep = DoubledRep(ThermalParams(kind, np.diag(np.linspace(0.1, 0.3, d))))
        g = dense(gamma(rep.space, _leg_swap(d)))
        if kind == "fermi":
            g = rep.space.lambda_op() @ g
        u = rep.modular_conjugation().unitary
        assert np.array_equal(np.abs(u).sum(axis=0), np.ones(rep.space.dim))
        assert set(np.unique(u)) <= {-1, 0, 1}
        assert np.max(np.abs(u - g)) <= 1e-15
        if d > 1:
            assert np.array_equal(u, g)


def test_left_right_interactions_commute_subcutoff():
    model = spin_boson(coupling=0.15, gamma_value=0.25, cutoff=5)
    _, space = semi_liouvillean(model, model.cutoff)
    inter = coupled_create(dressed_coupling(model), creators(space))
    v_full = inter + inter.conj().T
    pi_v = identity_middle_leg(v_full.toarray(), 2, space.dim)
    jvj = jpvj_closed_form(model, space)
    comm = pi_v @ jvj - jvj @ pi_v
    sub = np.kron(np.eye(4), space.sector_projector(space.n_max - 2))
    assert np.linalg.norm(sub @ comm @ sub, 2) <= 1e-9


def test_free_kms_vector_in_kernel():
    # gamma = exp(-beta h), v = 0: the Gibbs-dressed vector is L-null
    beta = 1.0
    h = np.array([[1.0]])
    g = float(np.exp(-beta))
    model = spin_boson(coupling=0.0, gamma_value=g, cutoff=5)
    ell, space = standard_liouvillean(model, model.cutoff)
    pair = np.zeros((2, 2), dtype=complex)
    pair[0, 1] = np.sqrt(g)
    pair[1, 0] = np.sqrt(g)
    boson_vec = pair_exponential_vacuum(space, pair)
    kvec = scipy.linalg.expm(-beta * model.K / 2).reshape(-1)
    vec = np.kron(kvec, boson_vec)
    vec /= np.linalg.norm(vec)
    assert np.linalg.norm(ell @ vec) <= 1e-10


def test_comparison_operators_v0_exact():
    model = spin_boson(coupling=0.0, gamma_value=0.25, cutoff=4)
    l_semi, _ = semi_liouvillean(model, model.cutoff)
    d_semi, _ = semi_comparison_oracle(model, 4)
    assert np.max(np.abs(np.sort(np.linalg.eigvalsh(l_semi.toarray()))
                         - np.sort(np.linalg.eigvalsh(d_semi.toarray())))) <= 1e-10
    l_std, _ = standard_liouvillean(model, model.cutoff)
    d_std, _ = standard_comparison_oracle(model, 4)
    assert np.max(np.abs(np.sort(np.linalg.eigvalsh(l_std.toarray()))
                         - np.sort(np.linalg.eigvalsh(d_std.toarray())))) <= 1e-10


def test_pair_squeezer_is_thermal_dressing():
    rep = DoubledRep(ThermalParams("bose", np.array([[0.25]])), single_cutoff=4)
    assert np.linalg.norm(_expm_squeezer(rep.space, np.array([[0.25]])) - rep.r_gamma(), 2) <= 1e-12


@pytest.mark.slow
def test_confined_check_small_grid():
    model = spin_boson(coupling=0.1, gamma_value=0.25, cutoff=8)
    rep = confined_pf_check(model, cutoffs=(6, 8))
    assert rep["semi"][1] < rep["semi"][0]
    assert rep["standard"][1] < rep["standard"][0]
    assert not rep["semi_detail"][-1]["unmatched"]


def test_liouvillean_bundle():
    model = spin_boson(coupling=0.1, gamma_value=0.25, cutoff=3)
    free = PauliFierzModel(model.K, model.h, np.zeros_like(model.v), model.gamma, model.cutoff)
    semi, _ = semi_liouvillean(model, model.cutoff)
    semi_free, _ = semi_liouvillean(free, free.cutoff)
    std, _ = standard_liouvillean(model, model.cutoff)
    std_free, _ = standard_liouvillean(free, free.cutoff)
    for op in (semi, std, semi_free, std_free):
        op = op.toarray()
        assert np.linalg.norm(op - op.conj().T, 2) <= 1e-12
    assert semi.shape == semi_free.shape


def _sigma_y_model(cutoff):
    """The acceptance model with sigma_y coupling, unitarily equivalent through diag(1, i)."""
    model = spin_boson(coupling=0.1, gamma_value=0.25, cutoff=cutoff)
    return PauliFierzModel(model.K, model.h, 0.1 * np.array([[0, -1j], [1j, 0]]), model.gamma,
                           cutoff)


def _oracle_family(model, cutoff, family, cluster_tol=1e-4, overlap_min=0.9):
    """Isolated-target identification through dense complex eigh and the dense squeezer.

    Returns {name: (deviation, weight) or None when unmatched} for the targets
    whose nearest comparison eigenvalue is isolated within cluster_tol.
    """
    k = model.dim_k
    if family == "semi":
        ell, space = semi_liouvillean(model, cutoff)
        comp = semi_comparison_oracle(model, cutoff)[0].toarray()
        targets = difference_targets(model)
        legs = k
    else:
        ell, space = standard_liouvillean(model, cutoff)
        comp = standard_comparison_oracle(model, cutoff)[0].toarray()
        e = np.sort(np.linalg.eigvalsh(dense(hamiltonian(model, 30)[0])))[:3]
        targets = [(f"E{i}-E{j}", float(e[i] - e[j])) for i in range(3) for j in range(3)]
        legs = k * k
    ell = ell.toarray()
    assert np.iscomplexobj(ell) and np.iscomplexobj(comp)
    dress = np.kron(np.eye(legs), _expm_squeezer(space, model.gamma))
    vals_d, vecs_d = np.linalg.eigh(comp)
    vals_l, vecs_l = np.linalg.eigh(ell)
    out = {}
    for name, tgt in targets:
        i = int(np.argmin(np.abs(vals_d - tgt)))
        if np.sum(np.abs(vals_d - vals_d[i]) <= cluster_tol * max(1.0, abs(vals_d[i]))) != 1:
            continue
        psi = dress @ vecs_d[:, i]
        overlaps = np.abs(vecs_l.conj().T @ (psi / np.linalg.norm(psi))) ** 2
        j = int(np.argmax(overlaps))
        cluster = np.abs(vals_l - vals_l[j]) <= cluster_tol * max(1.0, abs(vals_l[j]))
        weight = float(overlaps[cluster].sum())
        if weight < overlap_min:
            out[name] = None
        else:
            val = float((overlaps[cluster] * vals_l[cluster]).sum() / weight)
            out[name] = (abs(val - tgt), weight)
    return out, (ell, comp, dress, targets)


def _by_name(detail):
    found = {name: (dev, weight) for name, dev, weight in detail["matched"]}
    found.update({name: None for name, _ in detail["unmatched"]})
    return found


def _oracle_agreement(model, cutoffs) -> int:
    """Assert that the check and a plain matrix-dressing call agree with the oracle.

    Returns the number of (family, cutoff, target) triples compared.
    """
    rep = confined_pf_check(model, cutoffs=cutoffs)
    _, reference = pf._reference_states(model)
    checked = 0
    for family in ("semi", "standard"):
        for n, detail in zip(cutoffs, rep[f"{family}_detail"]):
            oracle, (ell, comp, dress, targets) = _oracle_family(model, n, family)
            states = _labelled_states(model, n, reference)[family == "standard"]
            labelled = [t + (s,) for t, s in zip(targets, states.T)]
            plain = _by_name(matched_spectral_deviation(ell, comp, dress.__matmul__, labelled, None))
            got = _by_name(detail)
            for name, want in oracle.items():
                for found in (got[name], plain[name]):
                    assert (found is None) == (want is None), (family, n, name)
                    if want is not None:
                        assert abs(found[0] - want[0]) <= 1e-12
                        assert abs(found[1] - want[1]) <= 1e-12
                checked += 1
    return checked


@pytest.mark.parametrize("coupling", [0.1, 0.3])
def test_confined_check_matches_dense_complex_oracle(coupling):
    model = spin_boson(coupling=coupling, gamma_value=0.25, cutoff=6)
    assert _oracle_agreement(model, (4, 5, 6)) >= 40


def _sigma_xz_model(cutoff):
    """The acceptance model with sigma_x + sigma_z coupling, which breaks the spin-boson parity."""
    model = spin_boson(coupling=0.1, gamma_value=0.25, cutoff=cutoff)
    return PauliFierzModel(model.K, model.h, 0.1 * np.array([[1, 1], [1, -1]]), model.gamma,
                           cutoff)


@pytest.mark.parametrize("build, cutoffs", [
    (partial(spin_boson, 0.1, 1.0, 0.25), range(8, 15)),
    (_sigma_xz_model, (4, 6)), (_sigma_y_model, (4, 6)),
    *[(b, (2, 3)) for b in REAL_D2]])
def test_comparison_operators_are_zero_density_liouvilleans(build, cutoffs):
    # at density 0 the dressing is the identity, and each Liouvillean is its
    # comparison operator on the doubled truncation: the check builds it so
    for n in cutoffs:
        model = build(cutoff=n)
        for liouvillean, oracle, tol in ((semi_liouvillean, semi_comparison_oracle, 1e-14),
                                         (standard_liouvillean, standard_comparison_oracle, 0.0)):
            got, space = _comparison(liouvillean, model, n)
            want, space_w = oracle(model, n)
            assert space.basis == space_w.basis and got.shape == want.shape
            diff = abs(got - want)
            assert diff.nnz == 0 or diff.max() <= tol, (liouvillean.__name__, n)
            # the same nonzero pattern, so the same exact blocks
            assert ((got != 0) != (want != 0)).nnz == 0


def _complex_three_level_model(cutoff):
    """A complex model: a three-level system with complex K and v, one boson mode."""
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v = 0.1 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return PauliFierzModel((a + a.conj().T) / 2, np.eye(1), v, np.array([[0.25]]), cutoff)


@pytest.mark.parametrize("build", [partial(spin_boson, 0.1, 1.0, 0.25), _sigma_xz_model,
                                   *REAL_D2, _complex_three_level_model])
def test_standard_liouvillean_is_x_minus_jxj_bit_for_bit(build):
    # the oracle builds X on K (x) Gamma and tensors an identity Kbar leg into it; the
    # library assembles X on the system K (x) Kbar with the coupling B_m (x) 1
    model = build(cutoff=3)
    ell, space = standard_liouvillean(model, model.cutoff)
    _, left_creators = pf._doubling(model, model.cutoff)
    free = dgamma(space, np.kron(np.diag([1.0, 0.0]), model.h))
    left = pf._coupled(model.K, model.v, free, left_creators).toarray()
    x = identity_middle_leg(left, model.dim_k, space.dim)
    s = pf._modular_mirror(model.dim_k, space)
    assert np.array_equal(ell.toarray(), x - np.conj(x)[np.ix_(s, s)])


def test_model_without_parity_is_one_block():
    model = _sigma_xz_model(6)
    for n in (4, 5, 6):
        for build in (semi_liouvillean, standard_liouvillean,
                      partial(_comparison, standard_liouvillean)):
            assert len(exact_blocks(build(model, n)[0])) == 1
        # both terms of the semi comparison operator keep the right occupation
        # m, for any model, so its blocks never mix two values of m
        comp, space = _comparison(semi_liouvillean, model, n)
        m = np.tile([occ[1] for occ in space.basis], model.dim_k)
        assert all(len(set(m[idx])) == 1 for idx in exact_blocks(comp))
    assert _oracle_agreement(model, (4, 5, 6)) >= 40


def _parity_labels(model, cutoff):
    """Operator builders with the Z2 label of each basis state of the spin-boson model."""
    space = FockSpace("bose", 2, 2 * cutoff)
    left, right = (np.array([occ[i] for occ in space.basis]) for i in (0, 1))
    spin = np.arange(model.dim_k)[:, None]
    return (
        # the coupling flips the spin and moves one boson: spin + N is kept
        (semi_liouvillean, (spin + left + right) % 2),
        # pi(V) flips the left spin, J pi(V) J the right one, each moving one boson
        (standard_liouvillean, (spin[:, None] + spin + left + right) % 2),
        # H (x) 1 - 1 (x) conj(H) keeps the parity of each leg apart
        (partial(_comparison, standard_liouvillean),
         2 * ((spin[:, None] + left) % 2) + (spin + right) % 2),
    )


def test_spin_boson_blocks_are_parity_sectors():
    model = spin_boson(coupling=0.1, gamma_value=0.25, cutoff=5)
    for build, labels in _parity_labels(model, 5):
        labels = labels.ravel()
        blocks = exact_blocks(build(model, 5)[0])
        assert sorted(set(labels[idx]) for idx in blocks) == [{v} for v in sorted(set(labels))]


def test_zero_cluster_rotated_across_blocks():
    # E_i - E_i = 0 is 18-fold in the standard comparison operator at cutoff
    # 8, split 9 + 9 over two of its exact blocks; a unitary that mixes the
    # two halves must leave the identification alone
    model = spin_boson(coupling=0.1, gamma_value=0.25, cutoff=8)
    want = _by_name(confined_pf_check(model, cutoffs=(8,))["standard_detail"][0])
    comp, space = _comparison(standard_liouvillean, model, 8)
    cluster, holders = [], []
    for idx in exact_blocks(comp):
        vals, vecs = np.linalg.eigh(comp[idx][:, idx].toarray())
        zero = np.abs(vals) <= 1e-4
        if zero.any():
            embedded = np.zeros((comp.shape[0], zero.sum()), dtype=complex)
            embedded[idx] = vecs[:, zero]
            cluster.append(embedded)
            holders.append(idx)
    assert [c.shape[1] for c in cluster] == [9, 9]
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((18, 18)) + 1j * rng.standard_normal((18, 18)))
    cluster = np.hstack(cluster) @ q
    for idx in holders:  # every rotated vector has weight on both blocks
        assert np.linalg.norm(cluster[idx], axis=0).min() > 0.01
    _, states = _labelled_states(model, 8, pf._reference_states(model)[1])
    ell, _ = standard_liouvillean(model, 8)
    vals_l, vecs_l = np.linalg.eigh(ell.toarray())
    dress = np.kron(np.eye(4), _expm_squeezer(space, model.gamma))
    for i in range(3):
        state = states[:, 4 * i]  # E{i}-E{i} in target order
        vec = cluster @ (cluster.conj().T @ state) / np.linalg.norm(state)
        psi = dress @ (vec / np.linalg.norm(vec))
        overlaps = np.abs(vecs_l.conj().T @ (psi / np.linalg.norm(psi))) ** 2
        j = int(np.argmax(overlaps))
        near = np.abs(vals_l - vals_l[j]) <= 1e-4 * max(1.0, abs(vals_l[j]))
        weight = float(overlaps[near].sum())
        dev = abs(float((overlaps[near] * vals_l[near]).sum() / weight))
        assert abs(dev - want[f"E{i}-E{i}"][0]) <= 1e-12
        assert abs(weight - want[f"E{i}-E{i}"][1]) <= 1e-10


@pytest.mark.parametrize("d, n_max", [(1, 6), (2, 3)])
def test_apply_pair_squeezer_matches_dense(rng, d, n_max):
    space = FockSpace("bose", 2 * d, n_max)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    _, u = np.linalg.eigh(a + a.conj().T)
    gamma_one = (u * np.linspace(0.1, 0.4, d)) @ u.conj().T  # non-diagonal for d = 2
    dense = _expm_squeezer(space, gamma_one)
    for legs in (1, 3):
        shape = (legs * space.dim, 4)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x /= np.linalg.norm(x, axis=0)
        want = np.kron(np.eye(legs), dense) @ x
        assert np.max(np.abs(apply_pair_squeezer(space, gamma_one, x) - want)) <= 1e-12
        assert np.max(np.abs(apply_pair_squeezer(space, gamma_one, x[:, 0]) - want[:, 0])) <= 1e-12
    with pytest.raises(ValueError):
        apply_pair_squeezer(space, gamma_one, np.ones(space.dim + 1))


def _count_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def _clusters(values, tol):
    """(start, stop) of each run of values within tol (relative) of its first member."""
    start = 0
    while start < len(values):
        stop = start + 1
        while stop < len(values) and (abs(values[stop] - values[start])
                                      <= tol * max(1.0, abs(values[start]))):
            stop += 1
        yield start, stop
        start = stop


def _rotating_solvers(monkeypatch, rng):
    """Make eigh and svd return every degenerate eigenspace, and every degenerate
    singular subspace, in a random unitary basis.

    eigh rotates the eigenvectors of each cluster of eigenvalues.  svd rotates
    the columns of U and the rows of V* of each cluster of nonzero singular
    values by one unitary, so B = U diag(s) V* stays; the singular vectors of
    the zero singular values, with the columns of U past them, are rotated on
    each side apart.  Returns the eigenvalue multiplicity of each rotated
    space and the shapes of the svd calls.
    """
    eigh, svd = np.linalg.eigh, np.linalg.svd
    sizes, svd_calls = [], []

    def unitary(size):
        q, _ = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        return q

    def rotated_eigh(a, *args, **kwargs):
        w, v = eigh(a, *args, **kwargs)
        v = v.astype(complex)
        for start, stop in _clusters(w, 1e-9):
            if stop - start > 1:
                v[:, start:stop] = v[:, start:stop] @ unitary(stop - start)
                sizes.append(stop - start)
        return w, v

    def rotated_svd(a, *args, **kwargs):
        u, s, vh = svd(a, *args, **kwargs)
        svd_calls.append(a.shape)
        u, vh = u.astype(complex), vh.astype(complex)
        zero = int(np.count_nonzero(s > 1e-9))  # s descends: the zero singular values trail
        for start, stop in _clusters(s[:zero], 1e-9):
            if stop - start > 1:
                q = unitary(stop - start)
                u[:, start:stop] = u[:, start:stop] @ q
                vh[start:stop] = q.conj().T @ vh[start:stop]
                sizes.append(stop - start)
        null, odd_null = u.shape[1] - zero, len(s) - zero
        if null > 1:
            u[:, zero:] = u[:, zero:] @ unitary(null)
            if odd_null:
                vh[zero:] = unitary(odd_null) @ vh[zero:]
            sizes.append(null + odd_null)
        return u, s, vh

    monkeypatch.setattr(np.linalg, "eigh", rotated_eigh)
    monkeypatch.setattr(np.linalg, "svd", rotated_svd)
    return sizes, svd_calls


def test_degenerate_targets_independent_of_eigenbasis(monkeypatch):
    # E_i - E_i = 0 is an 18-fold eigenvalue of one exact block of the
    # standard Liouvillean at cutoff 8 (and 9 + 9 over two comparison
    # blocks); any unitary rotation of each degenerate eigenspace that eigh
    # returns, or of the singular subspaces the mirror SVD reads its
    # eigenvectors or weights from, must leave the identification alone
    model = spin_boson(coupling=0.1, gamma_value=0.25, cutoff=8)
    plain = confined_pf_check(model, cutoffs=(8,))
    rotated_sizes, svd_calls = _rotating_solvers(monkeypatch, np.random.default_rng(5))
    turned = confined_pf_check(model, cutoffs=(8,))
    assert 18 in rotated_sizes
    # the two Liouvillean blocks and the two comparison blocks that S maps onto themselves
    assert len(svd_calls) == 4
    for family in ("semi", "standard"):
        want = _by_name(plain[f"{family}_detail"][0])
        got = _by_name(turned[f"{family}_detail"][0])
        assert want.keys() == got.keys() and None not in want.values()
        for name, (dev, weight) in want.items():
            assert abs(got[name][0] - dev) <= 1e-12
            assert abs(got[name][1] - weight) <= 1e-10
    for i in range(3):
        assert want[f"E{i}-E{i}"][1] >= 0.9999


def every_vector(vals):
    """The _block_spectra reading that keeps every eigenvector of a block."""
    return np.ones(len(vals), dtype=bool)


def _standard_family(model, cutoff):
    """The standard Liouvillean, the comparison operator H (x) 1 - 1 (x) conj(H), the doubled
    space and the modular mirror S on their common coordinates."""
    ell, space = standard_liouvillean(model, cutoff)
    comp, _ = _comparison(standard_liouvillean, model, cutoff)
    return ell, comp, space, pf._modular_mirror(model.dim_k, space)


def _standard_match(model, cutoff, mirror):
    """matched_spectral_deviation of the standard family with the given mirror."""
    ell, comp, space, _ = _standard_family(model, cutoff)
    levels, reference = pf._reference_states(model)
    _, states = _labelled_states(model, cutoff, reference)
    targets = [(f"E{i}-E{j}", float(levels[i] - levels[j]), states[:, 3 * i + j])
               for i in range(3) for j in range(3)]
    dressing = partial(apply_pair_squeezer, space, model.gamma)
    return matched_spectral_deviation(ell, comp, dressing, targets, mirror)


@pytest.mark.parametrize("build", [partial(spin_boson, 0.1, 1.0, 0.25), _sigma_xz_model, *REAL_D2])
def test_modular_mirror_anticommutes_with_standard_operators(build):
    # J = S after complex conjugation, so for a real model J L J = -L reads S L S = -L;
    # L = X - J X J makes it exact for every real model, d > 1 included
    model = build(cutoff=6)
    for n in (3, 5, 6) if model.d == 1 else (2, 3):
        ell, comp, _, s = _standard_family(model, n)
        assert np.array_equal(s[s], np.arange(len(s)))
        for a in (ell, comp):
            assert not np.any((a[s][:, s] + a).data)  # exactly, not to a tolerance
            assert pf._anticommutes(a, s)
        if model.d > 1:  # the d = 1 models: test_mirror_route_matches_plain_route
            plain, mirrored = _standard_match(model, n, None), _standard_match(model, n, s)
            assert plain["unmatched"] == mirrored["unmatched"]
            assert [m[0] for m in plain["matched"]] == [m[0] for m in mirrored["matched"]]
            for want, got in zip(plain["matched"], mirrored["matched"]):
                assert abs(got[1] - want[1]) <= 1e-13 and abs(got[2] - want[2]) <= 1e-13


@pytest.mark.parametrize("build", [partial(spin_boson, 0.1, 1.0, 0.25), _sigma_xz_model])
def test_mirror_route_eigenpairs(build, monkeypatch):
    model = build(cutoff=6)
    ell, comp, _, s = _standard_family(model, 6)
    svd_calls = _count_svd(monkeypatch)
    for a in (ell, comp):
        dense = a.toarray()
        scale = np.linalg.norm(dense, 2)
        spectra = list(pf._block_spectra(a, s, every_vector))
        assert np.array_equal(np.sort(np.concatenate([idx for idx, _, _ in spectra])),
                              np.arange(a.shape[0]))
        for idx, w, v in spectra:
            assert np.all(np.diff(w) >= 0)
            assert np.linalg.norm(v.conj().T @ v - np.eye(len(idx)), 2) <= 1e-12
            assert np.linalg.norm(dense[np.ix_(idx, idx)] @ v - v * w, 2) <= 1e-12 * scale
        got = np.sort(np.concatenate([w for _, w, _ in spectra]))
        want = np.sort(np.concatenate([w for _, w, _ in pf._block_spectra(a, None, every_vector)]))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
    assert svd_calls  # the self-mirrored blocks went through the SVD


@pytest.mark.parametrize("build", [partial(spin_boson, 0.1, 1.0, 0.25), _sigma_xz_model])
def test_mirror_route_matches_plain_route(build):
    model = build(cutoff=6)
    s = _standard_family(model, 6)[3]
    plain, mirrored = _standard_match(model, 6, None), _standard_match(model, 6, s)
    assert plain["unmatched"] == mirrored["unmatched"]
    assert [m[0] for m in plain["matched"]] == [m[0] for m in mirrored["matched"]]
    assert len(plain["matched"]) >= 6
    for want, got in zip(plain["matched"], mirrored["matched"]):
        assert abs(got[1] - want[1]) <= 1e-13 and abs(got[2] - want[2]) <= 1e-13


@pytest.mark.parametrize("build", [partial(spin_boson, 0.1, 1.0, 0.25), _sigma_xz_model, REAL_D2[1]])
def test_mirror_weights_match_plain_eigenvectors(build, monkeypatch):
    # the SVD route reads the weights |v_k* psi|^2 from its factors and forms no
    # eigenvector; summed over each cluster they are the weights on the
    # eigenvectors of one eigh per block
    model = build(cutoff=6)
    ell, comp, _, s = _standard_family(model, 6 if model.d == 1 else 3)
    rng = np.random.default_rng(9)
    svd_calls = _count_svd(monkeypatch)
    for a in (ell, comp):
        psi = rng.standard_normal((a.shape[0], 9)) + 1j * rng.standard_normal((a.shape[0], 9))
        psi /= np.linalg.norm(psi, axis=0)
        plain = list(pf._block_spectra(a, None, every_vector))
        scale = max(np.abs(w).max() for _, w, _ in plain)  # the norm of a
        for (idx, w, weights), (idx_p, w_p, v_p) in zip(pf._block_spectra(a, s, psi), plain,
                                                        strict=True):
            assert np.array_equal(idx, idx_p)
            assert np.max(np.abs(w - w_p)) <= 1e-12 * scale
            want = np.abs(v_p.conj().T @ psi[idx]) ** 2
            # the clusters the check sums over: a 1e-6 gap of the d = 2 comparison
            # operator mixes its eigenvectors at 1e-12
            for start, stop in _clusters(w_p, pf.CLUSTER_TOL):
                assert np.max(np.abs(weights[start:stop].sum(axis=0)
                                     - want[start:stop].sum(axis=0))) <= 1e-12
    assert len(svd_calls) >= 2  # each operator has a block that S maps onto itself


def _confined_peak(cutoff):
    """The tracemalloc peak, in MiB, of the cutoff-14 spin-boson check at one cutoff; every
    standard target must match."""
    model = spin_boson(0.1, 1.0, 0.25, cutoff=14)
    confined_pf_check(spin_boson(cutoff=3), cutoffs=(2,))  # loads scipy's lazy modules
    tracemalloc.start()
    try:
        rep = confined_pf_check(model, cutoffs=(cutoff,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rep["standard_detail"][0]["matched"]) == 9
    return peak / 2**20


def test_confined_check_forms_no_liouvillean_eigenvectors():
    # the standard Liouvillean at cutoff 10 is two blocks of 462 that S maps onto
    # themselves; the weights come from the SVD factors of each block's half-size
    # B, so no 462 x 462 eigenvector matrix, nor its P u and M v halves, is held.
    # With them the check peaked at 8.8 MB; without, at about 3.6 MB
    assert _confined_peak(10) < 6


def test_confined_check_holds_one_block_at_a_time():
    # at cutoff 14 the standard Liouvillean is two blocks of 870 that S maps onto
    # themselves; each block's SVD factors are freed before the next block is
    # solved, and the comparison side keeps only the eigenvectors near a target.
    # Holding every comparison eigenvector and the previous block's factors, the
    # check peaked at 10.8 MiB; now at about 6.8 MiB
    assert _confined_peak(14) < 9


def test_mirror_falls_back_when_it_does_not_anticommute(monkeypatch):
    # the identity is an involution but commutes with L; for the sigma_y model J
    # is antilinear and S alone does not anticommute with its complex L
    model, model_y = spin_boson(coupling=0.1, gamma_value=0.25, cutoff=6), _sigma_y_model(6)
    identity = np.arange(_standard_family(model, 6)[0].shape[0])
    ell_y, comp_y, _, s_y = _standard_family(model_y, 6)
    assert not pf._anticommutes(ell_y, s_y) and not pf._anticommutes(comp_y, s_y)
    svd_calls = _count_svd(monkeypatch)
    for m, mirror in ((model, identity), (model_y, s_y)):
        assert _standard_match(m, 6, mirror) == _standard_match(m, 6, None)
    assert not svd_calls


def test_complex_coupling_matches_real_model():
    model_x = spin_boson(coupling=0.1, gamma_value=0.25, cutoff=8)
    model_y = _sigma_y_model(8)
    ell, _ = standard_liouvillean(model_y, 6)
    assert np.any(ell.toarray().imag)  # the sigma_y model takes the complex route
    rep_x = confined_pf_check(model_x, cutoffs=(6, 8))
    rep_y = confined_pf_check(model_y, cutoffs=(6, 8))
    for family in ("semi", "standard"):
        # eigenvalue rounding is about eps times the operator norm (~30)
        assert np.max(np.abs(np.subtract(rep_x[family], rep_y[family]))) <= 1e-13
        for dx, dy in zip(rep_x[f"{family}_detail"], rep_y[f"{family}_detail"]):
            assert [u[0] for u in dx["unmatched"]] == [u[0] for u in dy["unmatched"]]
    assert [u[0] for u in rep_x["semi_detail"][0]["unmatched"]] == ["E0-1", "E2-2"]


def test_reference_spectrum_built_once(monkeypatch):
    cutoffs_seen = []
    build = pf.hamiltonian

    def counting(model, cutoff=None):
        cutoffs_seen.append(cutoff)
        return build(model, cutoff)

    monkeypatch.setattr(pf, "hamiltonian", counting)
    model = spin_boson(cutoff=3)
    rep = confined_pf_check(model, cutoffs=(2, 3))
    assert cutoffs_seen == [30]
    assert len(rep["semi"]) == len(rep["standard"]) == 2
    targets = difference_targets(model)
    assert [name for name, _ in targets] == [f"E{i}-{j}" for i in range(3) for j in range(3)]


@pytest.mark.parametrize("family", ["semi", "standard"])
@pytest.mark.parametrize("unmatched_at, all_matched", [(3, True), (4, False)])
def test_all_matched_reads_the_last_cutoff(monkeypatch, family, unmatched_at, all_matched):
    # one family leaves a target unmatched at one cutoff of the grid (2, 3, 4);
    # only the last cutoff decides all_matched
    def fake_deviation(model, cutoff, liouvillean, mirror, targets):
        this = "semi" if mirror is None else "standard"
        missed = this == family and cutoff == unmatched_at
        return {"matched": [], "unmatched": [("E0-0", 0.0)] if missed else [],
                "deviation": 0.0}

    monkeypatch.setattr(pf, "_family_deviation", fake_deviation)
    rep = confined_pf_check(spin_boson(cutoff=4), cutoffs=(2, 3, 4))
    assert rep["all_matched"] is all_matched


# The routes criterion 10 took before its operators were assembled and split as
# triplets, kept as oracles: each operator as a chain of sparse sums, each block
# sliced out of the CSR operator and densified complex, then copied real, and
# every eigenvector of the comparison operator kept.  The library must reproduce
# them bit for bit.

ORACLE_MODELS = [partial(spin_boson, 0.1, 1.0, 0.25), _sigma_xz_model, *REAL_D2,
                 _complex_three_level_model]


def four_sum_coupled(system, coupling, free, creators):
    """system (x) 1 + 1 (x) free + A + A*, each a sparse sum, A summed one mode at a time."""
    k, d = coupling.shape[1], len(creators)
    q4 = np.asarray(coupling, dtype=complex).reshape(k, d, k)
    dim = k * creators[0].shape[0]
    inter = scipy.sparse.csr_array((dim, dim), dtype=complex)
    for m, a in enumerate(creators):
        if np.any(q4[:, m, :]):
            inter = inter + _sparse_kron(q4[:, m, :], a)
    eye = partial(scipy.sparse.eye_array, dtype=complex, format="csr")
    return (_sparse_kron(system, eye(free.shape[0])) + _sparse_kron(eye(system.shape[0]), free)
            + inter + inter.conj().T)


def four_sum_semi(model, cutoff):
    """The semi-Liouvillean from four_sum_coupled."""
    rep, left = pf._doubling(model, cutoff)
    return four_sum_coupled(model.K, model.v, rep.standard_liouvillean(model.h), left), rep.space


def four_sum_standard(model, cutoff):
    """X - J X J with X from four_sum_coupled and J X J sliced out of conj(X)."""
    rep, creators = pf._doubling(model, cutoff)
    k, space = model.dim_k, rep.space
    coupling = np.einsum("imj,ab->iamjb", model.v.reshape(k, model.d, k), np.eye(k))
    x = four_sum_coupled(np.kron(model.K, np.eye(k)), coupling.reshape(k * k * model.d, k * k),
                         dgamma(space, np.kron(np.diag([1.0, 0.0]), model.h)), creators)
    s = pf._modular_mirror(k, space)
    return x - x.conj()[s][:, s], space


def sliced_mirrored_vectors(chart, u, vh):
    """Every eigenvector of _mirrored_svd, written into one n x n array."""
    fixed, first, partner = chart
    nf, m = len(fixed), len(first)
    half = np.sqrt(0.5)
    vecs = np.empty((nf + 2 * m, nf + 2 * m), dtype=np.result_type(u, vh))
    neg, null, pos = vecs[:, :m], vecs[:, m:m + nf], vecs[:, m + nf:][:, ::-1]
    neg[fixed] = pos[fixed] = u[:nf, :m] * half
    null[fixed] = u[:nf, m:]
    pu, mv = u[nf:] * half, vh.conj().T * half
    neg[first] = pos[partner] = (pu[:, :m] - mv) * half
    neg[partner] = pos[first] = (pu[:, :m] + mv) * half
    null[first] = null[partner] = pu[:, m:]
    return vecs


def sliced_block_spectra(a, mirror, probe):
    """_block_spectra with each block sliced out of the CSR operator; probe None keeps
    every eigenvector."""
    a = scipy.sparse.csr_array(a)
    blocks = exact_blocks(a)
    mirrored = (mirror is not None and np.array_equal(mirror[mirror], np.arange(a.shape[0]))
                and not np.any((a[mirror][:, mirror] + a).data))
    owner = np.empty(a.shape[0], dtype=int)
    for b, idx in enumerate(blocks):
        owner[idx] = b
    held = {}
    for b, idx in enumerate(blocks):
        image = owner[mirror[idx[0]]] if mirrored else None
        if image == b:
            chart = pf._mirror_chart(np.searchsorted(idx, mirror[idx]))
            block = a[idx][:, idx].tocoo()
            block.data = pf._real_if_exact(block.data)
            vals, u, vh = pf._mirrored_svd(block, chart)
            yield idx, vals, (sliced_mirrored_vectors(chart, u, vh) if probe is None
                              else pf._mirrored_weights(chart, u, vh, probe[idx]))
        elif image is not None and image < b:
            src, vals, vecs = held.pop(b)
            rows = np.searchsorted(src, mirror[idx])
            if probe is None:
                yield idx, -vals[::-1], vecs[rows, ::-1]
            else:
                yield idx, -vals[::-1], pf._weights(vecs, probe[idx[np.argsort(rows)]])[::-1]
        else:
            vals, vecs = np.linalg.eigh(pf._real_if_exact(a[idx][:, idx].toarray()))
            if image is not None:
                held[image] = (idx, vals, vecs)
            yield idx, vals, (vecs if probe is None else pf._weights(vecs, probe[idx]))


def every_vector_match(liouvillean, comparison, dressing, targets, mirror):
    """matched_spectral_deviation holding every eigenvector of the comparison operator."""
    entries, located, chosen = [], [], []
    blocks = list(sliced_block_spectra(comparison, mirror, None))
    vals_d = np.concatenate([vals for _, vals, _ in blocks])
    owner = np.repeat(np.arange(len(blocks)), [len(vals) for _, vals, _ in blocks])
    column = np.concatenate([np.arange(len(vals)) for _, vals, _ in blocks])
    for name, tgt, state in targets:
        i = int(np.argmin(np.abs(vals_d - tgt)))
        if abs(vals_d[i] - tgt) > 1e-6 + 1e-3 * abs(tgt):
            entries.append((name, "target missing from comparison spectrum"))
            continue
        vec = np.zeros(comparison.shape[0], dtype=complex)
        members = pf._cluster(vals_d, i)
        size = np.linalg.norm(state)
        for b in np.unique(owner[members]):
            idx, _, vecs = blocks[b]
            sub = vecs[:, column[members & (owner == b)]]
            vec[idx] = sub @ pf._adjoint_product(sub, state[idx]) / (size or 1.0)
        captured = float(np.vdot(vec, vec).real)
        if captured < pf.OVERLAP_MIN:
            entries.append((name, f"labelled state captured {captured:.3f}"))
            continue
        entries.append((name, len(chosen)))
        located.append(tgt)
        chosen.append(vec / np.linalg.norm(vec))
    results = []
    if chosen:
        psi = dressing(np.stack(chosen, axis=1))
        psi = psi / np.linalg.norm(psi, axis=0)
        spectra = [(vals, w) for _, vals, w in sliced_block_spectra(liouvillean, mirror, psi)]
        vals_l = np.concatenate([vals for vals, _ in spectra])
        overlaps = np.concatenate([ov for _, ov in spectra])
        for tgt, col in zip(located, overlaps.T):
            cluster = pf._cluster(vals_l, int(np.argmax(col)))
            weight = float(col[cluster].sum())
            if weight < pf.OVERLAP_MIN:
                results.append(f"best overlap {weight:.3f}")
                continue
            matched_val = float((col[cluster] * vals_l[cluster]).sum() / weight)
            results.append((float(abs(matched_val - tgt)), weight))
    out = {"matched": [], "unmatched": [], "deviation": 0.0}
    for name, entry in entries:
        if isinstance(entry, int):
            entry = results[entry]
        if isinstance(entry, str):
            out["unmatched"].append((name, entry))
        else:
            out["matched"].append((name,) + entry)
            out["deviation"] = max(out["deviation"], entry[0])
    return out


def _same_csr(got, want):
    """Bit for bit the same values on the same sparsity pattern, got in canonical form."""
    want = want.copy()
    want.sort_indices()  # slicing by the mirror leaves the oracle's rows unsorted
    return got.has_canonical_format and all(np.array_equal(getattr(got, f), getattr(want, f))
                                            for f in ("indptr", "indices", "data"))


@pytest.mark.parametrize("build", ORACLE_MODELS)
def test_operators_match_four_sum_oracle_bit_for_bit(build):
    model = build(cutoff=3)
    space = FockSpace("bose", model.d, 3)
    want_h = four_sum_coupled(model.K, model.v, dgamma(space, model.h), creators(space))
    assert np.array_equal(dense(hamiltonian(model, 3)[0]), want_h.toarray())
    assert _same_csr(pf._coupled(model.K, model.v, dgamma(space, model.h), creators(space)), want_h)
    for m in (model, dataclasses.replace(model, gamma=np.zeros_like(model.h))):
        assert _same_csr(semi_liouvillean(m, 3)[0], four_sum_semi(m, 3)[0])
        assert _same_csr(standard_liouvillean(m, 3)[0], four_sum_standard(m, 3)[0])


def _assert_same_spectra(got, want):
    for (idx, vals, x), (idx_w, vals_w, x_w) in zip(got, want, strict=True):
        assert np.array_equal(idx, idx_w) and np.array_equal(vals, vals_w)
        assert x.dtype == x_w.dtype and np.array_equal(x, x_w)


@pytest.mark.parametrize("build, cutoff", [(partial(spin_boson, 0.1, 1.0, 0.25), 4),
                                           (_sigma_xz_model, 4), *[(b, 2) for b in REAL_D2],
                                           (_complex_three_level_model, 3)])
def test_block_spectra_match_sliced_blocks_bit_for_bit(build, cutoff):
    # both routes, plain eigh and the mirror's SVD, on all four operators, each against
    # the oracle operator split by slicing; the vector reading keeps every column, or
    # those near some differences of the levels of H
    model = build(cutoff=cutoff)
    zero = dataclasses.replace(model, gamma=np.zeros_like(model.h))
    s = pf._modular_mirror(model.dim_k, pf._doubling(model, cutoff)[0].space)
    levels = np.linalg.eigvalsh(dense(hamiltonian(model, cutoff)[0]))[:3]
    near = partial(pf._near_targets, [levels[i] - levels[j] for i in range(3) for j in range(3)])
    rng = np.random.default_rng(11)
    routes = 0
    for m in (model, zero):
        std, std_oracle = standard_liouvillean(m, cutoff)[0], four_sum_standard(m, cutoff)[0]
        for a, want, mirror in ((semi_liouvillean(m, cutoff)[0], four_sum_semi(m, cutoff)[0], None),
                                (std, std_oracle, None), (std, std_oracle, s)):
            routes += pf._anticommutes(a, mirror)
            psi = rng.standard_normal((a.shape[0], 9)) + 1j * rng.standard_normal((a.shape[0], 9))
            _assert_same_spectra(pf._block_spectra(a, mirror, psi),
                                 sliced_block_spectra(want, mirror, psi))
            every = list(sliced_block_spectra(want, mirror, None))
            _assert_same_spectra(pf._block_spectra(a, mirror, every_vector), every)
            _assert_same_spectra(pf._block_spectra(a, mirror, near),
                                 [(idx, vals, vecs[:, near(vals)]) for idx, vals, vecs in every])
    # every real model takes the mirror route on both standard operators
    assert routes == (0 if build is _complex_three_level_model else 2)


@pytest.mark.parametrize("build, cutoffs", [
    (partial(spin_boson, 0.1, 1.0, 0.25), (6, 8)), (_sigma_xz_model, (4,)),
    *[(b, (2,)) for b in REAL_D2], (_complex_three_level_model, (3,))])
def test_confined_check_matches_parent_routes_bit_for_bit(build, cutoffs, monkeypatch):
    # at cutoff 8 the spin-boson zero cluster E_i - E_i spans two comparison blocks
    # (test_zero_cluster_rotated_across_blocks), and the check matches it
    model = build(cutoff=max(cutoffs))
    reference = pf._reference_states(model)
    monkeypatch.setattr(pf, "_reference_states", lambda _: reference)  # H at cutoff 30, once
    got = confined_pf_check(model, cutoffs)
    monkeypatch.setattr(pf, "_coupled", four_sum_coupled)
    monkeypatch.setattr(pf, "standard_liouvillean", four_sum_standard)
    monkeypatch.setattr(pf, "matched_spectral_deviation", every_vector_match)
    assert confined_pf_check(model, cutoffs) == got
    if build is ORACLE_MODELS[0]:
        assert _by_name(got["standard_detail"][-1])["E0-E0"] is not None


def test_comparison_keeps_every_cluster_member_a_target_reads():
    # the target 1 finds its nearest eigenvalue 1.001 inside its window 1.001e-3, and the
    # cluster of 1.001 reaches 1.00109, outside that window; the kept comparison columns
    # must still hold it, or the projection reads the wrong eigenvector
    q, _ = np.linalg.qr(np.random.default_rng(2).standard_normal((3, 3)))
    comp = q @ np.diag([1.001, 1.00109, 5.0]) @ q.T
    assert len(exact_blocks(comp)) == 1
    targets = [("t", 1.0, (q[:, 0] + q[:, 1]) / np.sqrt(2))]
    want = every_vector_match(comp, comp, lambda x: x, targets, None)
    assert matched_spectral_deviation(comp, comp, lambda x: x, targets, None) == want
    assert want["matched"][0][1] > 0.001 + 4e-5  # the far member carries half the weight
