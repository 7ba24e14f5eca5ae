import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from fockforge.fock import FockSpace, dgamma, gamma
from fockforge.linalg import dense
from fockforge.thermal import (DoubledRep, KernelViolationError, ThermalParams,
                               _relative_defect, confined_gibbs, kms_check, tracial_conjugation,
                               tracial_field)


@pytest.fixture
def rng():
    return np.random.default_rng(13)


def kms_check_density(space, gamma_one, h, beta, a, b, t) -> float:
    """Relative trace-cyclicity KMS defect in the irreducible single-space picture."""
    dens = dense(gamma(space, np.asarray(gamma_one, dtype=complex)))
    z = np.trace(dens)
    ham = dgamma(space, np.asarray(h, dtype=complex)).toarray()

    def tau(z):
        # Pade exponentials: a route shared with neither kms_check nor eigh
        return scipy.linalg.expm(1j * z * ham) @ b @ scipy.linalg.expm(-1j * z * ham)

    bz, bt = tau(t + 1j * beta), tau(t)
    lhs = np.trace(dens @ a @ bz) / z
    rhs = np.trace(dens @ bt @ a) / z
    return _relative_defect(lhs, rhs)


def gibbs_expectation(rep, a) -> complex:
    """Tr(Gamma(gamma) a) / Tr Gamma(gamma) on the single space of rep."""
    dens = dense(gamma(rep.space_single, rep.params.gamma))
    return complex(np.trace(dens @ a) / np.trace(dens))


def test_params_validation():
    with pytest.raises(ValueError):
        ThermalParams("bose", np.array([[1.5]]))
    with pytest.raises(ValueError):
        ThermalParams("fermi", np.array([[-0.2]]))
    with pytest.raises(ValueError):
        ThermalParams("bose", np.diag([0.2, 0.5]), h=np.array([[0, 1], [1, 0]], dtype=complex))


def test_density_relations():
    g = np.diag([0.2, 0.5])
    rho = ThermalParams("bose", g).density
    assert np.allclose(rho, np.diag([0.25, 1.0]))
    chi = ThermalParams("fermi", g).density
    assert np.allclose(chi, np.diag([0.2 / 1.2, 0.5 / 1.5]))


def test_aw_two_point_values():
    # rho = 1 corresponds to gamma = 1/2; unit vector gives 2 and 1
    rep = DoubledRep(ThermalParams("bose", np.array([[0.5]])), single_cutoff=8)
    vac = rep.space.vacuum()
    z = np.array([1.0])
    got = np.vdot(vac, rep.annihilate_left(z) @ rep.create_left(z) @ vac)
    assert got == pytest.approx(2.0, abs=1e-10)
    got2 = np.vdot(vac, rep.create_left(z) @ rep.annihilate_left(z) @ vac)
    assert got2 == pytest.approx(1.0, abs=1e-10)


def test_aw_rho_zero_is_fock():
    rep = DoubledRep(ThermalParams("bose", np.zeros((1, 1))), single_cutoff=4)
    z = np.array([0.3 - 0.4j])
    phi = rep.field_left(z)
    w = np.concatenate([z, np.zeros(1)])
    expect = (rep.space.create(w) + rep.space.annihilate(w)) / np.sqrt(2)
    assert np.linalg.norm((phi - expect).toarray(), 2) <= 1e-13


def test_aw_weyl_relation(rng):
    rep = DoubledRep(ThermalParams("bose", np.array([[0.4]])), single_cutoff=8)
    z1 = 0.1 * np.array([1.0 + 0.5j])
    z2 = 0.1 * np.array([-0.6 + 0.2j])
    w1, w2 = rep.weyl_left(z1), rep.weyl_left(z2)
    w12 = rep.weyl_left(z1 + z2)
    phase = np.exp(-0.5j * np.imag(np.vdot(z1, z2)))
    sub = rep.space.sector_projector(rep.space.n_max // 2)
    assert np.linalg.norm(sub @ (w1 @ w2 - phase * w12) @ sub, 2) <= 1e-8


def test_aw_left_right_commute_subcutoff(rng):
    rep = DoubledRep(ThermalParams("bose", np.array([[0.4]])), single_cutoff=6)
    sub = rep.space.sector_projector(rep.space.n_max - 1)
    for _ in range(3):
        z1 = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        z2 = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        comm = rep.field_left(z1) @ rep.field_right(z2) \
            - rep.field_right(z2) @ rep.field_left(z1)
        assert np.linalg.norm(sub @ comm @ sub, 2) <= 1e-12


@pytest.mark.parametrize("kind, g, cutoff, scale", [
    ("bose", np.array([[0.4]]), 6, np.sqrt(2)),
    ("fermi", np.diag([0.7, 0.2]), None, 1.0),
])
def test_create_right_fields_and_left_commutation(rng, kind, g, cutoff, scale):
    rep = DoubledRep(ThermalParams(kind, g), single_cutoff=cutoff)
    # bosonic products are exact only below the top sector; fermionic ones everywhere
    keep = rep.space.sector_mask(rep.space.n_max - 1 if kind == "bose" else rep.space.n_max)
    window = np.ix_(keep, keep)
    for _ in range(3):
        z1 = rng.standard_normal(rep.d) + 1j * rng.standard_normal(rep.d)
        z2 = rng.standard_normal(rep.d) + 1j * rng.standard_normal(rep.d)
        up = rep.create_right(z2)
        assert np.linalg.norm((up + up.conj().T - scale * rep.field_right(z2)).toarray(), 2) \
            <= 1e-12
        # the Lambda twist puts the fermionic right fields in the commutant
        # of the left ones, so both statistics commute here
        left = rep.create_left(z1)
        assert np.linalg.norm((left @ up - up @ left)[window].toarray(), 2) <= 1e-12


def test_aw_weyl_conjugation(rng):
    # the antiunitary flips the exponent: J e^{i phi_l} J = e^{-i phi_r}
    rep = DoubledRep(ThermalParams("bose", np.array([[0.3]])), single_cutoff=6)
    j_op, _ = rep.modular_data()
    z = np.array([0.4 - 0.1j])
    lhs = j_op.sandwich(rep.weyl_left(z))
    assert np.linalg.norm(lhs - rep.weyl_right(-z), 2) <= 1e-10


def test_aw_generating_functional():
    params = ThermalParams("bose", np.array([[0.5]]))
    rep = DoubledRep(params, single_cutoff=10)
    z = np.array([0.6 - 0.2j])
    vac = rep.space.vacuum()
    got = np.vdot(vac, rep.weyl_left(z) @ vac)
    rho = params.density
    want = np.exp(-0.25 * np.vdot(z, z) - 0.5 * np.vdot(z, rho @ z))
    assert abs(got - want) <= 1e-8


def test_awy_car_and_left_right(rng):
    rep = DoubledRep(ThermalParams("fermi", np.diag([0.7, 0.2])))
    for _ in range(4):
        z1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        f1, f2 = rep.field_left(z1), rep.field_left(z2)
        want = 2 * np.real(np.vdot(z1, z2)) * np.eye(rep.space.dim)
        assert np.linalg.norm(f1 @ f2 + f2 @ f1 - want, 2) <= 1e-12
        fr = rep.field_right(z2)
        assert np.linalg.norm((f1 @ fr - fr @ f1).toarray(), 2) <= 1e-12


def test_awy_half_density_two_point():
    # chi = 1/2 corresponds to gamma = 1
    rep = DoubledRep(ThermalParams("fermi", np.eye(1)))
    vac = rep.space.vacuum()
    z = np.array([1.0])
    got = np.vdot(vac, rep.annihilate_left(z) @ rep.create_left(z) @ vac)
    assert got == pytest.approx(0.5)


def test_awy_chi_zero_is_fock():
    rep = DoubledRep(ThermalParams("fermi", np.zeros((2, 2))))
    z = np.array([0.2, -0.7j])
    w = np.concatenate([z, np.zeros(2)])
    expect = rep.space.create(w) + rep.space.annihilate(w)
    assert np.linalg.norm((rep.field_left(z) - expect).toarray(), 2) <= 1e-13


def test_modular_data_fermi(rng):
    params = ThermalParams.gibbs("fermi", np.array([[1.0, 0.3], [0.3, 0.5]]), 1.0)
    rep = DoubledRep(params)
    j_op, delta = rep.modular_data()
    delta = dense(delta)
    dim = rep.space.dim
    vac = rep.space.vacuum()
    assert np.linalg.norm(j_op.unitary @ np.conj(j_op.unitary) - np.eye(dim), 2) <= 1e-12
    assert np.linalg.norm(j_op(vac) - vac) <= 1e-13
    assert np.linalg.norm(delta @ vac - vac) <= 1e-12
    for _ in range(3):
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs = j_op.sandwich(rep.field_left(z))
        assert np.linalg.norm(lhs - rep.field_right(z), 2) <= 1e-10
    ell = rep.standard_liouvillean(rep.params.h)
    assert np.linalg.norm(delta - scipy.linalg.expm(-ell.toarray()), 2) \
        <= 1e-9 * np.linalg.norm(delta, 2)


def test_modular_oracle_both_statistics():
    rep_f = DoubledRep(ThermalParams.gibbs("fermi", np.array([[0.8, 0.1], [0.1, 0.3]]), 1.0))
    j_f, delta_f = rep_f.modular_data()
    delta_f = dense(delta_f)
    j_lin, delta_oracle = rep_f.modular_oracle()
    assert np.linalg.norm(delta_oracle - delta_f, 2) <= 1e-7 * np.linalg.norm(delta_f, 2)
    assert np.linalg.norm(j_lin - j_f.unitary, 2) <= 1e-7
    rep_b = DoubledRep(ThermalParams.gibbs("bose", np.array([[1.2]]), 1.0), single_cutoff=6)
    j_b, delta_b = rep_b.modular_data()
    delta_b = dense(delta_b)
    jb_lin, delta_b_oracle = rep_b.modular_oracle()
    assert np.linalg.norm(delta_b_oracle - delta_b, 2) <= 1e-7 * np.linalg.norm(delta_b, 2)
    assert np.linalg.norm(jb_lin - j_b.unitary, 2) <= 1e-7


def test_modular_oracle_fermi_d3():
    # 64 ordered monomials span the left algebra, where the words of length at most 6
    # in its 6 generators number 55,987
    h = np.array([[1.0, 0.3, 0.1], [0.3, 0.6, 0.0], [0.1, 0.0, 0.4]])
    rep = DoubledRep(ThermalParams.gibbs("fermi", h, 1.0))
    j, delta = rep.modular_data()
    delta = dense(delta)
    j_lin, delta_oracle = rep.modular_oracle()
    assert np.linalg.norm(delta_oracle - delta, 2) <= 1e-12 * np.linalg.norm(delta, 2)
    assert np.linalg.norm(j_lin - j.unitary, 2) <= 1e-12


def test_modular_oracle_bose_is_one_mode():
    rep = DoubledRep(ThermalParams("bose", np.diag([0.2, 0.3])), single_cutoff=2)
    with pytest.raises(ValueError, match="d = 1 only"):
        rep.modular_oracle()


def test_modular_polar_consistency():
    rep = DoubledRep(ThermalParams.gibbs("fermi", np.diag([1.0, 0.4]), 1.0))
    j_op, delta = rep.modular_data()
    delta = dense(delta)
    sq = scipy.linalg.sqrtm(delta)
    lhs = j_op.unitary @ np.conj(sq)        # J Delta^{1/2} as an antilinear map
    rhs = np.linalg.inv(sq) @ j_op.unitary  # Delta^{-1/2} J
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-7
    # Delta^{it} commutes with J (antilinearity absorbs the sign of t)
    w, v = np.linalg.eigh(delta)
    for t in (0.3, 1.7):
        delta_it = (v * np.exp(1j * t * np.log(w))) @ v.conj().T
        lhs_t = j_op.unitary @ np.conj(delta_it)
        rhs_t = delta_it @ j_op.unitary
        assert np.linalg.norm(lhs_t - rhs_t, 2) <= 1e-7


def test_modular_tracial_delta_is_one():
    rep = DoubledRep(ThermalParams("fermi", np.eye(2)))
    _, delta = rep.modular_data()
    assert np.linalg.norm(delta - np.eye(rep.space.dim), 2) <= 1e-12


def test_modular_kernel_violation():
    rep = DoubledRep(ThermalParams("fermi", np.diag([0.5, 0.0])))
    with pytest.raises(KernelViolationError):
        rep.modular_operator()


def test_standard_liouvillean(rng):
    h = np.array([[0.9]])
    rep = DoubledRep(ThermalParams.gibbs("bose", h, 1.0), single_cutoff=6)
    ell = rep.standard_liouvillean(rep.params.h).toarray()
    vac = rep.space.vacuum()
    assert np.linalg.norm(ell @ vac) == 0.0
    ev = np.linalg.eigvalsh(ell)
    assert np.max(np.abs(np.sort(ev) + np.sort(-ev)[::-1])) <= 1e-9
    assert not np.any(rep.standard_liouvillean(np.zeros((1, 1))).toarray())
    # dynamics moves the left field by the one-particle phase
    t = 0.37
    w, v = np.linalg.eigh(ell)
    u_t = (v * np.exp(1j * t * w)) @ v.conj().T
    z = np.array([0.5 + 0.1j])
    lhs = u_t @ rep.field_left(z) @ u_t.conj().T
    rhs = rep.field_left(scipy.linalg.expm(1j * t * h) @ z)
    sub = rep.space.sector_projector(rep.space.n_max - 1)
    assert np.linalg.norm(sub @ (lhs - rhs) @ sub, 2) <= 1e-8


def test_kms_trivial_and_match(rng):
    h = np.array([[1.0, 0.2], [0.2, 0.6]], dtype=complex)
    rep = DoubledRep(ThermalParams.gibbs("fermi", h, 1.0))
    eye = np.eye(rep.space.dim)
    assert kms_check(rep, h, 1.0, eye, eye, t=0.4) <= 1e-13
    for beta in (1.0, 4.0, 8.0):
        rep = DoubledRep(ThermalParams.gibbs("fermi", h, beta))
        gens = [rep.create_left(np.eye(2)[k]) for k in range(2)]
        a_op = gens[0] @ gens[1].conj().T + 0.4 * gens[1]
        b_op = gens[1] @ gens[0].conj().T
        assert kms_check(rep, h, beta, a_op, b_op, t=0.2) <= 1e-12


def test_kms_mismatch_witness(rng):
    # the witness pair needs a creation/annihilation imbalance, otherwise
    # the boundary condition is insensitive to the density
    h = np.array([[1.0]])
    beta = 1.0
    for kind, cutoff in (("fermi", None), ("bose", 6)):
        bad = DoubledRep(ThermalParams(kind, scipy.linalg.expm(-2 * beta * h)),
                         single_cutoff=cutoff)
        a_op = bad.annihilate_left(np.eye(1)[0])
        b_op = bad.create_left(np.eye(1)[0])
        assert kms_check(bad, h, beta, a_op, b_op, t=0.1) > 1e-4
        good = DoubledRep(ThermalParams(kind, scipy.linalg.expm(-beta * h)),
                          single_cutoff=cutoff)
        assert kms_check(good, h, beta, good.annihilate_left(np.eye(1)[0]),
                         good.create_left(np.eye(1)[0]), t=0.1) <= 1e-8


def test_kms_mismatch_fails_at_large_beta():
    # at beta = 30 both sides are of order 1e-8 and their gap 3e-9, so only a
    # defect relative to their scale tells exp(-2 beta h) from exp(-beta h)
    h = np.array([[1.0, 0.2], [0.2, 0.7]], dtype=complex)
    beta = 30.0
    e0 = np.eye(2)[0]
    bad = DoubledRep(ThermalParams("fermi", scipy.linalg.expm(-2 * beta * h)))
    assert kms_check(bad, h, beta, bad.annihilate_left(e0), bad.create_left(e0), t=0.3) > 1e-8
    good = DoubledRep(ThermalParams.gibbs("fermi", h, beta))
    assert kms_check(good, h, beta, good.annihilate_left(e0), good.create_left(e0),
                     t=0.3) <= 1e-8


def test_kms_check_exponentiates_only_the_one_particle_generator(monkeypatch):
    eigh_calls = []
    eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        eigh_calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("kms_check must not call scipy.linalg.expm")

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(scipy.linalg, "expm", forbidden)
    for kind, h, cutoff in (("fermi", np.array([[1.0, 0.2], [0.2, 0.6]]), None),
                            ("bose", np.array([[1.0]]), 6)):
        d = h.shape[0]
        rep = DoubledRep(ThermalParams.gibbs(kind, h, 1.0), single_cutoff=cutoff)
        a_op = rep.annihilate_left(np.eye(d)[0])
        b_op = rep.create_left(np.eye(d)[0])
        # ThermalParams.gibbs (exp_herm) and DoubledRep (sqrtm_psd) call eigh themselves
        eigh_calls.clear()
        kms_check(rep, h, 1.0, a_op, b_op, t=0.3)
        assert eigh_calls == [(2 * d, 2 * d)] * 2


def test_kms_check_rejects_a_non_hermitian_h():
    # eigh reads one triangle of k = h (+) -conj h, so an h that is not self-adjoint
    # must be refused, not silently exponentiated as a different matrix
    rep = DoubledRep(ThermalParams.gibbs("fermi", np.eye(2), 1.0))
    e0 = np.eye(2)[0]
    with pytest.raises(ValueError, match="self-adjoint"):
        kms_check(rep, [[1.0, 0.5], [0.0, 1.0]], 1.0, rep.annihilate_left(e0),
                  rep.create_left(e0), t=0.3)


def test_kms_density_oracle(rng):
    h = np.array([[1.0]])
    sp = FockSpace("fermi", 1)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert kms_check_density(sp, scipy.linalg.expm(-h), h, 1.0, a, b, t=0.3) <= 1e-8
    spb = FockSpace("bose", 1, 10)
    ab = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
    bb = rng.standard_normal((11, 11)) + 1j * rng.standard_normal((11, 11))
    assert kms_check_density(spb, scipy.linalg.expm(-h), h, 1.0, ab, bb, t=0.3) <= 1e-8


def test_confined_gibbs_examples():
    spb = FockSpace("bose", 1, 10)
    trace, reference, tail = confined_gibbs(spb, np.array([[0.5]]))
    assert reference == pytest.approx(2.0)
    assert trace == pytest.approx(2.0 - 2.0**-10)
    assert tail == pytest.approx(2.0**-10)
    spf = FockSpace("fermi", 1)
    trace_f, ref_f, tail_f = confined_gibbs(spf, np.array([[0.5]]))
    assert trace_f == pytest.approx(1.5) and abs(tail_f) <= 1e-12
    trace_0, ref_0, _ = confined_gibbs(spf, np.zeros((1, 1)))
    assert trace_0 == pytest.approx(1.0) and ref_0 == pytest.approx(1.0)


def test_confined_gibbs_bose_tail_bound(rng):
    cutoff = 20
    sp = FockSpace("bose", 2, cutoff)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g = a @ a.conj().T
    g = 0.7 * g / np.linalg.eigvalsh(g).max()
    trace, reference, tail = confined_gibbs(sp, g)
    top = np.linalg.eigvalsh(g).max()
    bound = sum((n + 1) * top**n for n in range(cutoff + 1, cutoff + 500)) * 2
    assert 0.0 <= tail <= bound


def test_iota_star_and_theta(rng):
    for kind in ("fermi", "bose"):
        cutoff = None if kind == "fermi" else 4
        params = ThermalParams(kind, np.diag([0.3, 0.15]))
        rep = DoubledRep(params, single_cutoff=cutoff)
        j_op = rep.modular_conjugation()
        dim_s = rep.space_single.dim
        b = rng.standard_normal((dim_s, dim_s)) + 1j * rng.standard_normal((dim_s, dim_s))
        a = rng.standard_normal((dim_s, dim_s)) + 1j * rng.standard_normal((dim_s, dim_s))
        # the identification turns hermitian conjugation into J
        assert np.linalg.norm(rep.iota(b.conj().T) - j_op(rep.iota(b))) <= 1e-12 * np.linalg.norm(b)
        # left and right multiplication become theta_l and theta_r
        assert np.linalg.norm(rep.iota(a @ b) - rep.theta_left(a) @ rep.iota(b)) \
            <= 1e-12 * np.linalg.norm(a @ b)
        assert np.linalg.norm(rep.iota(b @ a.conj().T) - rep.theta_right(a) @ rep.iota(b)) \
            <= 1e-12 * np.linalg.norm(b @ a.conj().T)


def test_theta_fields_match_doubled_operators():
    params = ThermalParams("fermi", np.diag([0.4, 0.1]))
    rep = DoubledRep(params)
    z = np.array([0.6, -0.3 + 0.2j])
    phi_single = rep.space_single.create(z) + rep.space_single.annihilate(z)
    assert np.linalg.norm(rep.theta_left(phi_single) - rep.theta_left_field(z), 2) <= 1e-12
    assert np.linalg.norm(rep.theta_right(phi_single) - rep.theta_right_field(z), 2) <= 1e-12


def test_omega_gamma_trivial_and_fermi_formula():
    rep0 = DoubledRep(ThermalParams("fermi", np.zeros((1, 1))))
    assert np.allclose(rep0.omega_vector(), rep0.space.vacuum())
    assert np.allclose(dense(rep0.r_gamma()), np.eye(rep0.space.dim))
    g = 0.6
    rep = DoubledRep(ThermalParams("fermi", np.array([[g]])))
    om = rep.omega_vector()
    pair_idx = rep.space.indices((1, 1))[0]
    assert om[0] == pytest.approx((1 + g) ** -0.5)
    assert om[pair_idx] == pytest.approx(np.sqrt(g) * (1 + g) ** -0.5)
    assert np.linalg.norm(om) == pytest.approx(1.0)


def test_omega_gamma_matches_gibbs_vectorization(rng):
    params = ThermalParams("fermi", np.diag([0.5, 0.2]))
    rep = DoubledRep(params)
    dens = dense(gamma(rep.space_single, params.gamma))
    vec = rep.iota(scipy.linalg.sqrtm(dens)) / np.sqrt(np.trace(dens).real)
    assert np.linalg.norm(vec - rep.omega_vector()) <= 1e-10


def test_omega_gamma_expectations(rng):
    params = ThermalParams("fermi", np.diag([0.5, 0.2]))
    rep = DoubledRep(params)
    om = rep.omega_vector()
    for _ in range(4):
        dim_s = rep.space_single.dim
        a = rng.standard_normal((dim_s, dim_s)) + 1j * rng.standard_normal((dim_s, dim_s))
        got = np.vdot(om, rep.theta_left(a) @ om)
        assert abs(got - gibbs_expectation(rep, a)) <= 1e-10 * np.linalg.norm(a)


def test_omega_gamma_bose_norm_tail():
    rep = DoubledRep(ThermalParams("bose", np.array([[0.25]])), single_cutoff=12)
    assert abs(np.linalg.norm(rep.omega_vector()) - 1.0) <= 1e-6


def test_omega_gamma_bose_expectations(rng):
    rep = DoubledRep(ThermalParams("bose", np.array([[0.25]])), single_cutoff=10)
    om = rep.omega_vector()
    dim_s = rep.space_single.dim
    for _ in range(3):
        a = rng.standard_normal((dim_s, dim_s)) + 1j * rng.standard_normal((dim_s, dim_s))
        a /= np.linalg.norm(a, 2)
        got = np.vdot(om, rep.theta_left(a) @ om)
        assert abs(got - gibbs_expectation(rep, a)) <= 1e-5


def test_confined_equivalence_fermi():
    params = ThermalParams.gibbs("fermi", np.array([[1.0, 0.2], [0.2, 0.7]]), 1.0)
    rep = DoubledRep(params)
    report = rep.confined_equivalence_report()
    assert report["left_field_residual"] <= 1e-10
    assert report["right_field_residual"] <= 1e-10
    assert report["vacuum_residual"] <= 1e-10
    assert report["liouvillean_residual"] <= 1e-10


@pytest.mark.slow
def test_confined_equivalence_bose_cutoff20():
    params = ThermalParams("bose", np.array([[0.25]]), h=np.array([[1.0]]))
    rep = DoubledRep(params, single_cutoff=20)
    report = rep.confined_equivalence_report()
    assert report["left_field_residual"] <= 1e-6
    assert report["right_field_residual"] <= 1e-6
    assert report["vacuum_residual"] <= 1e-6
    assert report["liouvillean_residual"] <= 1e-8


def test_tracial_fields(rng):
    sp = FockSpace("fermi", 3)
    v1 = rng.standard_normal(3)
    v2 = rng.standard_normal(3)
    l1, l2 = tracial_field(sp, v1), tracial_field(sp, v2)
    r2 = tracial_field(sp, v2, side="right")
    want = 2 * np.dot(v1, v2) * np.eye(sp.dim)
    assert np.linalg.norm(l1 @ l2 + l2 @ l1 - want, 2) <= 1e-12
    assert np.linalg.norm((l1 @ r2 - r2 @ l1).toarray(), 2) <= 1e-12
    vac = sp.vacuum()
    assert np.vdot(vac, l1 @ l2 @ vac) == pytest.approx(np.dot(v1, v2))
    j_op = tracial_conjugation(sp)
    assert np.linalg.norm(j_op.sandwich(l2) - r2, 2) <= 1e-12


def test_tracial_trace_property(rng):
    sp = FockSpace("fermi", 2)
    fields = [tracial_field(sp, np.eye(2)[k]) for k in range(2)]
    vac = sp.vacuum()
    words = [np.eye(sp.dim)]
    for f in fields:
        words += [w @ f for w in words]
    mon2 = [a @ b for a in words for b in words]
    for a in mon2[:8]:
        for b in mon2[:8]:
            lhs = np.vdot(vac, a @ b @ vac)
            rhs = np.vdot(vac, b @ a @ vac)
            assert abs(lhs - rhs) <= 1e-12


def test_right_field_builds_no_dense_lambda():
    # Lambda enters as its signs only: a dense Lambda at dim 4096 alone takes 268 MB
    rep = DoubledRep(ThermalParams("fermi", 0.3 * np.eye(6)))
    assert rep.space.dim == 4096
    z = np.linspace(0.2, 1.0, 6) + 0.1j
    rep.field_right(z)  # fills the creation cache of the doubled space
    tracemalloc.start()
    try:
        rep.field_right(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20
