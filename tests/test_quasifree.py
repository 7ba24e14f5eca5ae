import math

import numpy as np
import pytest
import scipy.linalg

from fockforge.fock import FockSpace
from fockforge.ops import DoubledVector, field, gaussian_vector
from fockforge.quasifree import (CovarianceData, DegenerateOmegaError, NonPositiveEtaError,
                                 OddKernelError, aw_covariance, npoint_function,
                                 reconstruction_defect, reduce_covariance, verify_quasifree,
                                 wick_npoint)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


@pytest.fixture
def rng():
    return np.random.default_rng(5)


def test_wick_two_point_and_odd():
    tp = {("a", "b"): 1 + 2j}

    def two_point(x, y):
        return tp.get((x, y), tp.get((y, x), 0.5))

    assert wick_npoint(two_point, ["a", "b"], "bose") == 1 + 2j
    assert wick_npoint(two_point, ["a", "b", "a"], "bose") == 0.0


def test_wick_four_point_structure(rng):
    vals = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))

    def two_point(i, j):
        return vals[i, j]

    got = wick_npoint(two_point, [0, 1, 2, 3], "bose")
    want = vals[0, 1] * vals[2, 3] + vals[0, 2] * vals[1, 3] + vals[0, 3] * vals[1, 2]
    assert got == pytest.approx(want)
    got_f = wick_npoint(two_point, [0, 1, 2, 3], "fermi")
    want_f = vals[0, 1] * vals[2, 3] - vals[0, 2] * vals[1, 3] + vals[0, 3] * vals[1, 2]
    assert got_f == pytest.approx(want_f)


def test_wick_multilinear(rng):
    vals = rng.standard_normal((5, 5))

    def two_point(i, j):
        return vals[i % 5, j % 5]

    base = wick_npoint(two_point, [0, 1, 2, 3], "fermi")

    def scaled(i, j):
        s = 0.7 if 0 in (i, j) else 1.0
        t = 0.7 if i == 0 and j == 0 else 1.0
        return vals[i % 5, j % 5] * (0.7 if i == 0 else 1.0) * (0.7 if j == 0 else 1.0)

    assert wick_npoint(scaled, [0, 1, 2, 3], "fermi") == pytest.approx(0.7 * base)


def double_factorial(n: int) -> int:
    """n!! with the empty-product convention for n <= 0: the number of pairings is (2m-1)!!."""
    return math.prod(range(n, 0, -2))


@pytest.mark.parametrize("n", range(13))
def test_wick_sum_identities(n):
    """The bosonic sum of all-ones entries counts the (n-1)!! pairings, the fermionic
    sum is the Pfaffian (Pf(A)^2 = det A, Pf of the standard symplectic matrix 1),
    and an odd list sums to exactly 0 for both statistics."""
    labels = list(range(n))
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = a - a.T
    if n % 2:
        assert wick_npoint(a.item, labels, "bose") == 0
        assert wick_npoint(a.item, labels, "fermi") == 0
        return
    assert wick_npoint(lambda i, j: 1.0, labels, "bose") == double_factorial(n - 1)
    if n <= 8:
        pf = wick_npoint(a.item, labels, "fermi")
        det = np.linalg.det(a)
        assert abs(pf**2 - det) <= 1e-12 * abs(det)
        symplectic = np.kron(np.eye(n // 2), J2)
        assert wick_npoint(symplectic.item, labels, "fermi") == 1


def test_vacuum_is_quasifree():
    sp = FockSpace("fermi", 3)
    rng = np.random.default_rng(0)
    ys = [DoubledVector.real_point(rng.standard_normal(3) + 1j * rng.standard_normal(3))
          for _ in range(4)]
    rep = verify_quasifree(sp, sp.vacuum(), ys)
    assert rep["max"] <= 1e-12


def test_fermi_gaussian_is_quasifree(rng):
    sp = FockSpace("fermi", 3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = (a - a.T) / 2
    om = gaussian_vector(sp, c)
    ys = [DoubledVector.real_point(rng.standard_normal(3) + 1j * rng.standard_normal(3))
          for _ in range(4)]
    rep = verify_quasifree(sp, om, ys)
    assert rep["max"] <= 1e-10


def test_bose_number_state_not_quasifree():
    sp = FockSpace("bose", 1, 12)
    one = sp.creation(0) @ sp.vacuum()
    y = DoubledVector.real_point(np.array([1.0 / np.sqrt(2)]))
    # phi^4 moment is 15/4 but the pairing sum gives 27/4
    phi = field(sp, y)
    four = npoint_function(one, [phi] * 4).real
    two = npoint_function(one, [phi] * 2).real
    assert four == pytest.approx(15 / 4)
    assert abs(four - 3 * two**2) == pytest.approx(3.0)
    rep = verify_quasifree(sp, one, [y])
    assert rep["max"] > 0.1


def test_fermi_non_slater_not_quasifree(rng):
    sp = FockSpace("fermi", 4)
    vec = sp.creation(0) @ sp.creation(1) @ sp.vacuum() \
        + sp.creation(2) @ sp.creation(3) @ sp.vacuum() \
        + 0.5 * sp.creation(0) @ sp.creation(2) @ sp.vacuum()
    vec = vec / np.linalg.norm(vec)
    ys = [DoubledVector.real_point(np.eye(4)[k]) for k in range(4)]
    rep = verify_quasifree(sp, vec, ys)
    assert rep["max"] > 0.1


def test_covariance_validation():
    with pytest.raises(ValueError):
        CovarianceData("bose", np.array([[1.0, 0.5], [0.0, 1.0]]), J2)
    with pytest.raises(NonPositiveEtaError):
        CovarianceData("bose", -np.eye(2), 0.1 * J2)
    # a kernel, and a negative eigenvalue within the tolerance 1e-10 * max|eta|, pass;
    # a clearly negative one does not
    zero = np.zeros((2, 2))
    CovarianceData("bose", np.diag([1.0, 0.0]), zero)
    CovarianceData("bose", np.diag([4.0, -1e-10]), zero)
    with pytest.raises(NonPositiveEtaError):
        CovarianceData("bose", np.diag([1.0, -1e-6]), zero)
    with pytest.raises(ValueError):
        # omega too large against eta: Cauchy-Schwarz bound fails
        CovarianceData("bose", 0.1 * np.eye(2), J2)


def test_covariance_singular_eta():
    # omega must vanish on Ker eta: y1 = e1, y2 = e2 give |y1 omega y2| = 5 against a bound of 0
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        CovarianceData("bose", np.diag([1.0, 0.0]), 5 * J2)
    # on the range of eta the whitened bound applies: 2 J2 meets it, 2.1 J2 does not
    eta = np.diag([1.0, 1.0, 0.0, 0.0])
    CovarianceData("bose", eta, scipy.linalg.block_diag(2 * J2, np.zeros((2, 2))))
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        CovarianceData("bose", eta, scipy.linalg.block_diag(2.1 * J2, np.zeros((2, 2))))


def test_reduce_bose_fock():
    red = reduce_covariance(CovarianceData("bose", 0.5 * np.eye(2), J2))
    assert np.linalg.norm(red.density) <= 1e-12
    assert np.linalg.norm(red.j @ red.j + np.eye(2 * red.complex_dim)) <= 1e-12


def test_reduce_bose_thermal_scalar_oracle():
    # eta = coth(beta/2)/2 with the canonical omega: the polar-part oracle
    # gives |mu| = tanh(beta/2), so the recovered density is 2/(e^beta - 1)
    beta = 1.3
    cov = CovarianceData("bose", 0.5 / np.tanh(beta / 2) * np.eye(2), J2)
    red = reduce_covariance(cov)
    vals = np.linalg.eigvals(red.density).real
    assert np.allclose(vals, 2.0 / (np.exp(beta) - 1.0), atol=1e-10)


def test_reduce_bose_degenerate_omega():
    with pytest.raises(DegenerateOmegaError):
        reduce_covariance(CovarianceData("bose", np.eye(2), np.zeros((2, 2))))


def test_reduce_bose_reconstruction(rng):
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T / 2
    cov = aw_covariance(rho)
    red = reduce_covariance(cov)
    assert reconstruction_defect(cov, red, rng) <= 1e-9
    spec_in = np.sort(np.linalg.eigvalsh(rho))
    spec_out = np.sort(np.linalg.eigvals(red.density).real)
    assert np.max(np.abs(spec_in - spec_out)) <= 1e-8


def test_reduce_fermi_fock_and_tracial():
    red = reduce_covariance(CovarianceData("fermi", np.eye(2), 2 * J2))
    assert np.linalg.norm(red.density) <= 1e-12
    red_tr = reduce_covariance(CovarianceData("fermi", np.eye(2), np.zeros((2, 2))))
    assert np.allclose(np.linalg.eigvals(red_tr.density).real, 0.5)


def test_reduce_fermi_mixed_kernel(rng):
    om = np.zeros((4, 4))
    om[:2, :2] = 0.9 * J2
    cov = CovarianceData("fermi", np.eye(4), om)
    red = reduce_covariance(cov)
    vals = np.sort(np.linalg.eigvals(red.density).real)
    assert np.allclose(vals, [(1 - 0.45) / 2, 0.5], atol=1e-10)
    assert reconstruction_defect(cov, red, rng) <= 1e-9
    assert 0.0 <= vals.min() and vals.max() <= 0.5 + 1e-12


def _fermi_covariance(rng, d: int, kernel_dim: int):
    """A random eta > 0 and an omega whose whitened form has singular values
    0.1-0.9 off a kernel of real dimension kernel_dim; returns the pair and
    the density spectrum (1 - s)/2 per pair, 1/2 per kernel pair."""
    b = rng.standard_normal((2 * d, 2 * d))
    eta = b @ b.T / (2 * d) + 0.5 * np.eye(2 * d)
    s = rng.uniform(0.1, 0.9, size=d - kernel_dim // 2)
    om_t = np.zeros((2 * d, 2 * d))
    om_t[:2 * len(s), :2 * len(s)] = np.kron(np.diag(s), J2)
    q, _ = np.linalg.qr(rng.standard_normal((2 * d, 2 * d)))
    g = scipy.linalg.sqrtm(eta).real
    om = 2 * g @ q @ om_t @ q.T @ g
    spectrum = np.concatenate([(1 - s) / 2, np.full(kernel_dim // 2, 0.5)])
    return CovarianceData("fermi", eta, (om - om.T) / 2), np.sort(spectrum)


def _bose_covariance(rng, d: int):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T / 2
    return aw_covariance(rho), np.sort(np.linalg.eigvalsh(rho))


@pytest.mark.parametrize("kind, d, kernel_dim", [("bose", d, 0) for d in (1, 3, 5)]
                         + [("fermi", d, k) for d in (2, 3, 4) for k in (0, 2, 4)])
def test_reduce_chart(rng, kind, d, kernel_dim):
    cov, spectrum = (_bose_covariance(rng, d) if kind == "bose"
                     else _fermi_covariance(rng, d, kernel_dim))
    red = reduce_covariance(cov)
    assert red.complex_dim == d
    assert np.linalg.norm(red.j @ red.j + np.eye(2 * d)) <= 1e-10
    for y in rng.standard_normal((4, 2 * d)):
        t = red.to_complex(y)
        assert np.linalg.norm(red.to_complex(-red.j @ y) - 1j * t) <= 1e-10 * np.linalg.norm(t)
    assert np.allclose(np.sort(np.linalg.eigvals(red.density).real), spectrum, atol=1e-10)
    assert reconstruction_defect(cov, red, rng) <= 1e-10


def test_reduce_fermi_odd_kernel():
    # odd real dimension forces an odd commutator kernel
    om = np.zeros((7, 7))
    om[:4, :4] = np.kron(np.eye(2), J2)
    with pytest.raises(OddKernelError):
        reduce_covariance(CovarianceData("fermi", np.eye(7), om))


def test_measured_two_point_matches_wick_input(rng):
    # operator n-point of the AW vacuum equals the wick sum of the
    # measured two-point function on a doubled fermionic space
    from fockforge.thermal import DoubledRep, ThermalParams

    rep = DoubledRep(ThermalParams("fermi", np.array([[0.6]])))
    vac = rep.space.vacuum()
    zs = [np.array([1.0]), np.array([1j]), np.array([0.7 + 0.7j])]
    fields = [rep.field_left(z) for z in zs]

    def two_point(i, j):
        return np.vdot(vac, fields[i] @ fields[j] @ vac)

    idx = [0, 1, 2, 0]
    ops = fields[0] @ fields[1] @ fields[2] @ fields[0]
    direct = np.vdot(vac, ops @ vac)
    assert wick_npoint(two_point, idx, "fermi") == pytest.approx(direct, abs=1e-12)
