import json

import numpy as np
import pytest
import scipy.linalg

from fockforge import cli, ops
from fockforge.linalg import (NonSquareError, _self_adjoint, dense, exp_herm, ordered_products,
                             polar_decompose, require_square, sqrtm_psd)
from fockforge.thermal import ThermalParams


def test_require_square_rejects_non_square():
    with pytest.raises(NonSquareError):
        require_square(np.zeros((2, 3)))


def test_ordered_products_by_mask():
    rng = np.random.default_rng(3)
    a, b, c = (rng.standard_normal((3, 3)) for _ in range(3))
    x = rng.standard_normal(3)
    want = [x, a @ x, b @ x, a @ b @ x, c @ x, a @ c @ x, b @ c @ x, a @ b @ c @ x]
    got = ordered_products([a, b, c], x)
    assert len(got) == 8
    assert all(np.allclose(g, w, rtol=1e-13, atol=1e-13) for g, w in zip(got, want))
    assert len(ordered_products([], x)) == 1


def test_polar_examples():
    u, pos = polar_decompose(np.diag([2.0, -3.0]))
    assert np.allclose(u, np.diag([1.0, -1.0]))
    assert np.allclose(pos, np.diag([2.0, 3.0]))
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    u2, pos2 = polar_decompose(rot)
    assert np.allclose(u2, rot) and np.allclose(pos2, np.eye(2))


def test_polar_reconstruction_and_positivity():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, pos = polar_decompose(a)
    assert np.linalg.norm(u @ pos - a, 2) <= 1e-10
    assert np.linalg.norm(pos - pos.conj().T, 2) <= 1e-10
    assert np.linalg.eigvalsh(pos).min() >= -1e-10


def test_polar_kernel_partial_isometry():
    a = np.diag([2.0, 0.0, 1.0])
    u, pos = polar_decompose(a)
    # initial space excludes the kernel direction
    assert np.allclose(u @ u.T @ u, u)
    assert abs(u[1, 1]) <= 1e-12
    assert np.allclose(u @ pos, a)


def test_sqrtm_psd():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = a @ a.conj().T
    s = sqrtm_psd(p)
    assert np.linalg.norm(s @ s - p, 2) <= 1e-10 * np.linalg.norm(p, 2)
    with pytest.raises(ValueError):
        sqrtm_psd(np.diag([1.0, -1.0]))


def expi_herm(a) -> np.ndarray:
    """exp(i a) through eigh: the route of linalg.expi_herm at 4c56e7e, kept as an oracle."""
    w, v = np.linalg.eigh(dense(a))
    return (v * np.exp(1j * w)) @ v.conj().T


@pytest.mark.parametrize("model", [{}, {"d": 2, "cutoff": 8}])
def test_exp_herm_keeps_the_weyl_operators_of_verify_ccr_bit_for_bit(monkeypatch, model):
    calls = []

    def recorded(a, z):
        calls.append((a, z, exp_herm(a, z)))
        return calls[-1][2]

    monkeypatch.setattr(ops, "exp_herm", recorded)
    cli.task_verify_ccr(model, np.random.default_rng(42))
    assert len(calls) == 3
    for a, z, out in calls:
        assert z == 1j
        assert np.array_equal(out, expi_herm(a))


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_exp_herm_matches_pade_expm(dim):
    rng = np.random.default_rng(20 + dim)
    beta, t = 1.7, 0.3
    for _ in range(5):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        a = (m + m.conj().T) / 2
        for z in (-beta, 1j * (t + 1j * beta), -1j * t):
            ref = scipy.linalg.expm(z * a)
            assert np.linalg.norm(exp_herm(a, z) - ref, 2) <= 1e-13 * np.linalg.norm(ref, 2)


def test_gibbs_rejects_a_non_hermitian_h_before_any_eigh(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("gibbs must check h before eigh reads one triangle of it")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    with pytest.raises(ValueError, match="self-adjoint"):
        ThermalParams.gibbs("fermi", [[1.0, 0.5], [0.0, 1.2]], 1.0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in m - m*
def test_self_adjoint_skips_its_norms_only_on_exactly_hermitian_finite_input(tmp_path,
                                                                            monkeypatch):
    # an exactly Hermitian finite m passes without the two spectral norms; every other m
    # takes them, so the accepted inputs and the failures stay what they were
    norms, norm = [], np.linalg.norm

    def counting(*args):
        norms.append(args)
        return norm(*args)

    monkeypatch.setattr(np.linalg, "norm", counting)
    h = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 0.7]])
    assert np.array_equal(_self_adjoint(h, "h"), h) and not norms
    near = h + np.array([[0.0, 1e-12], [0.0, 0.0]])
    assert np.array_equal(_self_adjoint(near, "h"), near) and len(norms) == 2
    with pytest.raises(ValueError, match="self-adjoint"):
        _self_adjoint(h + np.array([[0.0, 1e-9], [0.0, 0.0]]), "h")
    monkeypatch.undo()
    # inf equals itself, so diag(inf, 0.2) must not pass as Hermitian: its norms fail
    gamma = np.diag([np.inf, 0.2])
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({"schema_version": 1, "task": "thermal", "statistics": "bose",
                                "gamma": np.stack([gamma, np.zeros((2, 2))], axis=-1).tolist()}))
    assert cli.run(str(path), None, "json", seed=42) == 3
