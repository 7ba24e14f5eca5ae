"""The pair exponentials of Shale's construction: exact-arithmetic
references for the finite series, and a guard that no squeezer or
implementer takes a Pade matrix exponential."""

import math

import numpy as np
import pytest
import scipy.linalg

from fockforge.bogolubov import (degenerate_implementer, metaplectic_pair, mode_pair_swap,
                                 random_blocks, shale_implementer)
from fockforge.fock import FockSpace
from fockforge.linalg import dense
from fockforge.ops import gaussian_vector, squeezer
from fockforge.paulifierz import apply_pair_squeezer
from fockforge.thermal import DoubledRep, ThermalParams

try:
    import mpmath
except ImportError:  # a test extra; only the exact-arithmetic tests need it
    mpmath = None


@pytest.fixture
def mp40():
    if mpmath is None:
        pytest.skip("needs mpmath")
    with mpmath.workdps(40):
        yield


def _obj(a):
    """An object array of mpmath numbers from a float array or an mpmath matrix."""
    if isinstance(a, mpmath.matrix):
        a = a.tolist()
    return np.vectorize(mpmath.mpmathify, otypes=[object])(np.asarray(a, dtype=object))


def _mat(a):
    return mpmath.matrix(np.asarray(a).tolist())


def _creators(space):
    """a*_k exactly, as (target, weight) with a*_k e_i = weight[i] e_target[i]."""
    out = []
    for k in range(space.d):
        target, weight = [0] * space.dim, [0] * space.dim
        for i, occ in enumerate(space.basis):
            if (occ[k] == 0) if space.is_fermi else (sum(occ) < space.n_max):
                target[i] = space.indices(occ[:k] + (occ[k] + 1,) + occ[k + 1:])[0]
                weight[i] = (mpmath.mpf(-1) ** sum(occ[:k]) if space.is_fermi
                             else mpmath.sqrt(occ[k] + 1))
        out.append((target, weight))
    return out


def _raise(op, m):
    out = np.zeros_like(m)
    for i, (t, w) in enumerate(zip(*op)):
        if w:
            out[t] = out[t] + m[i] * w
    return out


def _lower(op, m):
    # the weights are real, so a_k is the transpose of a*_k
    out = np.zeros_like(m)
    for i, (t, w) in enumerate(zip(*op)):
        if w:
            out[i] = m[t] * w
    return out


def _pair(creators, c, m, adjoint=False):
    """a*(c) m, or a(c) m = a*(c)* m, with a*(c) = sum_jk c_jk a*_j a*_k."""
    modes = range(len(creators))
    if adjoint:
        return sum(_lower(creators[k], _lower(creators[j], m)) * mpmath.conj(c[j, k])
                   for j in modes for k in modes)
    return sum(_raise(creators[j], _raise(creators[k], m)) * c[j, k] for j in modes for k in modes)


def _exp(space, apply, m, t):
    """exp(t a) m for a nilpotent pair operator a = apply, the exact finite series."""
    out = term = m
    for k in range(1, space.n_max // 2 + 1):
        term = apply(term) * (mpmath.mpf(t) / k)
        out = out + term
    return out


def _gamma(space, creators, m):
    """Gamma(m): |n> = a*_{k1} ... a*_{kn} Omega / sqrt(prod n_k!) with k1 <= ... <= kn
    goes to the same product of the a*(m e_k)."""
    out = _obj(np.zeros((space.dim, space.dim)))
    for j, occ in enumerate(space.basis):
        v = _obj(np.eye(space.dim)[:, 0])
        for k in reversed(range(space.d)):
            for _ in range(occ[k]):
                v = sum(_raise(creators[i], v) * m[i, k] for i in range(space.d))
        out[:, j] = v / mpmath.sqrt(math.prod(math.factorial(n) for n in occ))
    return out


def _sandwich(space, creators, left, mid, right, t):
    """exp(t a*(left)) mid exp(-t a(right)), applied to the identity."""
    x = _exp(space, lambda m: _pair(creators, right, m, adjoint=True), _obj(np.eye(space.dim)), -t)
    return _exp(space, lambda m: _pair(creators, left, m), mid.dot(x), t)


def _exact_squeezer(space, c):
    creators = _creators(space)
    cm = _mat(c)
    sign = 1 if space.is_fermi else -1
    g = mpmath.eye(space.d) + sign * cm * cm.H
    mid = _gamma(space, creators, _obj(mpmath.sqrtm(g)))
    pref = mpmath.re(mpmath.det(g)) ** mpmath.mpf(-sign / 4)
    return _sandwich(space, creators, _obj(c), mid, _obj(c), -0.5) * pref


def _exact_implementer(space, blocks):
    creators = _creators(space)
    p, q = _mat(blocks.p), _mat(blocks.q)
    mid = _gamma(space, creators, _obj(p.H ** -1))
    s = blocks.sign  # +1 fermi, -1 bose
    pref = abs(mpmath.det(p * p.H)) ** mpmath.mpf(s / 4)
    c, d = _obj(p ** -1 * q), _obj(q * p.H.T ** -1)
    return _sandwich(space, creators, d, mid, c, s / 2) * pref


def _error(got, exact):
    return max(abs(mpmath.mpmathify(complex(x)) - y) for x, y in zip(got.ravel(), exact.ravel()))


def _kernel(rng, d, statistics, norm=0.6):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    c = a + a.T if statistics == "bose" else a - a.T
    return norm * c / np.linalg.norm(c, 2)


@pytest.mark.parametrize("statistics, d, n_max",
                         [("bose", 1, 16), ("bose", 2, 6), ("fermi", 4, None)])
def test_squeezer_matches_exact_series(mp40, statistics, d, n_max):
    space = FockSpace(statistics, d, n_max)
    c = _kernel(np.random.default_rng(3), d, statistics)
    # largest error measured 3.0e-15 (bose, d=1, cutoff 16)
    assert _error(dense(squeezer(space, c)), _exact_squeezer(space, c)) <= 1e-14


@pytest.mark.parametrize("statistics, d, n_max", [("bose", 2, 6), ("fermi", 4, None)])
def test_shale_implementer_matches_exact_series(mp40, statistics, d, n_max):
    rng = np.random.default_rng(4)
    blocks = random_blocks(d, statistics, rng)
    space = FockSpace(statistics, d, n_max)
    # largest error measured 5.4e-16 (bose)
    assert _error(dense(shale_implementer(space, blocks)),
                  _exact_implementer(space, blocks)) <= 1e-14


def test_pair_exponentials_need_no_expm(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("pair exponentials must not call scipy.linalg.expm")

    monkeypatch.setattr(scipy.linalg, "expm", forbidden)
    rng = np.random.default_rng(5)
    built = []
    for statistics, space, blocks in (
            ("bose", FockSpace("bose", 2, 6), random_blocks(2, "bose", rng)),
            ("fermi", FockSpace("fermi", 3), random_blocks(3, "fermi", rng))):
        c = _kernel(rng, space.d, statistics)
        built += [squeezer(space, c), gaussian_vector(space, c), shale_implementer(space, blocks),
                  *metaplectic_pair(space, blocks)]
        rep = DoubledRep(ThermalParams(statistics, np.diag([0.2, 0.3])), single_cutoff=2)
        built.append(rep.r_gamma())
    built.append(degenerate_implementer(FockSpace("fermi", 3), mode_pair_swap(3, 0, 1)))
    space = FockSpace("bose", 2, 4)
    built.append(apply_pair_squeezer(space, np.array([[0.25]]), np.ones(2 * space.dim)))
    assert all(np.all(np.isfinite(dense(b))) for b in built)
