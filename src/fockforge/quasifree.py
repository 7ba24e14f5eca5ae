"""Quasi-free state machinery: Wick pairing sums, quasi-freeness testing
of concrete vectors, and the reduction of a covariance pair to doubled
representation data (a complex structure plus a one-particle density).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .fock import BOSE, FERMI, FockSpace
from .linalg import require_square, sqrtm_psd
from .ops import field


class NonPositiveEtaError(ValueError):
    pass


class DegenerateOmegaError(ValueError):
    pass


class OddKernelError(ValueError):
    """The commutator form has an odd-dimensional kernel; a tracial
    component is required and no complex structure extends over it."""


@dataclass(frozen=True)
class CovarianceData:
    """Real covariance pair: symmetric part and antisymmetric part.

    The convention is <phi(y1) phi(y2)> = y1 (eta + i/2 omega) y2, with
    eta symmetric positive semidefinite and omega antisymmetric obeying
    the Cauchy-Schwarz bound |y1 omega y2| <= 2 sqrt(y1 eta y1 y2 eta y2).
    """

    kind: str
    symmetric_form: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        eta = require_square(np.asarray(self.symmetric_form, dtype=float))
        om = require_square(np.asarray(self.omega, dtype=float))
        if eta.shape != om.shape:
            raise ValueError("forms must have equal shape")
        if self.kind not in (BOSE, FERMI):
            raise ValueError(f"unknown kind {self.kind!r}")
        scale = max(1.0, np.abs(eta).max(), np.abs(om).max())
        if np.max(np.abs(eta - eta.T)) > 1e-10 * scale:
            raise ValueError("symmetric form is not symmetric")
        if np.max(np.abs(om + om.T)) > 1e-10 * scale:
            raise ValueError("omega is not antisymmetric")
        w, u = np.linalg.eigh(eta)
        if w.min() < -1e-10 * scale:
            raise NonPositiveEtaError(f"eta has negative eigenvalue {w.min()}")
        # omega vanishes on Ker eta; on its range the whitened omega / 2 is a contraction
        on_range = w > 1e-12 * scale
        white = u[:, on_range] / np.sqrt(w[on_range])
        if (np.linalg.norm(om @ u[:, ~on_range]) > 1e-10 * scale
                or np.linalg.svd(white.T @ om @ white, compute_uv=False).max(initial=0.0)
                > 2.0 * (1.0 + 1e-8)):
            raise ValueError("Cauchy-Schwarz bound between omega and eta fails")
        object.__setattr__(self, "symmetric_form", eta)
        object.__setattr__(self, "omega", om)

    @property
    def dim(self) -> int:
        return self.symmetric_form.shape[0]


def wick_npoint(two_point, ys, kind: str) -> complex:
    """Pairing sum of a two-point function over a list of labels.

    The hafnian (bosons) or Pfaffian (fermions) of [two_point(y_i, y_j)],
    expanded along the first label: ys[0] pairs with each later ys[k] and
    the sum recurses on the labels left, a fermionic term carrying the
    sign (-1)^(k-1).  The empty list sums to 1 and an odd list to 0.
    """
    if not ys:
        return 1.0 + 0.0j
    sign = -1 if kind == FERMI else 1
    return sum((sign ** (k - 1) * complex(two_point(ys[0], ys[k]))
                * wick_npoint(two_point, ys[1:k] + ys[k + 1:], kind)
                for k in range(1, len(ys))), 0.0j)


def npoint_function(vector: np.ndarray, ops) -> complex:
    """<vector | ops[0] ... ops[n-1] vector> by matrix-vector chains."""
    out = np.asarray(vector, dtype=complex)
    for op in reversed(ops):
        out = op @ out
    return complex(np.vdot(vector, out))


def verify_quasifree(space: FockSpace, vector, ys) -> dict:
    """Compare the n-point functions of the doubled vectors ys against Wick sums (n <= 6).

    The two-point function is measured from the vector itself, so the
    report quantifies quasi-freeness rather than assuming it.  Returns
    per-order maximal defects and their overall maximum: the odd orders
    1 and 3, all order-4 words over the first four labels, and 60
    order-6 words drawn with a fixed seed.
    """
    vector = np.asarray(vector, dtype=complex)
    k = len(ys)
    fields = [field(space, y) for y in ys]
    # tp[i, j] = <f_i* vector | f_j vector>
    tp = (np.column_stack([f.conj().T @ vector for f in fields]).conj().T
          @ np.column_stack([f @ vector for f in fields]))

    def check_order(words):
        worst = 0.0
        for idx in words:
            actual = npoint_function(vector, [fields[i] for i in idx])
            expected = wick_npoint(tp.item, idx, space.statistics)
            worst = max(worst, abs(actual - expected))
        return worst

    # odd orders vanish: their pairing sum is 0
    defects = {"odd": check_order([(i,) for i in range(k)]
                                  + list(product(range(min(k, 3)), repeat=3)))}
    defects["4"] = check_order(product(range(min(k, 4)), repeat=4))
    rng = np.random.default_rng(0)
    defects["6"] = check_order([tuple(rng.integers(0, k, size=6)) for _ in range(60)])
    defects["max"] = max(defects.values())
    return defects


@dataclass(frozen=True)
class ReducedRepData:
    """Output of the covariance reduction.

    j is the real matrix of the complex structure; chart maps real
    coordinates to the complex coordinates of the constructed
    one-particle space, the +1 eigenspace of i j in the whitened frame,
    so that chart(-j y) = i chart(y); density is rho (bosonic) or chi
    (fermionic) as a complex matrix in that chart.
    """

    kind: str
    complex_dim: int
    j: np.ndarray
    density: np.ndarray
    chart: np.ndarray

    def to_complex(self, y) -> np.ndarray:
        return self.chart @ np.asarray(y, dtype=float)


def reduce_covariance(cov: CovarianceData) -> ReducedRepData:
    """Map a covariance pair to doubled-representation data.

    Solves omega = 2 eta mu, takes the polar part mu = |mu| j, treats -j
    as the imaginary unit and writes the density in a complex chart.  In
    the whitened frame (eta = 1) one SVD mu_t = U diag(s) V gives
    |mu_t| = V^T diag(s) V and j_t = U V off the kernel; j_t is real
    antisymmetric with square -1, so i j_t is Hermitian with
    eigenvalues +-1; with v its +1 eigenvectors the chart is
    sqrt(2) v* r eta^{1/2} and the density v* f v, where r and f are
    functions of |mu_t| and so commute with j_t.  Bosonic: omega must be
    nondegenerate, f = |mu|^{-1} - 1 is rho and r = |mu|^{1/2} makes the
    chart an isometry of eta |mu|, so that
    y1 (eta + i/2 omega) y2 = <y1|y2> + Re <y1| rho y2>.  Fermionic:
    f = (1 - |mu|)/2 is chi and r = 1 makes the chart an isometry of eta
    itself; j is extended over Ker mu by pairing kernel vectors in SVD
    order, which requires the kernel to be even dimensional.
    """
    eta = cov.symmetric_form
    dim = cov.dim
    if dim % 2 == 1:
        raise OddKernelError("odd real dimension forces an odd kernel")
    w = np.linalg.eigvalsh(eta)
    if w.min() <= 1e-12 * max(1.0, w.max()):
        raise NonPositiveEtaError("the symmetric form must be positive definite")
    # whiten by g = eta^{1/2}: mu_t = g^{-1} omega g^{-1} / 2, made antisymmetric
    g = sqrtm_psd(eta)
    ginv = np.linalg.inv(g)
    mu_t = 0.5 * (ginv @ cov.omega @ ginv)
    mu_t = (mu_t - mu_t.T) / 2
    u, s, vh = np.linalg.svd(mu_t)
    null = s <= 1e-10 * max(s.max(initial=0.0), 1e-300)
    n_null = int(null.sum())
    if n_null and cov.kind == BOSE:
        raise DegenerateOmegaError("omega is degenerate relative to eta")
    if n_null % 2 == 1:
        raise OddKernelError(f"kernel of the commutator form has odd dimension {n_null}")
    # the polar part u vh of mu_t, extended over the kernel pair by pair in svd order
    j_t = u[:, ~null] @ vh[~null]
    kernel = vh[null]
    for v1, v2 in zip(kernel[0::2], kernel[1::2]):
        j_t = j_t + np.outer(v2, v1) - np.outer(v1, v2)
    j_t = (j_t - j_t.T) / 2
    r, f = (np.sqrt(s), 1.0 / s - 1.0) if cov.kind == BOSE else (np.ones(dim), (1.0 - s) / 2)
    v = np.linalg.eigh(1j * j_t)[1][:, dim // 2:]
    chart = np.sqrt(2.0) * v.conj().T @ ((vh.T * r) @ vh) @ g
    density = v.conj().T @ ((vh.T * f) @ vh) @ v
    return ReducedRepData(cov.kind, dim // 2, ginv @ j_t @ g, density, chart)


def reconstruction_defect(cov: CovarianceData, red: ReducedRepData, rng) -> float:
    """Max defect of the two-point reconstruction identity on 25 random pairs."""
    worst = 0.0
    for _ in range(25):
        y1 = rng.standard_normal(cov.dim)
        y2 = rng.standard_normal(cov.dim)
        lhs = y1 @ cov.symmetric_form @ y2 + 0.5j * (y1 @ cov.omega @ y2)
        t1 = red.to_complex(y1)
        t2 = red.to_complex(y2)
        if cov.kind == BOSE:
            rhs = np.vdot(t1, t2) + np.real(np.vdot(t1, red.density @ t2))
        else:
            rhs = np.vdot(t1, t2) - 2j * np.imag(np.vdot(t1, red.density @ t2))
        worst = max(worst, abs(lhs - rhs))
    return worst


def aw_covariance(rho_complex: np.ndarray) -> CovarianceData:
    """Covariance pair of the thermal doubled state with density rho.

    Uses the unit-normalized convention in which the reduction returns
    rho itself: for d complex modes the real dimension is 2d, eta is the
    real form of (z1|(1+rho) z2) and omega that of 2 Im(z1|z2).
    """
    rho = require_square(np.asarray(rho_complex, dtype=complex))
    d = rho.shape[0]
    m = np.eye(d) + rho
    # the real 2d x 2d matrix of the sesquilinear form (z1|(1 + rho) z2)
    eta = np.block([[m.real, -m.imag], [m.imag, m.real]])
    eta = (eta + eta.T) / 2
    # real bilinear form of 2 Im(z1|z2)
    omega = np.block([[np.zeros((d, d)), 2.0 * np.eye(d)],
                      [-2.0 * np.eye(d), np.zeros((d, d))]])
    return CovarianceData(BOSE, eta, omega)
