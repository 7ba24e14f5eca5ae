"""Dense complex linear-algebra primitives shared by the whole package.

Everything here works on plain ``numpy`` arrays (complex128 unless the
input is real); ``dense`` turns the package's sparse operators into such
arrays at the dense kernels, and is the one place that does, so it owns
the byte budget of a dense operator.  Tolerances follow the package-wide
defaults: 1e-10 for identities that hold algebraically, 1e-8 for
spectral comparisons.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

KERNEL_RTOL = 1e-12  # singular values below this (relative) count as zero
# the bytes of one dense dim x dim complex operator a build may allocate
DENSE_BYTES_GUARD = 2**30


class NonSquareError(ValueError):
    pass


class CutoffError(ValueError):
    pass


def _require_dense(dim: int):
    """Raise CutoffError if a dense dim x dim complex operator would exceed DENSE_BYTES_GUARD."""
    nbytes = dim**2 * np.dtype(complex).itemsize
    if nbytes > DENSE_BYTES_GUARD:
        raise CutoffError(f"dense dim-{dim} operators take {nbytes} bytes, over the budget")


def dense(a) -> np.ndarray:
    """a as a numpy array; a sparse operator is densified here, at a dense kernel,
    after _require_dense has checked the byte budget at its larger side."""
    if not scipy.sparse.issparse(a):
        return np.asarray(a)
    _require_dense(max(a.shape))
    return a.toarray()


def ordered_products(gens, x) -> list:
    """The 2^m ordered monomials g_i1 ... g_ik x, i1 < ... < ik, of the m
    generators applied to x, listed by the bit mask of {i1, ..., ik}.

    Each is the lowest generator of its subset applied to the monomial of
    the rest, listed before it, so every monomial costs one product.  The
    generators may be dense or sparse, and x a vector or a matrix.
    """
    out = [x]
    for mask in range(1, 2 ** len(gens)):
        low = (mask & -mask).bit_length() - 1
        out.append(gens[low] @ out[mask ^ (1 << low)])
    return out


def require_square(a) -> np.ndarray:
    """a as a square matrix; a scalar is 1 x 1."""
    m = np.asarray(a)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if m.shape[0] != m.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


def _self_adjoint(m, name: str) -> np.ndarray:
    """m as a complex square matrix; ValueError unless ||m - m*|| <= 1e-10 max(1, ||m||)."""
    m = require_square(np.asarray(m, dtype=complex))
    if np.linalg.norm(m - m.conj().T, 2) > 1e-10 * max(1.0, np.linalg.norm(m, 2)):
        raise ValueError(f"{name} must be self-adjoint")
    return m


def window_norm(a, keep) -> float:
    """Spectral norm of P a P for the coordinate projector P onto a boolean mask keep.

    It is the norm of the kept block alone: the same singular values as the
    projected full-size matrix, without its SVD.
    """
    return np.linalg.norm(a[np.ix_(keep, keep)], 2)


def sqrtm_psd(a) -> np.ndarray:
    """Square root of a Hermitian positive-semidefinite matrix via eigh.

    Eigenvalues in [-1e-11, 0) (relative to the largest) are clipped to
    zero; anything more negative raises, since the callers all rely on
    positivity.
    """
    m = require_square(a)
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    if w.min(initial=0.0) < -1e-11 * max(1.0, abs(w).max(initial=1.0)):
        raise ValueError(f"matrix is not positive semidefinite (min eig {w.min()})")
    s = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)).astype(complex)) @ v.conj().T
    if np.isrealobj(m):
        s = s.real
    return s


def exp_herm(a, z) -> np.ndarray:
    """exp(z a) for a Hermitian a, dense or sparse, and a complex z, through eigh (one triangle)."""
    w, v = np.linalg.eigh(dense(a))
    return (v * np.exp(z * w)) @ v.conj().T


def polar_decompose(a):
    """Return (u, pos) with a = u @ pos, pos = (a* a)^{1/2} >= 0.

    ``u`` is a partial isometry whose initial space is the orthogonal
    complement of Ker a; singular values below KERNEL_RTOL * s_max are
    treated as zero.  Real input gives real factors.
    """
    m = require_square(a)
    uu, s, vh = np.linalg.svd(m)
    smax = s.max(initial=0.0)
    keep = s > KERNEL_RTOL * max(smax, 1e-300)
    pos = (vh.conj().T * s) @ vh
    iso = uu[:, keep] @ vh[keep, :]
    if np.isrealobj(m):
        pos = pos.real
        iso = iso.real
    return iso, pos
