"""Fock-space field machinery: fields, Weyl operators, pair creation,
Gaussian vectors, squeezers, Jordan-Wigner strings and the orientation
operator Q.

A doubled vector carries (z1, z2bar): the first leg lives in the
one-particle space, the second in its conjugate.  The associated field
is a*(z1) + a(z2) with z2 = conj(z2bar), which is Hermitian exactly on
the real points z2bar = conj(z1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .fock import FockSpace, _gamma_blocks, _rows_csr, _sector_csr, gamma
from .linalg import _require_dense, exp_herm, require_square, sqrtm_psd

_GROUP_WORK = 2**18  # below this work per series term, column groups cost more than they save
_SLAB = 64  # columns of a group per pass, which bounds the working set beside the output
PAULI_1 = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_3 = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass(frozen=True)
class DoubledVector:
    z1: np.ndarray
    z2bar: np.ndarray

    @classmethod
    def real_point(cls, z) -> "DoubledVector":
        z = np.asarray(z, dtype=complex).reshape(-1)
        return cls(z, z.conj())

    def conj_pair(self) -> np.ndarray:
        """The vector z2 whose conjugate is stored in z2bar."""
        return np.asarray(self.z2bar, dtype=complex).conj()


def symplectic_form(y1: DoubledVector, y2: DoubledVector) -> complex:
    """Bilinear extension of 2 Im(z|w) to the doubled space."""
    return complex(-1j * (np.dot(y1.z2bar, y2.z1) - np.dot(y2.z2bar, y1.z1)))


def euclidean_form(y1: DoubledVector, y2: DoubledVector) -> complex:
    """Bilinear extension of Re(z|w) to the doubled space."""
    return complex(0.5 * (np.dot(y1.z2bar, y2.z1) + np.dot(y2.z2bar, y1.z1)))


def field(space: FockSpace, y: DoubledVector) -> scipy.sparse.csr_array:
    """phi(y) = a*(z1) + a(z2) for a doubled vector y = (z1, z2bar), as a CSR array."""
    return space.ladder(y.z1, y.conj_pair())


def weyl(space: FockSpace, y: DoubledVector) -> np.ndarray:
    """W(y) = exp(i phi(y)) through Hermitian eigendecomposition, dense.

    Bosonic only; y must be a real point so the field is Hermitian.
    """
    if space.is_fermi:
        raise ValueError("Weyl operators are defined on bosonic spaces")
    if np.max(np.abs(y.z1 - y.conj_pair())) > 1e-12:
        raise ValueError("Weyl operator needs a real doubled vector")
    return exp_herm(field(space, y), 1j)


def _exp_series(space: FockSpace, a, step: int, t: float, window):
    """The map x -> exp(t a) x, in place of x, for a pair creator (step 2) or
    annihilator (step -2) a: the space ends at n_max, so n_max//2 Taylor terms
    are exact.  With window None each term is one product with all of a.
    Otherwise x is zero outside the sectors window = (lo, hi), each term lives
    on the window before it moved by step, and only the slice of a between
    them acts; the slices are taken here, once for every x."""
    start = space.sector_start
    rows = first = slice(None) if window is None else slice(start[window[0]], start[window[1] + 1])
    terms = []
    for _ in range(space.n_max // 2):
        if window is not None:
            cols, window = rows, (max(window[0] + step, 0), min(window[1] + step, space.n_max))
            if window[0] > window[1]:
                break
            rows = slice(start[window[0]], start[window[1] + 1])
        terms.append((rows, a if window is None else a[rows, cols]))

    def apply(x):
        term = x[first]
        for k, (rows, part) in enumerate(terms, 1):
            term = part @ term
            term *= t / k
            x[rows] += term
        return x
    return apply


def multi_create(space: FockSpace, c) -> scipy.sparse.csr_array:
    """Two-particle creation a*(c) = sum_{jk} c_jk a*_j a*_k, as a CSR array.

    c is the kernel of a Hilbert-Schmidt map from the conjugate space,
    symmetric for bosons and antisymmetric for fermions.  Raises the
    particle number by two; for c the (anti)symmetrized product of w1, w2
    it reduces to a*(w1) a*(w2).  The one pair creator of the package, built
    by index arithmetic on the row tables of FockSpace.creation_rows: the
    row of an occupation m holds, for every pair j <= k, c_jk a*_j a*_k +
    c_kj a*_k a*_j at the column of m - e_j - e_k, and no operator product
    is formed.  In the graded lexicographic basis those columns ascend with
    (j, k) in lexicographic order, so the rows come out sorted.
    """
    c = require_square(np.asarray(c, dtype=complex))
    if c.shape[0] != space.d:
        raise ValueError(f"kernel is {c.shape}, expected {space.d}x{space.d}")
    if np.max(np.abs(c + space.sign * c.T)) > 1e-12 * max(1.0, float(np.max(np.abs(c)))):
        raise ValueError("fermionic pair kernel must be antisymmetric" if space.is_fermi
                         else "bosonic pair kernel must be symmetric")
    # axes (k, r): a*_k reaches row r from column low[k, r] with weight[k, r]
    low, weight = space.creation_rows(np.arange(space.d))
    # a*_j a*_k reaches row r from column low[k, low[j, r]]; axes (j, k, r)
    vals = c[:, :, None] * weight[:, None, :] * weight[:, low].swapaxes(0, 1)
    j, k = np.triu_indices(space.d)
    pair = vals[j, k]
    off = j != k
    pair[off] += vals[k[off], j[off]]
    return _rows_csr(low[:, low].swapaxes(0, 1)[j, k].T, pair.T)


def pair_exponential_vacuum(space: FockSpace, c) -> np.ndarray:
    """exp(a*(c)/2) applied to the vacuum; the series is finite."""
    return _exp_series(space, multi_create(space, c), 2, 0.5, None)(space.vacuum())


def gaussian_normalization(space: FockSpace, c) -> float:
    """det(1 + s c c*)^{-s/4} for the statistics sign s.

    The bosonic kernel must be a strict contraction.
    """
    c = np.asarray(c, dtype=complex)
    s = space.sign
    if s < 0:
        norm = np.linalg.norm(c, 2)
        if norm >= 1.0:
            raise ValueError(f"bosonic pair kernel needs ||c|| < 1, got {norm}")
    return float(np.linalg.det(np.eye(space.d) + s * (c @ c.conj().T)).real ** (-0.25 * s))


def gaussian_vector(space: FockSpace, c) -> np.ndarray:
    """The normalized pair-coherent vector built from the kernel c.

    Annihilated by a(z) - a*(c zbar) for bosons and a(z) + a*(c zbar)
    for fermions; the bosonic kernel must be a strict contraction.
    """
    return gaussian_normalization(space, c) * pair_exponential_vacuum(space, c)


def _implementer(space: FockSpace, pref, a_left, a_right, t: float, window):
    """The map x -> pref exp(t a_left) exp(-t a_right*) x, in place of a complex x,
    for pair creators a_left, a_right and the window of _exp_series: the one
    route of squeezers and Shale implementers, on the columns of Gamma(m).
    Second quantization is covariant, Gamma(m) a(k) Gamma(m)^{-1} = a(M k M^T)
    with M = (m*)^{-1}, so pref exp(t a*(d)) Gamma(m) exp(-t a(k)) is this map
    after Gamma(m), with a_right = a*(M k M^T).  Both series take their slices
    here, once for every x.
    """
    # the arrays of a CSR a_right, read as CSC with conjugated data, are a_right*
    adjoint = scipy.sparse.csc_array((a_right.data.conj(), a_right.indices, a_right.indptr),
                                     shape=a_right.shape)
    lowering = _exp_series(space, adjoint, -2, -t, window)
    if window is not None:
        # the lowering series ends on sector 0, or on hi's parity when the window is one sector
        lo, hi = window
        window = (0 if lo < hi else hi % 2, hi)
    raising = _exp_series(space, a_left, 2, t, window)

    def apply(x):
        y = raising(lowering(x))
        return np.multiply(pref, y, out=y)
    return apply


def _implementer_matrix(space: FockSpace, pref, a_left, m, a_right,
                        t: float) -> scipy.sparse.csr_array:
    """_implementer on the columns of Gamma(m), one column group at a time, as a
    CSR array of its two parity blocks: pref exp(t a_left) exp(-t a_right*) Gamma(m).
    The pair creators and Gamma(m) never mix the parity classes, so every row in
    sector n stores the columns of class n mod 2, ascending, and sector n's data
    are one dense (sector x class) view that the slabs write into; the other
    entries are exactly zero and are not stored.

    A group is a run of whole sectors taken from the top sector down, closed
    once it holds as many basis vectors as the sectors below it.  The rest
    is one group once the nonzeros of both pair creators on its rows times
    its basis vectors are at most _GROUP_WORK.  A group's even and odd
    columns, runs of their classes, share one buffer, filled with their
    columns of Gamma(m): from its diagonal, or from its sector blocks
    (fock._gamma_blocks), which lie on the group's own sectors.  The series
    run on the group's sector windows: the lowering series of a group from
    sector n touches sectors n, n-2, ... only.  A space of one group takes no
    slices.

    A group runs in slabs of _SLAB shared columns, the last up to its end: a
    slab's buffer and series terms are all that sits beside the output, and
    every slab reuses its group's window slices.  Slabs start at multiples of
    _SLAB and none is a lone column (numpy takes that as a vector), so each
    product sums every column as in the whole group, bit for bit.
    """
    _require_dense(space.dim)
    start, groups, hi = space.sector_start, [], space.n_max
    classes = [np.flatnonzero(space.total_numbers % 2 == p) for p in (0, 1)]
    # the output first, so that it can take a freed heap run before the blocks and slabs split it
    out = _sector_csr(start, [classes[n % 2] for n in range(hi + 1)],
                      np.zeros(sum(len(cls) ** 2 for cls in classes), dtype=complex))
    offsets = out.indptr[start].tolist()
    views = [out.data[a:b].reshape(-1, len(classes[n % 2]))
             for n, (a, b) in enumerate(zip(offsets, offsets[1:]))]
    g = _gamma_blocks(space, m)
    nnz = a_left.indptr + a_right.indptr  # nonzeros of both pair creators above each row
    while hi >= 0:
        lo = hi if nnz[start[hi + 1]] * start[hi + 1] > _GROUP_WORK else 0
        while start[hi + 1] - start[lo] < start[lo]:
            lo -= 1
        groups.append((lo, hi))
        hi = lo - 1
    for lo, hi in groups:
        first = [np.searchsorted(cls, start[lo]) for cls in classes]
        cols = [cls[f:np.searchsorted(cls, start[hi + 1])] for f, cls in zip(first, classes)]
        apply = _implementer(space, pref, a_left, a_right, t,
                             None if len(groups) == 1 else (lo, hi))
        width = max(map(len, cols))
        bounds = [*range(0, max(width - 1, 1), _SLAB), width]  # no slab is a lone column
        for s, e in zip(bounds, bounds[1:]):
            slab = [c[s:e] for c in cols]
            y = np.zeros((space.dim, max(map(len, slab))), dtype=complex)
            for parity, c in enumerate(slab):
                if isinstance(g, list):
                    cuts = np.searchsorted(c, start).tolist()
                    for n in range(lo + (lo + parity) % 2, hi + 1, 2):
                        y[start[n]:start[n + 1], cuts[n]:cuts[n + 1]] = \
                            g[n][:, c[cuts[n]:cuts[n + 1]] - start[n]]
                else:
                    y[c, np.arange(len(c))] = g[c]
            y = apply(y)
            for parity, (f, c) in enumerate(zip(first, slab)):
                for n in range(parity, space.n_max + 1, 2):
                    views[n][:, f + s:f + s + len(c)] = y[start[n]:start[n + 1], :len(c)]
            del y
    return out


def _squeezer_factors(space: FockSpace, c):
    """The prefactor, the pair creator a*(c), the one-particle middle factor m of R
    and the pair creator a*(m^{-1} c m^{-T}) of its conjugated right kernel."""
    c = require_square(np.asarray(c, dtype=complex))
    m = sqrtm_psd(np.eye(space.d) + space.sign * (c @ c.conj().T))
    inv = np.linalg.inv(m)
    return (gaussian_normalization(space, c), multi_create(space, c), m,
            multi_create(space, inv @ c @ inv.T))


def squeezer(space: FockSpace, c) -> scipy.sparse.csr_array:
    """The unitary R mapping the Gaussian vector of c back to the vacuum, a CSR
    array of its two parity blocks (_implementer_matrix).

    R = det(1 -+ cc*)^{+-1/4} exp(-a*(c)/2) Gamma(m) exp(a(c)/2) with
    m = (1 -+ cc*)^{1/2}, upper signs for bosons, lower for fermions; the
    fermionic middle factor Gamma((1+cc*)^{1/2}) is the one that makes R
    unitary and consistent with the thermal dressing identities.  It is built
    Gamma(m) first, as det(1 -+ cc*)^{+-1/4} exp(-a*(c)/2) exp(a(m^{-1} c m^{-T})/2)
    Gamma(m), since m is self-adjoint.  Both exponentials are finite Taylor
    sums of n_max//2 terms.  Conjugation acts as
    a*(z) -> a*((1 -+ cc*)^{-1/2} z) +- a((1 -+ cc*)^{-1/2} c conj z).
    """
    pref, ac, m, right = _squeezer_factors(space, c)
    return _implementer_matrix(space, pref, ac, m, right, -0.5)


def _apply_squeezer(space: FockSpace, c, x: np.ndarray) -> np.ndarray:
    """squeezer(space, c) @ x without forming the squeezer: Gamma(m) @ x, then the
    two series of _implementer."""
    pref, ac, m, right = _squeezer_factors(space, c)
    x = gamma(space, m) @ np.asarray(x, dtype=complex)
    return _implementer(space, pref, ac, right, -0.5, None)(x)


def jordan_wigner(n: int):
    """CAR generators on (C^2)^(x n) from Pauli strings.

    Returns the 2n operators (sigma1^(1), sigma2^(1), I_1 sigma1^(2), ...)
    where I_j is the product of the first j sigma3 factors.  All pairwise
    anticommutators equal 2 delta_ij exactly.
    """
    if n < 1:
        raise ValueError("need at least one site")
    eye = np.eye(2, dtype=complex)

    def site_op(op, j):
        mats = [PAULI_3] * j + [op] + [eye] * (n - j - 1)
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    ops = []
    for j in range(n):
        ops.append(site_op(PAULI_1, j))
        ops.append(site_op(PAULI_2, j))
    return ops


def q_operator(space: FockSpace, ys) -> np.ndarray:
    """Q = i^{n(n-1)/2} phi(y_1) ... phi(y_n) for an orthonormal family.

    Orthonormality is with respect to the Euclidean form Re(z|w); Q is
    unitary, self-adjoint, squares to one, flips sign with the
    orientation, and satisfies the volume-element relation
    Q phi(y) = (-1)^{n-1} phi(y) Q.
    """
    if not space.is_fermi:
        raise ValueError("Q is a fermionic construction")
    n = len(ys)
    for i in range(n):
        for j in range(n):
            expect = 1.0 if i == j else 0.0
            if abs(euclidean_form(ys[i], ys[j]) - expect) > 1e-10:
                raise ValueError("basis is not orthonormal for the Euclidean form")
    q = np.eye(space.dim, dtype=complex) * (1j) ** (n * (n - 1) // 2)
    for y in ys:
        q = q @ field(space, y)
    return q


def apply_doubled_matrix(r: np.ndarray, y: DoubledVector) -> DoubledVector:
    d = r.shape[0] // 2
    coords = np.concatenate([y.z1, y.z2bar])
    out = r @ coords
    return DoubledVector(out[:d], out[d:])
