"""Occupation-number Fock spaces over C^d and second quantization.

Bosonic spaces are truncated by total particle number so that dGamma and
Gamma stay exactly closed on the retained sectors; fermionic spaces are
exact.  The basis is graded by particle number and lexicographic in the
occupation tuple within each grade, vacuum first.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import require_square

DIM_GUARD = 10**6

BOSE = "bose"
FERMI = "fermi"


class CutoffError(ValueError):
    pass


def _occupations(d, total, cap):
    # lexicographically ascending tuples of length d summing to total
    if d == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(0, min(total, cap) + 1):
        for rest in _occupations(d - 1, total - first, cap):
            yield (first,) + rest


class FockSpace:
    """Basis bookkeeping plus cached creation/annihilation matrices."""

    def __init__(self, statistics: str, d: int, n_max: int | None = None):
        statistics = statistics.lower()
        if statistics not in (BOSE, FERMI):
            raise ValueError(f"unknown statistics {statistics!r}")
        if d < 1:
            raise ValueError("one-particle dimension must be >= 1")
        if statistics == FERMI:
            n_max = d
        elif n_max is None or n_max < 0:
            raise ValueError("bosonic spaces need a total-number cutoff n_max >= 0")
        self.statistics = statistics
        self.d = d
        self.n_max = n_max

        if statistics == FERMI:
            dim = 2**d
        else:
            dim = math.comb(n_max + d, d)
        if dim > DIM_GUARD:
            raise CutoffError(f"Fock dimension {dim} exceeds guard {DIM_GUARD}")

        cap = 1 if statistics == FERMI else n_max
        basis = []
        for n in range(n_max + 1):
            basis.extend(_occupations(d, n, cap))
        self.basis = basis
        self.index = {occ: i for i, occ in enumerate(basis)}
        self.dim = len(basis)
        assert self.dim == dim
        self.occupations = np.array(basis, dtype=np.int64)
        self.total_numbers = self.occupations.sum(axis=1)
        self._creation = {}

    def __repr__(self):
        return f"FockSpace({self.statistics}, d={self.d}, n_max={self.n_max}, dim={self.dim})"

    @property
    def is_fermi(self) -> bool:
        return self.statistics == FERMI

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def creation(self, k: int) -> np.ndarray:
        """Matrix of a*_k in the occupation basis (truncation drops the top)."""
        if k not in self._creation:
            target, weight = self.raising(k)
            a = np.zeros((self.dim, self.dim), dtype=complex)
            a[target, np.arange(self.dim)] = weight
            a.flags.writeable = False
            self._creation[k] = a
        return self._creation[k]

    def indices(self, occ) -> np.ndarray:
        """Basis indices of the occupation rows of occ."""
        rows = np.asarray(occ).tolist()
        return np.array([self.index[tuple(row)] for row in rows], dtype=np.int64)

    def raising(self, k: int):
        """a*_k by index arithmetic: it sends basis vector i to weight[i] e_target[i].

        A basis vector that a*_k takes out of the space (top sector, or
        an occupied fermionic mode) has weight 0 and target 0.
        """
        occ = self.occupations
        if self.is_fermi:
            ok = occ[:, k] == 0
            weight = (-1.0) ** occ[:, :k].sum(axis=1)
        else:
            ok = self.total_numbers < self.n_max
            weight = np.sqrt(occ[:, k] + 1.0)
        target = np.zeros(self.dim, dtype=np.int64)
        target[ok] = self.indices(occ[ok] + np.eye(self.d, dtype=np.int64)[k])
        return target, np.where(ok, weight, 0.0)

    def annihilation(self, k: int) -> np.ndarray:
        return self.creation(k).conj().T

    def create(self, w) -> np.ndarray:
        """a*(w) = sum_k w_k a*_k for a one-particle vector w."""
        w = np.asarray(w, dtype=complex).reshape(-1)
        if w.shape[0] != self.d:
            raise ValueError(f"vector length {w.shape[0]} != d = {self.d}")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for k in range(self.d):
            if w[k] != 0:
                out += w[k] * self.creation(k)
        return out

    def annihilate(self, w) -> np.ndarray:
        """a(w) = a*(w)*; antilinear in w."""
        return self.create(w).conj().T

    def number_op(self) -> np.ndarray:
        return np.diag(self.total_numbers.astype(complex))

    def parity(self) -> np.ndarray:
        """(-1)^N, exactly."""
        return np.diag(((-1.0) ** self.total_numbers).astype(complex))

    def lambda_op(self) -> np.ndarray:
        """(-1)^{N(N-1)/2}, exactly; squares to the identity."""
        expo = self.total_numbers * (self.total_numbers - 1) // 2
        return np.diag(((-1.0) ** expo).astype(complex))

    def sector_mask(self, max_total: int) -> np.ndarray:
        return self.total_numbers <= max_total

    def sector_projector(self, max_total: int) -> np.ndarray:
        return np.diag(self.sector_mask(max_total).astype(complex))


def build_space(statistics: str, d: int, n_max: int | None = None) -> FockSpace:
    return FockSpace(statistics, d, n_max)


def dgamma(space: FockSpace, h) -> np.ndarray:
    """Additive second quantization, sum_{jk} h_jk a*_j a_k."""
    h = require_square(np.asarray(h, dtype=complex))
    if h.shape[0] != space.d:
        raise ValueError(f"h is {h.shape}, expected {space.d}x{space.d}")
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for j in range(space.d):
        # sum_k h_jk a_k = a(conj h_j), a is antilinear
        row = space.annihilate(np.conj(h[j]))
        if row.any():
            out += space.creation(j) @ row
    return out


def gamma(space: FockSpace, p) -> np.ndarray:
    """Multiplicative second quantization Gamma(p) on the graded basis.

    Diagonal p takes an exact product path.  Any other p, singular or
    not, is built sector by sector from Gamma(p) Omega = Omega and
    Gamma(p) a*(w) = a*(pw) Gamma(p): a basis state |n> whose lowest
    occupied mode is k equals a*_k |parent> / sqrt(n_k), where the parent
    has one quantum fewer in mode k (no occupied mode precedes k, so the
    fermionic sign is +1).  Its column is therefore the sector n-1 -> n
    block of a*(p e_k) applied to the parent's column, divided by
    sqrt(n_k), one matrix product per (sector, k) batch.
    """
    p = require_square(np.asarray(p, dtype=complex))
    if p.shape[0] != space.d:
        raise ValueError(f"p is {p.shape}, expected {space.d}x{space.d}")
    if not np.any(p - np.diag(np.diag(p))):
        diag = np.diag(p)
        vals = np.array(
            [math.prod(complex(diag[k]) ** nk for k, nk in enumerate(occ)) for occ in space.basis],
            dtype=complex,
        )
        return np.diag(vals)
    # sector n occupies basis[start[n]:start[n + 1]]
    start = np.searchsorted(space.total_numbers, np.arange(space.n_max + 2))
    batches = {}  # (k, n) -> (columns, parent columns, sqrt(n_k))
    for j, occ in enumerate(space.basis[1:], start=1):
        k = next(m for m, nm in enumerate(occ) if nm)
        parent = space.index[occ[:k] + (occ[k] - 1,) + occ[k + 1:]]
        cols, parents, norms = batches.setdefault((k, sum(occ)), ([], [], []))
        cols.append(j)
        parents.append(parent)
        norms.append(math.sqrt(occ[k]))
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[0, 0] = 1.0
    # a parent's lowest occupied mode is k or above and its sector is
    # n - 1, so descending k and ascending n fill every parent first
    for k in reversed(range(space.d)):
        creator = space.create(p[:, k])
        for n in range(1, space.n_max + 1):
            if (k, n) not in batches:
                continue
            cols, parents, norms = batches[(k, n)]
            rows, prev = slice(start[n], start[n + 1]), slice(start[n - 1], start[n])
            out[rows, cols] = (creator[rows, prev] @ out[prev, parents]) / norms
    return out


def exp_law(space1: FockSpace, space2: FockSpace, target: FockSpace | None = None,
            allow_partial: bool = False):
    """The exponential-law map Gamma(Z1) (x) Gamma(Z2) -> Gamma(Z1 + Z2).

    Returns (u, target) where u is dim(target) x (dim1*dim2).  In the
    graded occupation bases the map sends |n> (x) |m> to the combined
    occupation state |n,m| with coefficient exactly 1 (the Z1 modes come
    first, so no fermionic reordering sign appears).  With the default
    target cutoff the map is an isometry, u* u = 1; allow_partial skips
    the cutoff check and zeroes the unrepresentable columns.
    """
    if space1.statistics != space2.statistics:
        raise ValueError("statistics mismatch between the factors")
    stat = space1.statistics
    if target is None:
        target = FockSpace(stat, space1.d + space2.d, space1.n_max + space2.n_max)
    if target.statistics != stat or target.d != space1.d + space2.d:
        raise ValueError("target space has wrong statistics or dimension")
    if not allow_partial and target.n_max < space1.n_max + space2.n_max:
        raise CutoffError(
            f"target cutoff {target.n_max} < {space1.n_max} + {space2.n_max}")
    u = np.zeros((target.dim, space1.dim * space2.dim), dtype=complex)
    for i1, occ1 in enumerate(space1.basis):
        for i2, occ2 in enumerate(space2.basis):
            combined = occ1 + occ2
            if sum(combined) > target.n_max:
                continue
            u[target.index[combined], i1 * space2.dim + i2] = 1.0
    return u, target
