"""Occupation-number Fock spaces over C^d and second quantization.

Bosonic spaces are truncated by total particle number so that dGamma and
Gamma stay exactly closed on the retained sectors; fermionic spaces are
exact.  The basis is graded by particle number and lexicographic in the
occupation tuple within each grade, vacuum first.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np
import scipy.sparse

from .linalg import CutoffError, _require_dense, require_square

DIM_GUARD = 10**6
_TABLE_GUARD = 2**24  # entries of the occupation table, dim x d

BOSE = "bose"
FERMI = "fermi"
# the statistics sign s of p*p + s q#qbar = 1, det(1 + s cc*), gamma (1 + s gamma)^{-1}
# and their kin: every bose/fermi construction is written once in terms of it
SIGN = {BOSE: -1.0, FERMI: 1.0}


class FockSpace:
    """Basis bookkeeping plus cached sparse creation matrices."""

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
        if dim * d > _TABLE_GUARD:
            raise CutoffError(f"occupation table of {dim} states x {d} modes is over the budget")

        # Python's sort is stable, so sorting a lexicographic enumeration by total grades it.
        # A bosonic state is the differences of its partial sums c_1 <= ... <= c_d = total,
        # and those ascend lexicographically as the states do.
        if statistics == FERMI:
            basis = sorted(itertools.product((0, 1), repeat=d), key=sum)
            self.occupations = np.array(basis, dtype=np.int64)
        else:
            sums = itertools.combinations_with_replacement(range(n_max + 1), d)
            self.occupations = np.array(sorted(sums, key=operator.itemgetter(-1)), dtype=np.int64)
            self.occupations[:, 1:] -= self.occupations[:, :-1]  # ufuncs resolve the overlap
            basis = list(map(tuple, self.occupations.tolist()))
        self.basis = basis
        self.index = {occ: i for i, occ in enumerate(basis)}
        self.dim = len(basis)
        assert self.dim == dim
        self.total_numbers = self.occupations.sum(axis=1)
        # sector n occupies basis[sector_start[n]:sector_start[n + 1]]
        self.sector_start = np.searchsorted(self.total_numbers, np.arange(n_max + 2))
        # tails[i, r]: the occupation tuples of the d - 1 - i modes after mode i with total <= r
        tails = [[math.comb(r + k, k) if statistics == BOSE else math.comb(k, r)
                  for r in range(n_max + 1)] for k in range(d - 1, -1, -1)]
        self._tails = np.array(tails) if statistics == BOSE else np.cumsum(tails, axis=1)
        self._creation = {}
        self._rows = None

    def __repr__(self):
        return f"FockSpace({self.statistics}, d={self.d}, n_max={self.n_max}, dim={self.dim})"

    @property
    def is_fermi(self) -> bool:
        return self.statistics == FERMI

    @property
    def sign(self) -> float:
        return SIGN[self.statistics]

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[0] = 1.0
        return v

    def identity(self) -> np.ndarray:
        return np.eye(self.dim, dtype=complex)

    def creation(self, k: int) -> scipy.sparse.csr_array:
        """a*_k in the occupation basis as a CSR array (truncation drops the top).

        The CSR form of creation_rows(k), cached; its data is read-only, so
        callers never change the cached array in place.
        """
        if k not in self._creation:
            low, weight = self.creation_rows(k)
            a = _rows_csr(low[:, None], weight[:, None].astype(complex))
            a.data.flags.writeable = False
            self._creation[k] = a
        return self._creation[k]

    def creation_rows(self, k):
        """a*_k by index arithmetic, cached and read-only: row i holds weight[i]
        at column low[i], the state with one quantum fewer in mode k.  An
        integer array k stacks the tables of its modes.

        The weight is sqrt(n_k) for bosons and (-1)^(n_0 + ... + n_{k-1})
        for fermions; a row whose mode k is empty has weight 0 and low 0.
        Each row holds at most one entry, and removing a quantum preserves
        the graded lexicographic order, so each column does too.  The first
        call builds the tables of every mode, and the table of a_k that
        ladder reads: row low[i] holds weight[i] at column i.
        """
        if self._rows is None:
            occ = self.occupations
            modes, filled = np.nonzero(occ.T)
            low = np.zeros((self.d, self.dim), dtype=np.int64)
            low[modes, filled] = self.indices(occ[filled] - np.eye(self.d, dtype=np.int64)[modes])
            weight = (np.where(occ.T > 0, (-1.0) ** (np.cumsum(occ, axis=1) - occ).T, 0.0)
                      if self.is_fermi else np.sqrt(occ.T))
            high, raised = np.zeros_like(low), np.zeros_like(weight)
            up = modes, low[modes, filled]
            high[up], raised[up] = filled, weight[modes, filled]
            self._tables = low, weight, high, raised
            for table in self._tables:
                table.flags.writeable = False
            self._rows = list(zip(low, weight))
        return self._rows[k] if np.ndim(k) == 0 else (self._tables[0][k], self._tables[1][k])

    def indices(self, occ) -> np.ndarray:
        """Basis indices of the occupation rows of occ, states of this space.  A row
        of total n sits at sector_start[n] plus, at each mode i, the states that
        agree with it before i and hold fewer quanta at i, so more after it."""
        occ = np.asarray(occ, dtype=np.int64).reshape(-1, self.d)
        left = occ.sum(axis=1)  # the quanta in mode i and after it
        rank = self.sector_start[left]
        for tails, m in zip(self._tails, occ.T):
            rank += tails[left] - tails[left - m]
            left -= m
        return rank

    def annihilation(self, k: int) -> scipy.sparse.csr_array:
        """a_k = (a*_k)* = a(e_k), as a CSR array read from ladder's table of a_k."""
        return self.annihilate(np.eye(self.d)[k])

    def create(self, w) -> scipy.sparse.csr_array:
        """a*(w) = sum_k w_k a*_k for a one-particle vector w, as a CSR array
        with at most d stored entries per column."""
        return self.ladder(w, np.zeros(self.d))

    def annihilate(self, w) -> scipy.sparse.csr_array:
        """a(w) = a*(w)*, as a CSR array; antilinear in w."""
        return self.ladder(np.zeros(self.d), w)

    def ladder(self, u, v) -> scipy.sparse.csr_array:
        """a*(u) + a(v) for one-particle vectors u and v, as a CSR array.

        One read of the row tables of creation_rows: row m takes one entry
        from each a*_k with u_k != 0, at the column of m - e_k, and one from
        each a_k with v_k != 0, at the column of m + e_k.  In the graded
        lexicographic basis m - e_k ascends with k, m + e_k descends, and
        sector n - 1 precedes sector n + 1, so with the a_k in descending k
        every row comes out with sorted columns.  Each entry is the product
        coefficient * weight of a per-term scatter, so it is bit for bit.
        """
        u, v = (np.asarray(x, dtype=complex).reshape(-1) for x in (u, v))
        for x in (u, v):
            if x.shape[0] != self.d:
                raise ValueError(f"vector length {x.shape[0]} != d = {self.d}")
        ku, kv = np.flatnonzero(u), np.flatnonzero(v)[::-1]
        low, weight = self.creation_rows(ku)
        high, raised = self._tables[2:]
        cols = np.concatenate([low, high[kv]]).T
        vals = np.concatenate([u[ku, None] * weight, np.conj(v[kv, None]) * raised[kv]]).T
        return _rows_csr(cols, vals)

    def lambda_op(self) -> np.ndarray:
        """(-1)^{N(N-1)/2}, exactly; squares to the identity."""
        return np.diag(_lambda_signs(self.total_numbers).astype(complex))

    def sector_mask(self, max_total: int) -> np.ndarray:
        return self.total_numbers <= max_total

    def sector_projector(self, max_total: int) -> np.ndarray:
        return np.diag(self.sector_mask(max_total).astype(complex))


def _rows_csr(cols, vals) -> scipy.sparse.csr_array:
    """The square CSR array whose row i holds vals[i, j] at column cols[i, j]
    wherever vals[i, j] != 0; the columns of each row must ascend."""
    stored = vals != 0
    indptr = np.zeros(len(vals) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(stored, axis=1), out=indptr[1:])
    return scipy.sparse.csr_array((vals[stored], cols[stored], indptr),
                                  shape=(len(vals), len(vals)))


def _lambda_signs(numbers) -> np.ndarray:
    """The diagonal of Lambda, (-1)^{n(n-1)/2}, at the particle numbers n."""
    return (-1.0) ** (numbers * (numbers - 1) // 2)


def dgamma(space: FockSpace, h) -> scipy.sparse.csr_array:
    """Additive second quantization, sum_{jk} h_jk a*_j a_k, as a CSR array."""
    h = require_square(np.asarray(h, dtype=complex))
    if h.shape[0] != space.d:
        raise ValueError(f"h is {h.shape}, expected {space.d}x{space.d}")
    out = scipy.sparse.csr_array((space.dim, space.dim), dtype=complex)
    for j in range(space.d):
        # sum_k h_jk a_k = a(conj h_j), a is antilinear
        row = space.annihilate(np.conj(h[j]))
        if row.nnz:
            out = out + space.creation(j) @ row
    return out


def gamma(space: FockSpace, p) -> scipy.sparse.csr_array:
    """Multiplicative second quantization Gamma(p), a CSR array whose data are
    its diagonal or its sector blocks, in row-major order, from _gamma_blocks.
    Like a dense operator, it refuses a space over the dense byte budget."""
    _require_dense(space.dim)
    blocks, dim, start = _gamma_blocks(space, p), space.dim, space.sector_start
    if not isinstance(blocks, list):
        diag = np.arange(dim + 1, dtype=np.int32)
        return scipy.sparse.csr_array((blocks, diag[:-1], diag), (dim, dim))
    return _sector_csr(start, [np.arange(lo, hi) for lo, hi in zip(start[:-1], start[1:])],
                       np.concatenate(blocks, axis=None))


def _sector_csr(start, cols, data) -> scipy.sparse.csr_array:
    """The square CSR array whose every row in sector n, start[n]:start[n + 1],
    stores the ascending columns cols[n], with data in row-major order: the
    data of sector n are a (sector size x len(cols[n])) block.  The array
    keeps data itself, so a caller may fill it afterwards.  Its index arrays
    are int32, which hold every index below the dense byte budget."""
    sizes = np.diff(start).tolist()
    indptr = np.zeros(start[-1] + 1, dtype=np.int32)
    np.cumsum(np.repeat([len(c) for c in cols], sizes), out=indptr[1:])
    indices = np.concatenate([c for c, n in zip(cols, sizes) for _ in range(n)], dtype=np.int32)
    return scipy.sparse.csr_array((data, indices, indptr), (start[-1], start[-1]))


def _gamma_blocks(space: FockSpace, p) -> list | np.ndarray:
    """The blocks of Gamma(p) on the sectors 0..n_max, which are all of it.
    Diagonal p takes an exact product path and gives Gamma(p)'s diagonal
    instead, one vector.  Any other p, singular or not, is built sector by
    sector from Gamma(p) Omega = Omega and Gamma(p) a*(w) = a*(pw) Gamma(p):
    a basis state |n> whose lowest occupied mode is k equals a*_k |parent> /
    sqrt(n_k), where the parent has one quantum fewer in mode k (no occupied
    mode precedes k, so the fermionic sign is +1).  Its column is therefore
    the sector n-1 -> n block of a*(p e_k) applied to the parent's column,
    divided by sqrt(n_k).  A sector's entries of every a*_m are read once
    from the stacked tables of FockSpace.creation_rows, and each k fills the
    block sum_m p_mk a*_m in one assignment (m - e_m differs across m, so no
    entries collide).  In the graded lexicographic basis the states whose
    lowest mode is k form one run of a sector and their parents another, so
    each k takes one product on slices, with the parents' slice made
    contiguous so that it rounds as the gathered copy did.
    """
    p = require_square(np.asarray(p, dtype=complex))
    if p.shape[0] != space.d:
        raise ValueError(f"p is {p.shape}, expected {space.d}x{space.d}")
    start = space.sector_start
    if np.count_nonzero(p) == np.count_nonzero(np.diagonal(p)):
        diag = np.diag(p).tolist()
        return np.array([math.prod(map(pow, diag, occ)) for occ in space.basis], dtype=complex)
    lowest = np.argmax(space.occupations > 0, axis=1)
    low, weight = space.creation_rows(np.arange(space.d))
    out = [np.zeros((hi - lo, hi - lo), dtype=complex) for lo, hi in zip(start[:-1], start[1:])]
    out[0][0, 0] = 1.0
    # a parent lies in sector n - 1, so ascending n fills every parent first
    for n in range(1, space.n_max + 1):
        lo, hi, below = start[n], start[n + 1], start[n - 1]
        m, r = np.nonzero(weight[:, lo:hi])
        w, c = weight[m, lo + r], low[m, lo + r] - below
        block = np.zeros((hi - lo, lo - below), dtype=complex)
        runs = lo + np.flatnonzero(np.diff(lowest[lo:hi], prepend=-1, append=-1))
        for c0, c1 in zip(runs[:-1], runs[1:]):
            k = lowest[c0]
            block[r, c] = p[m, k] * w
            parents = out[n - 1][:, low[k, c0] - below:low[k, c1 - 1] - below + 1]
            np.divide(block @ np.ascontiguousarray(parents), weight[k, c0:c1],
                      out=out[n][:, c0 - lo:c1 - lo])
    return out


def exp_law(space1: FockSpace, space2: FockSpace, target: FockSpace | None = None):
    """The exponential-law map Gamma(Z1) (x) Gamma(Z2) -> Gamma(Z1 + Z2).

    Returns (u, target) where u is dim(target) x (dim1*dim2).  In the
    graded occupation bases the map sends |n> (x) |m> to the combined
    occupation state |n,m| with coefficient exactly 1 (the Z1 modes come
    first, so no fermionic reordering sign appears).  The target cutoff
    must hold every combined state, so the map is an isometry, u* u = 1.
    """
    if space1.statistics != space2.statistics:
        raise ValueError("statistics mismatch between the factors")
    stat = space1.statistics
    if target is None:
        target = FockSpace(stat, space1.d + space2.d, space1.n_max + space2.n_max)
    if target.statistics != stat or target.d != space1.d + space2.d:
        raise ValueError("target space has wrong statistics or dimension")
    if target.n_max < space1.n_max + space2.n_max:
        raise CutoffError(
            f"target cutoff {target.n_max} < {space1.n_max} + {space2.n_max}")
    u = np.zeros((target.dim, space1.dim * space2.dim), dtype=complex)
    occ = np.hstack([np.repeat(space1.occupations, space2.dim, axis=0),
                     np.tile(space2.occupations, (space1.dim, 1))])
    u[target.indices(occ), np.arange(len(occ))] = 1.0
    return u, target
