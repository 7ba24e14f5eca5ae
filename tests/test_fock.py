import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from fockforge.fock import (DIM_GUARD, CutoffError, FockSpace, _gamma_blocks, dgamma, exp_law,
                            gamma)
from fockforge.linalg import DENSE_BYTES_GUARD, _require_dense
from fockforge.ops import multi_create, squeezer


def test_dimensions():
    assert FockSpace("fermi", 2).dim == 4
    assert FockSpace("bose", 1, 5).dim == 6
    assert FockSpace("bose", 2, 3).dim == 10  # C(5,2)


def test_basis_is_graded_then_lexicographic():
    sp = FockSpace("bose", 2, 2)
    assert sp.basis == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    spf = FockSpace("fermi", 3)
    assert spf.basis[0] == (0, 0, 0)
    totals = [sum(occ) for occ in spf.basis]
    assert totals == sorted(totals)


def test_dimension_guard():
    with pytest.raises(CutoffError):
        FockSpace("bose", 6, 40)


def test_dense_byte_budget_reads_shapes_only():
    # 2**13 basis vectors fill the budget exactly; no dense operator is built here
    _require_dense(FockSpace("fermi", 13).dim)
    big = FockSpace("bose", 2, 200)
    assert big.dim == 20301 <= DIM_GUARD and 16 * big.dim**2 > DENSE_BYTES_GUARD
    for build in (lambda: _require_dense(big.dim),
                  lambda: _require_dense(FockSpace("fermi", 14).dim),
                  lambda: gamma(big, np.eye(2)), lambda: squeezer(big, 0.1 * np.eye(2))):
        with pytest.raises(CutoffError, match="over the budget"):
            build()


def test_bose_ladder_matrix():
    sp = FockSpace("bose", 1, 4)
    a_dag = sp.creation(0)
    assert np.allclose(np.diagonal(a_dag.toarray(), -1), [1, np.sqrt(2), np.sqrt(3), 2.0])
    assert np.allclose(a_dag @ sp.vacuum(), np.eye(5)[1])


def test_fermi_creation_d1():
    sp = FockSpace("fermi", 1)
    assert np.allclose(sp.creation(0).toarray(), [[0, 0], [1, 0]])


def test_fermi_car_exact():
    sp = FockSpace("fermi", 4)
    rng = np.random.default_rng(0)
    w1 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    w2 = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    a1, a2s = sp.annihilate(w1), sp.create(w2)
    anti = a1 @ a2s + a2s @ a1
    scale = np.linalg.norm(w1) * np.linalg.norm(w2)
    assert np.linalg.norm(anti - np.vdot(w1, w2) * np.eye(sp.dim), 2) <= 1e-13 * scale
    both = sp.create(w1) @ sp.create(w2) + sp.create(w2) @ sp.create(w1)
    assert np.linalg.norm(both.toarray(), 2) <= 1e-13 * scale


def test_annihilate_kills_vacuum():
    for sp in (FockSpace("fermi", 3), FockSpace("bose", 2, 4)):
        w = np.array([1.0, 2.0j] + [0.5] * (sp.d - 2))
        assert np.linalg.norm(sp.annihilate(w) @ sp.vacuum()) == 0.0


def test_dgamma_examples():
    sp = FockSpace("bose", 2, 3)
    n_op = dgamma(sp, np.eye(2))
    assert np.allclose(n_op.toarray(), np.diag(sp.total_numbers))
    assert not np.any(dgamma(sp, np.zeros((2, 2))).toarray())
    spf = FockSpace("fermi", 2)
    h = np.diag([1.5, 2.5])
    diag = np.diagonal(dgamma(spf, h).toarray()).real
    expect = [n1 * 1.5 + n2 * 2.5 for (n1, n2) in spf.basis]
    assert np.allclose(diag, expect)


def test_dgamma_lie_morphism():
    sp = FockSpace("bose", 2, 4)
    rng = np.random.default_rng(1)
    h1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    d1, d2 = dgamma(sp, h1), dgamma(sp, h2)
    lhs = d1 @ d2 - d2 @ d1
    rhs = dgamma(sp, h1 @ h2 - h2 @ h1)
    assert np.linalg.norm((lhs - rhs).toarray(), 2) <= 1e-9


def test_gamma_diagonal_and_parity():
    sp = FockSpace("bose", 1, 4)
    lam = 0.7 - 0.2j
    assert np.allclose(gamma(sp, np.array([[lam]])), np.diag([lam**n for n in range(5)]))
    for space in (FockSpace("bose", 2, 3), FockSpace("fermi", 3)):
        assert np.array_equal(gamma(space, -np.eye(space.d)), space.parity())


def test_gamma_fermi_diagonal_eigenvalues():
    sp = FockSpace("fermi", 2)
    a, b = 0.3, 1.7
    got = np.sort_complex(np.diagonal(gamma(sp, np.diag([a, b]))))
    assert np.allclose(np.sort_complex(np.array([1, a, b, a * b])), got)


def test_gamma_morphism_and_two_routes():
    rng = np.random.default_rng(2)
    for sp in (FockSpace("bose", 2, 5), FockSpace("fermi", 3)):
        p1 = rng.standard_normal((sp.d, sp.d)) + 1j * rng.standard_normal((sp.d, sp.d))
        p2 = rng.standard_normal((sp.d, sp.d)) + 1j * rng.standard_normal((sp.d, sp.d))
        p1 /= 2.0
        p2 /= 2.0
        lhs = gamma(sp, p2) @ gamma(sp, p1)
        assert np.linalg.norm(lhs - gamma(sp, p2 @ p1), 2) <= 1e-9
        # oracle: Gamma(p) = exp(dGamma(log p)) for invertible p
        oracle = scipy.linalg.expm(dgamma(sp, scipy.linalg.logm(p1)).toarray())
        assert np.linalg.norm(gamma(sp, p1) - oracle, 2) <= 1e-10
    assert np.allclose(gamma(FockSpace("bose", 2, 3), np.eye(2)), np.eye(10))


def test_gamma_exp_identity():
    sp = FockSpace("fermi", 3)
    rng = np.random.default_rng(3)
    h = rng.standard_normal((3, 3))
    h = h + h.T
    lhs = gamma(sp, scipy.linalg.expm(1j * h))
    rhs = scipy.linalg.expm(1j * dgamma(sp, h).toarray())
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-8


def test_gamma_singular_fallback():
    sp = FockSpace("bose", 2, 3)
    p = np.array([[0.0, 0.0], [0.0, 0.5]])
    g = gamma(sp, p)
    # vacuum stays, any occupation of mode 0 is annihilated
    assert g[0, 0] == 1.0
    idx = sp.index[(1, 0)]
    assert np.linalg.norm(g[:, idx]) == 0.0


def test_gamma_needs_no_svd_logm_or_expm(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("gamma must not call svd, logm or expm")

    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(scipy.linalg, "logm", forbidden)
    monkeypatch.setattr(scipy.linalg, "expm", forbidden)
    invertible = np.array([[0.6, 0.3j], [-0.2, 0.5]])
    singular = np.array([[0.4, 0.2], [0.8, 0.4]])
    for sp in (FockSpace("bose", 2, 4), FockSpace("fermi", 2)):
        for p in (invertible, singular):
            g = gamma(sp, p)
            one = [sp.index[(1, 0)], sp.index[(0, 1)]]
            assert np.array_equal(g[:, 0], sp.vacuum())
            assert np.allclose(g[np.ix_(one, one)], p)


def test_lambda_values():
    sp = FockSpace("bose", 1, 4)
    assert np.allclose(np.diagonal(sp.lambda_op()).real, [1, 1, -1, -1, 1])
    assert np.allclose(sp.lambda_op() @ sp.lambda_op(), np.eye(sp.dim))


def test_exp_law_vacuum_dims_isometry():
    f1, f2 = FockSpace("fermi", 1), FockSpace("fermi", 1)
    u, tgt = exp_law(f1, f2)
    assert tgt.dim == 4 and u.shape == (4, 4)
    assert np.allclose(u @ np.kron(f1.vacuum(), f2.vacuum()), tgt.vacuum())
    assert np.linalg.norm(u.conj().T @ u - np.eye(4), 2) <= 1e-10
    b1, b2 = FockSpace("bose", 1, 3), FockSpace("bose", 1, 2)
    ub, tb = exp_law(b1, b2)
    assert tb.n_max == 5
    assert np.linalg.norm(ub.conj().T @ ub - np.eye(b1.dim * b2.dim), 2) <= 1e-10


def test_exp_law_errors():
    with pytest.raises(ValueError):
        exp_law(FockSpace("fermi", 1), FockSpace("bose", 1, 2))
    small = FockSpace("bose", 2, 3)
    with pytest.raises(CutoffError):
        exp_law(FockSpace("bose", 1, 2), FockSpace("bose", 1, 2), target=small)


def test_exp_law_intertwines_dgamma_and_gamma():
    rng = np.random.default_rng(4)
    s1, s2 = FockSpace("bose", 1, 3), FockSpace("bose", 1, 3)
    u, tgt = exp_law(s1, s2)
    h1 = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
    h2 = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
    hsum = scipy.linalg.block_diag(h1, h2)
    lhs = dgamma(tgt, hsum) @ u
    rhs = u @ (np.kron(dgamma(s1, h1).toarray(), np.eye(s2.dim))
               + np.kron(np.eye(s1.dim), dgamma(s2, h2).toarray()))
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-9
    p1 = 0.5 * (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)))
    p2 = 0.5 * (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)))
    lhs2 = gamma(tgt, scipy.linalg.block_diag(p1, p2)) @ u
    rhs2 = u @ np.kron(gamma(s1, p1), gamma(s2, p2))
    assert np.linalg.norm(lhs2 - rhs2, 2) <= 1e-9


def test_exp_law_two_particle_prefactor():
    # the sqrt(2!/1!1!) normalization: one particle on each side lands on
    # the normalized two-particle state, matching a*(e1) a*(e2) vacuum
    f1, f2 = FockSpace("fermi", 1), FockSpace("fermi", 1)
    u, tgt = exp_law(f1, f2)
    pair = u @ np.kron(f1.creation(0) @ f1.vacuum(), f2.creation(0) @ f2.vacuum())
    direct = tgt.creation(0) @ tgt.creation(1) @ tgt.vacuum()
    assert np.allclose(pair, direct)
    assert np.linalg.norm(pair) == pytest.approx(1.0)


def test_exp_law_parity_string_for_fermions():
    # a*(0, w) on the sum space corresponds to parity (x) a*(w)
    f1, f2 = FockSpace("fermi", 2), FockSpace("fermi", 1)
    u, tgt = exp_law(f1, f2)
    w = np.array([0.3 + 1j])
    lhs = tgt.create(np.concatenate([np.zeros(2), w])) @ u
    rhs = u @ np.kron(f1.parity(), f2.create(w).toarray())
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-12


def test_lambda_exp_law_identity():
    # Lambda U = U (Lambda1 (x) Lambda2) (-1)^{N1 (x) N2}
    f1, f2 = FockSpace("fermi", 2), FockSpace("fermi", 2)
    u, tgt = exp_law(f1, f2)
    cross = np.diag([(-1.0) ** (sum(o1) * sum(o2))
                     for o1 in f1.basis for o2 in f2.basis]).astype(complex)
    lhs = tgt.lambda_op() @ u
    rhs = u @ np.kron(f1.lambda_op(), f2.lambda_op()) @ cross
    assert np.linalg.norm(lhs - rhs, 2) == 0.0


def _creation_oracle(space, k):
    """a*_k read off the occupation basis: |n> -> sqrt(n_k + 1) |n + e_k> for
    bosons below the cutoff, (-1)^(n_0 + ... + n_{k-1}) |n + e_k> for fermions
    with mode k empty."""
    index = {occ: i for i, occ in enumerate(space.basis)}
    a = np.zeros((space.dim, space.dim), dtype=complex)
    for i, occ in enumerate(space.basis):
        up = occ[:k] + (occ[k] + 1,) + occ[k + 1:]
        if up not in index:
            continue
        a[index[up], i] = (-1.0) ** sum(occ[:k]) if space.is_fermi else math.sqrt(occ[k] + 1)
    return a


SPARSE_CORE_SPACES = [("bose", 1, 6), ("bose", 2, 4), ("bose", 3, 3),
                      ("fermi", 1, None), ("fermi", 3, None), ("fermi", 5, None)]


@pytest.mark.parametrize("spec", SPARSE_CORE_SPACES)
def test_sparse_core_matches_basis_oracle(spec):
    sp = FockSpace(*spec)
    rng = np.random.default_rng(sp.dim)
    oracle = [_creation_oracle(sp, k) for k in range(sp.d)]
    for k in range(sp.d):
        assert scipy.sparse.issparse(sp.creation(k))
        assert np.array_equal(sp.creation(k).toarray(), oracle[k])
    u, v = (rng.standard_normal(sp.d) + 1j * rng.standard_normal(sp.d) for _ in range(2))
    u[0] = 0.0  # a zero coefficient drops its mode
    h = rng.standard_normal((sp.d, sp.d)) + 1j * rng.standard_normal((sp.d, sp.d))
    want_up = sum(u[k] * oracle[k] for k in range(sp.d))
    want_down = sum(v[k] * oracle[k] for k in range(sp.d)).conj().T
    want_dg = sum(h[j, k] * oracle[j] @ oracle[k].conj().T
                  for j in range(sp.d) for k in range(sp.d))
    for got, want in ((sp.create(u), want_up), (sp.annihilate(v), want_down),
                      (sp.ladder(u, v), want_up + want_down), (dgamma(sp, h), want_dg)):
        assert isinstance(got, scipy.sparse.csr_array)
        assert np.max(np.abs(got.toarray() - want)) <= 1e-14 * max(1.0, np.max(np.abs(want)))
    for op in (sp.create(v), sp.annihilate(v)):
        assert op.nnz <= sp.d * sp.dim


def test_sparse_core_allocates_no_dense_matrix():
    # a dense dim x dim complex matrix at dim 1771 is 50 MB
    sp = FockSpace("bose", 3, 20)
    rng = np.random.default_rng(5)
    w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    tracemalloc.start()
    try:
        sp.create(w)
        _, peak_create = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        dgamma(sp, h)
        _, peak_dgamma = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sp.dim == 1771
    assert peak_create < 2e6 and peak_dgamma < 2e6


# the routes that read a*_k from a column view or from its CSR arrays, kept as
# references for the row tables of FockSpace.creation_rows
def raising_creation(space, k):
    """a*_k from its column view: basis vector i goes to weight[i] e_target[i],
    with weight 0 where a*_k leaves the space (top sector, or mode k full)."""
    occ = space.occupations
    if space.is_fermi:
        ok = occ[:, k] == 0
        weight = (-1.0) ** occ[:, :k].sum(axis=1)
    else:
        ok = space.total_numbers < space.n_max
        weight = np.sqrt(occ[:, k] + 1.0)
    target = np.zeros(space.dim, dtype=np.int64)
    target[ok] = space.indices(occ[ok] + np.eye(space.d, dtype=np.int64)[k])
    weight = np.where(ok, weight, 0.0)
    cols = np.flatnonzero(weight)
    indptr = np.zeros(space.dim + 1, dtype=np.int64)
    indptr[target[cols] + 1] = 1
    return scipy.sparse.csr_array((weight[cols].astype(complex), cols, np.cumsum(indptr)),
                                  shape=(space.dim, space.dim))


def stored_csr(cols, vals):
    stored = vals != 0
    indptr = np.zeros(len(vals) + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(stored, axis=1), out=indptr[1:])
    return scipy.sparse.csr_array((vals[stored], cols[stored], indptr), shape=(len(vals),) * 2)


def csr_ladder(space, u, v):
    """a*(u) + a(v), each term read from the indptr, indices and data of a*_k."""
    terms = ([(k, u[k], False) for k in np.flatnonzero(u)]
             + [(k, np.conj(v[k]), True) for k in np.flatnonzero(v)[::-1]])
    cols = np.zeros((space.dim, len(terms)), dtype=np.int64)
    vals = np.zeros((space.dim, len(terms)), dtype=complex)
    for j, (k, coeff, lowers) in enumerate(terms):
        a = raising_creation(space, k)
        filled = a.indptr[1:] != a.indptr[:-1]
        if lowers:
            cols[a.indices, j] = np.flatnonzero(filled)
            vals[a.indices, j] = coeff * a.data
        else:
            cols[filled, j] = a.indices
            vals[filled, j] = coeff * a.data
    return stored_csr(cols, vals)


def csr_pair_creator(space, c):
    """a*(c) from lowering tables rebuilt out of the CSR arrays of a*_k."""
    low = np.zeros((space.d, space.dim), dtype=np.int64)
    weight = np.zeros((space.d, space.dim))
    for k in range(space.d):
        a = raising_creation(space, k)
        filled = np.flatnonzero(np.diff(a.indptr))
        low[k, filled] = a.indices
        weight[k, filled] = a.data.real
    vals = c[:, :, None] * weight[:, None, :] * weight[:, low].swapaxes(0, 1)
    j, k = np.triu_indices(space.d)
    pair = vals[j, k]
    off = j != k
    pair[off] += vals[k[off], j[off]]
    return stored_csr(low[:, low].swapaxes(0, 1)[j, k].T, pair.T)


def batched_gamma_blocks(space, p):
    """The sector blocks of Gamma(p) for non-diagonal p, batched by (k, n) in a
    loop over the basis states and read from the CSR arrays of a*_m."""
    start = space.sector_start
    batches = {}
    for j, occ in enumerate(space.basis[1:], start=1):
        k = next(m for m, nm in enumerate(occ) if nm)
        parent = space.index[occ[:k] + (occ[k] - 1,) + occ[k + 1:]]
        n = sum(occ)
        cols, parents, norms = batches.setdefault((k, n), ([], [], []))
        cols.append(j - start[n])
        parents.append(parent - start[n - 1])
        norms.append(math.sqrt(occ[k]))
    creators = [raising_creation(space, m) for m in range(space.d)]
    rows = [np.flatnonzero(np.diff(a.indptr)) for a in creators]
    out = [np.zeros((hi - lo, hi - lo), dtype=complex) for lo, hi in zip(start[:-1], start[1:])]
    out[0][0, 0] = 1.0
    for k in reversed(range(space.d)):
        for n in range(1, space.n_max + 1):
            if (k, n) not in batches:
                continue
            cols, parents, norms = batches[(k, n)]
            block = np.zeros((start[n + 1] - start[n], start[n] - start[n - 1]), dtype=complex)
            for m in np.flatnonzero(p[:, k]):
                a = creators[m]
                lo, hi = a.indptr[start[n]], a.indptr[start[n + 1]]
                block[rows[m][lo:hi] - start[n], a.indices[lo:hi] - start[n - 1]] = \
                    p[m, k] * a.data[lo:hi]
            out[n][:, cols] = (block @ out[n - 1][:, parents]) / norms
    return out


ROW_TABLE_SPACES = ([("bose", d, n) for d in (1, 2, 3, 4) for n in (0, 1, 2, 5, 9)]
                    + [("fermi", d, None) for d in range(1, 9)])


def same_csr(got, want):
    return (isinstance(got, scipy.sparse.csr_array) and np.array_equal(got.data, want.data)
            and np.array_equal(got.indices, want.indices)
            and np.array_equal(got.indptr, want.indptr))


@pytest.mark.parametrize("spec", ROW_TABLE_SPACES)
def test_row_table_builders_match_csr_routes_bit_for_bit(spec):
    sp = FockSpace(*spec)
    rng = np.random.default_rng(sp.dim + 100 * sp.d)
    for k in range(sp.d):
        assert same_csr(sp.creation(k), raising_creation(sp, k))
    u, v = (rng.standard_normal(sp.d) + 1j * rng.standard_normal(sp.d) for _ in range(2))
    u[0] = 0.0
    zero = np.zeros(sp.d)
    for x, y in ((u, v), (u, zero), (zero, v)):
        assert same_csr(sp.ladder(x, y), csr_ladder(sp, x, y))
    c = rng.standard_normal((sp.d, sp.d)) + 1j * rng.standard_normal((sp.d, sp.d))
    c = c - sp.sign * c.T
    assert same_csr(multi_create(sp, c), csr_pair_creator(sp, c))
    p = rng.standard_normal((sp.d, sp.d)) + 1j * rng.standard_normal((sp.d, sp.d))
    singular = p @ np.diag(np.arange(sp.d) > 0)
    for m in (p, np.eye(sp.d)[rng.permutation(sp.d)][:, ::-1], singular):
        if np.any(m - np.diag(np.diag(m))):
            for got, want in zip(_gamma_blocks(sp, m), batched_gamma_blocks(sp, m), strict=True):
                assert np.array_equal(got, want)


def test_creation_rows_are_read_only():
    sp = FockSpace("bose", 2, 3)
    low, weight = sp.creation_rows(1)
    assert sp.creation_rows(1)[0] is low
    for table in (low, weight):
        with pytest.raises(ValueError):
            table[0] = 1
    # row i holds weight[i] at column low[i]; rows with mode 1 empty hold nothing
    assert np.array_equal(sp.creation(1).toarray()[np.arange(sp.dim), low], weight)
    assert not np.any(weight[sp.occupations[:, 1] == 0])


@pytest.mark.parametrize("spec", ROW_TABLE_SPACES)
def test_annihilation_matches_the_transpose_route_bit_for_bit(spec):
    sp = FockSpace(*spec)
    for k in range(sp.d):
        assert same_csr(sp.annihilation(k), raising_creation(sp, k).conj().T.tocsr())


@pytest.mark.parametrize("spec", ROW_TABLE_SPACES)
def test_lowest_mode_runs_and_their_parents_are_contiguous(spec):
    # _gamma_blocks reads the states of each lowest mode k, and their parents
    # (one quantum fewer in mode k), as column slices
    sp = FockSpace(*spec)
    lowest = np.argmax(sp.occupations > 0, axis=1)
    for n in range(1, sp.n_max + 1):
        lo, hi = sp.sector_start[n], sp.sector_start[n + 1]
        for k in range(sp.d):
            run = lo + np.flatnonzero(lowest[lo:hi] == k)
            if len(run):
                parents = sp.indices(sp.occupations[run] - np.eye(sp.d, dtype=np.int64)[k])
                for ids in (run, parents):
                    assert np.array_equal(ids, np.arange(ids[0], ids[-1] + 1))


@pytest.mark.parametrize("spec", ROW_TABLE_SPACES)
def test_diagonal_gamma_is_the_scalar_product_bit_for_bit(spec):
    sp = FockSpace(*spec)
    rng = np.random.default_rng(sp.dim + 100 * sp.d)
    diag = rng.standard_normal(sp.d) + 1j * rng.standard_normal(sp.d)
    want = np.array([math.prod(complex(diag[k]) ** nk for k, nk in enumerate(occ))
                     for occ in sp.basis], dtype=complex)
    blocks = _gamma_blocks(sp, np.diag(diag))
    assert [len(b) for b in blocks] == np.diff(sp.sector_start).tolist()
    assert np.array_equal(np.concatenate(blocks), want)
    assert np.array_equal(gamma(sp, np.diag(diag)), np.diag(want))
