import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from fockforge import bogolubov, ops
from fockforge.fock import FockSpace, _gamma_blocks, gamma
from fockforge.linalg import dense, sqrtm_psd
from fockforge.ops import (PAULI_1, PAULI_2, PAULI_3, DoubledVector, _apply_squeezer,
                           _implementer,
                           euclidean_form, field,
                           gaussian_normalization, gaussian_vector, jordan_wigner, multi_create,
                           pair_exponential_vacuum, q_operator, squeezer, symplectic_form, weyl)
from fockforge.paulifierz import apply_pair_squeezer
from fockforge.thermal import pair_kernel


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_field_zero_and_hermitian(rng):
    sp = FockSpace("fermi", 2)
    assert not np.any(field(sp, DoubledVector.real_point(np.zeros(2))).toarray())
    y = DoubledVector.real_point(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    phi = field(sp, y).toarray()
    assert np.linalg.norm(phi - phi.conj().T, 2) <= 1e-14 * np.linalg.norm(phi, 2)


def test_fermi_field_square_and_spectrum(rng):
    sp = FockSpace("fermi", 3)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    z /= np.linalg.norm(z)
    y = DoubledVector.real_point(z)
    phi = field(sp, y).toarray()
    alpha = euclidean_form(y, y).real
    assert np.linalg.norm(phi @ phi - alpha * np.eye(sp.dim), 2) <= 1e-13
    evals = np.unique(np.round(np.linalg.eigvalsh(phi), 10))
    assert np.allclose(evals, [-1.0, 1.0])


def test_fermi_car_random(rng):
    sp = FockSpace("fermi", 4)
    for _ in range(5):
        y1 = DoubledVector.real_point(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        y2 = DoubledVector.real_point(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        f1, f2 = field(sp, y1), field(sp, y2)
        target = 2 * euclidean_form(y1, y2) * np.eye(sp.dim)
        assert np.linalg.norm(f1 @ f2 + f2 @ f1 - target, 2) <= 1e-12


def test_bose_heisenberg_defect_top_sector_only(rng):
    sp = FockSpace("bose", 2, 6)
    y1 = DoubledVector.real_point(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    y2 = DoubledVector.real_point(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    f1, f2 = field(sp, y1), field(sp, y2)
    comm = f1 @ f2 - f2 @ f1 - 1j * symplectic_form(y1, y2) * np.eye(sp.dim)
    sub = sp.sector_projector(sp.n_max - 1)
    assert np.linalg.norm(sub @ comm @ sub, 2) <= 1e-12
    assert np.linalg.norm(comm, 2) > 1.0  # the defect sits in the top sector


def test_bose_identified_field(rng):
    sp = FockSpace("bose", 1, 6)
    w = np.array([0.4 - 0.3j])
    y = DoubledVector.real_point(w / np.sqrt(2))
    expect = (sp.create(w) + sp.annihilate(w)) / np.sqrt(2)
    assert np.allclose(field(sp, y).toarray(), expect.toarray())


def test_weyl_basics():
    sp = FockSpace("bose", 1, 10)
    y0 = DoubledVector.real_point(np.zeros(1))
    assert np.allclose(weyl(sp, y0), np.eye(sp.dim))
    y = DoubledVector.real_point(np.array([0.2 + 0.1j]))
    w = weyl(sp, y)
    assert np.linalg.norm(w.conj().T @ w - np.eye(sp.dim), 2) <= 1e-10
    yneg = DoubledVector.real_point(-np.array([0.2 + 0.1j]))
    assert np.linalg.norm(w.conj().T - weyl(sp, yneg), 2) <= 1e-12
    with pytest.raises(ValueError):
        weyl(FockSpace("fermi", 1), y0)


def test_weyl_relation_regression_bound():
    # defect window pinned at half the cutoff; amplitudes up to 0.25
    sp = FockSpace("bose", 1, 12)
    window = sp.sector_projector(6)
    for amp in (0.1, 0.25):
        z1 = amp * np.array([0.8 + 0.6j])
        z2 = amp * np.array([-0.3 + 0.9j])
        y1, y2 = DoubledVector.real_point(z1), DoubledVector.real_point(z2)
        y12 = DoubledVector(y1.z1 + y2.z1, y1.z2bar + y2.z2bar)
        phase = np.exp(-0.5j * symplectic_form(y1, y2))
        defect = weyl(sp, y1) @ weyl(sp, y2) - phase * weyl(sp, y12)
        assert np.linalg.norm(window @ defect @ window, 2) <= 1e-8


def test_multi_create_zero_and_product(rng):
    spf = FockSpace("fermi", 3)
    assert not np.any(dense(multi_create(spf, np.zeros((3, 3)))))
    w1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    w2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    kernel = 0.5 * (np.outer(w1, w2) - np.outer(w2, w1))
    lhs = dense(multi_create(spf, kernel))
    rhs = (spf.create(w1) @ spf.create(w2)).toarray()
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-10 * max(1, np.linalg.norm(rhs, 2))
    spb = FockSpace("bose", 2, 6)
    kernel_s = 0.5 * (np.outer(w1[:2], w2[:2]) + np.outer(w2[:2], w1[:2]))
    lhs_b = dense(multi_create(spb, kernel_s))
    rhs_b = (spb.create(w1[:2]) @ spb.create(w2[:2])).toarray()
    assert np.linalg.norm(lhs_b - rhs_b, 2) <= 1e-10 * np.linalg.norm(rhs_b, 2)


def test_multi_create_pair_state():
    sp = FockSpace("fermi", 2)
    c = 0.5 * np.array([[0, 1], [-1, 0]], dtype=complex)
    vec = multi_create(sp, c) @ sp.vacuum()
    direct = sp.creation(0) @ sp.creation(1) @ sp.vacuum()
    assert np.allclose(vec, direct)
    assert np.linalg.norm(vec) == pytest.approx(1.0)


def test_multi_create_symmetry_guard():
    with pytest.raises(ValueError):
        multi_create(FockSpace("fermi", 2), np.eye(2))
    with pytest.raises(ValueError):
        multi_create(FockSpace("bose", 2, 3), np.array([[0, 1], [-1, 0]]))


def test_pair_exponential_matches_series():
    # scalar kernel: components of exp(a*(c)/2) vacuum follow c^k sqrt((2k)!)/(2^k k!)
    import math

    sp = FockSpace("bose", 1, 12)
    c = 0.4
    vec = pair_exponential_vacuum(sp, np.array([[c]], dtype=complex))
    for k in range(6):
        expect = c**k * np.sqrt(float(math.factorial(2 * k))) / (2**k * math.factorial(k))
        assert vec[sp.indices((2 * k,))[0]] == pytest.approx(expect, rel=1e-12)


def test_gaussian_vector_trivial_and_normalization(rng):
    spf = FockSpace("fermi", 2)
    assert np.allclose(gaussian_vector(spf, np.zeros((2, 2))), spf.vacuum())
    t = 0.8
    c = np.array([[0, t], [-t, 0]], dtype=complex)
    assert gaussian_normalization(spf, c) == pytest.approx((1 + t * t) ** -0.5)
    om = gaussian_vector(spf, c)
    assert np.linalg.norm(om) == pytest.approx(1.0)
    assert om[0].real > 0


def test_gaussian_kernel_conditions(rng):
    spf = FockSpace("fermi", 3)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = (a - a.T) / 2
    om = gaussian_vector(spf, c)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    op = spf.annihilate(z) + spf.create(c @ np.conj(z))
    assert np.linalg.norm(op @ om) <= 1e-12
    spb = FockSpace("bose", 1, 20)
    cb = np.array([[0.5]], dtype=complex)
    omb = gaussian_vector(spb, cb)
    assert abs(np.linalg.norm(omb) - 1.0) <= 1e-7
    opb = spb.annihilate(z[:1]) - spb.create(cb @ np.conj(z[:1]))
    assert np.linalg.norm(opb @ omb) <= 1e-8


def test_gaussian_contraction_guard():
    with pytest.raises(ValueError):
        gaussian_vector(FockSpace("bose", 1, 5), np.array([[1.2]]))
    with pytest.raises(ValueError):
        squeezer(FockSpace("bose", 1, 5), np.array([[1.0]]))


def test_gaussian_two_routes(rng):
    # series + determinant vs series + explicit normalization
    spf = FockSpace("fermi", 4)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = (a - a.T) / 2
    raw = pair_exponential_vacuum(spf, c)
    om = gaussian_vector(spf, c)
    assert np.linalg.norm(om - raw / np.linalg.norm(raw)) <= 1e-12


def test_squeezer_identity_and_unitarity(rng):
    spf = FockSpace("fermi", 3)
    assert np.allclose(dense(squeezer(spf, np.zeros((3, 3)))), np.eye(spf.dim))
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = (a - a.T) / 2
    r = dense(squeezer(spf, c))
    assert np.linalg.norm(r.conj().T @ r - np.eye(spf.dim), 2) <= 1e-12
    om = gaussian_vector(spf, c)
    assert np.linalg.norm(r @ om - spf.vacuum()) <= 1e-12


def test_squeezer_bose_vacuum_map():
    sp = FockSpace("bose", 1, 24)
    c = np.array([[0.3]], dtype=complex)
    r = squeezer(sp, c)
    om = gaussian_vector(sp, c)
    assert np.linalg.norm(r @ om - sp.vacuum()) <= 1e-7


def test_squeezer_conjugation_signs(rng):
    # bosons: a*(z) -> a*(pz) + a(p c conj z); fermions get the minus sign
    spb = FockSpace("bose", 1, 24)
    cb = np.array([[0.3]], dtype=complex)
    rb = dense(squeezer(spb, cb))
    p = np.linalg.inv(sqrtm_psd(np.eye(1) - cb @ cb.conj().T))
    z = np.array([1.0 + 0.2j])
    sub = spb.sector_projector(4)
    lhs = rb @ spb.create(z) @ rb.conj().T
    rhs = spb.create(p @ z) + spb.annihilate(p @ cb @ np.conj(z))
    assert np.linalg.norm(sub @ (lhs - rhs) @ sub, 2) <= 1e-7
    spf = FockSpace("fermi", 2)
    cf = np.array([[0, 0.6], [-0.6, 0]], dtype=complex)
    rf = dense(squeezer(spf, cf))
    pf = np.linalg.inv(sqrtm_psd(np.eye(2) + cf @ cf.conj().T))
    zf = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    lhs_f = rf @ spf.create(zf) @ rf.conj().T
    rhs_f = spf.create(pf @ zf) - spf.annihilate(pf @ cf @ np.conj(zf))
    assert np.linalg.norm(lhs_f - rhs_f, 2) <= 1e-12


@pytest.mark.parametrize("statistics, d, n_max", [("bose", 1, 9), ("bose", 3, 5),
                                                  ("fermi", 4, None)])
def test_squeezer_keeps_parity(rng, statistics, d, n_max):
    # every factor of R changes N by an even number
    space = FockSpace(statistics, d, n_max)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    c = a + a.T if statistics == "bose" else a - a.T
    r = squeezer(space, 0.4 * c / np.linalg.norm(c, 2))
    odd = space.total_numbers % 2
    rows = np.repeat(np.arange(space.dim), np.diff(r.indptr))
    assert np.array_equal(odd[rows], odd[r.indices])  # no stored entry joins the parities
    assert np.all(np.abs(r.diagonal()) > 0)


@pytest.mark.filterwarnings("ignore:cutoff:RuntimeWarning")
@pytest.mark.parametrize("spec", [("bose", 1, 0), ("bose", 1, 9), ("bose", 3, 12),
                                  ("fermi", 1, None), ("fermi", 4, None)])
def test_implementers_store_their_two_parity_blocks(spec):
    # every row of sector n stores the whole parity class of n, and nothing else;
    # implementers and both branches of Gamma(p) index in int32
    space = FockSpace(*spec)
    rng = np.random.default_rng(space.dim)
    a, p = (rng.standard_normal((space.d,) * 2) + 1j * rng.standard_normal((space.d,) * 2)
            for _ in range(2))
    c = 0.35 * (a - space.sign * a.T) / max(np.linalg.norm(a - space.sign * a.T, 2), 1.0)
    blocks = bogolubov.random_blocks(space.d, space.statistics, rng)
    built = [squeezer(space, c), bogolubov.shale_implementer(space, blocks),
             *bogolubov.metaplectic_pair(space, blocks)]
    odd = space.total_numbers % 2
    for u in built:
        rows = np.repeat(np.arange(space.dim), np.diff(u.indptr))
        assert u.nnz == sum(np.count_nonzero(odd == parity) ** 2 for parity in (0, 1))
        assert np.array_equal(odd[rows], odd[u.indices])
    for op in built + [gamma(space, p), gamma(space, np.diag(np.diag(p)))]:
        assert op.indices.dtype == op.indptr.dtype == np.int32


def test_apply_squeezer_on_column_groups(rng):
    # bose d = 3 at cutoff 12 forms three column groups in ops._implementer_matrix
    space = FockSpace("bose", 3, 12)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = 0.35 * (a + a.T) / np.linalg.norm(a + a.T, 2)
    x = rng.standard_normal((space.dim, 5)) + 1j * rng.standard_normal((space.dim, 5))
    assert np.max(np.abs(_apply_squeezer(space, c, x) - squeezer(space, c) @ x)) <= 1e-13


def test_one_group_spaces_take_no_slices(monkeypatch):
    # a space of one column group runs the series on the whole space, as does
    # _apply_squeezer on a general x; a multi-group space slices per window
    sliced = []
    for cls in (scipy.sparse.csr_array, scipy.sparse.csc_array):
        def counted(self, key, getitem=cls.__getitem__):
            sliced.append(key)
            return getitem(self, key)
        monkeypatch.setattr(cls, "__getitem__", counted)
    for space in (FockSpace("bose", 1, 32), FockSpace("fermi", 3), FockSpace("bose", 3, 12)):
        a = np.arange(space.d**2, dtype=complex).reshape(space.d, space.d) / space.d**2
        c = 0.3 * (a - space.sign * a.T)
        _apply_squeezer(space, c, np.ones((space.dim, 2)))
        assert sliced == []
        squeezer(space, c)
        assert bool(sliced) == (space.dim == 455)


def test_squeezer_peak_memory_is_near_its_output(rng):
    # Gamma(m) is built as its sector blocks, the series run on sector windows and
    # only the two parity blocks of R are stored, so no dim x dim array is built
    space = FockSpace("bose", 3, 12)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = 0.35 * (a + a.T) / np.linalg.norm(a + a.T, 2)
    squeezer(space, c)  # fills the creation cache of space
    tracemalloc.start()
    try:
        squeezer(space, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16 * space.dim**2  # bytes of the dense R


def ix_implementer_matrix(space, pref, a_left, m, a_right, t):
    """ops._implementer_matrix with each column group in one pass and its columns
    scattered by one np.ix_ per parity class, the reference for the slabs and
    for the scatter by row sector."""
    g = _gamma_blocks(space, m)
    start, groups, hi = space.sector_start, [], space.n_max
    nnz = a_left.indptr + a_right.indptr
    while hi >= 0:
        lo = hi if nnz[start[hi + 1]] * start[hi + 1] > ops._GROUP_WORK else 0
        while start[hi + 1] - start[lo] < start[lo]:
            lo -= 1
        groups.append((lo, hi))
        hi = lo - 1
    classes = [np.flatnonzero(space.total_numbers % 2 == p) for p in (0, 1)]
    out = np.zeros((space.dim, space.dim), dtype=complex)
    for lo, hi in groups:
        cols = [cls[np.searchsorted(cls, start[lo]):np.searchsorted(cls, start[hi + 1])]
                for cls in classes]
        y = np.zeros((space.dim, max(map(len, cols))), dtype=complex)
        for c in cols:
            y[c, np.arange(len(c))] = 1.0
        y = _implementer(space, pref, a_left, g, a_right, t,
                         None if len(groups) == 1 else (lo, hi))(y)
        for cls, c in zip(classes, cols):
            out[np.ix_(cls, c)] = y[cls, :len(c)]
    return out


# the operator-build spaces, small spaces of one and of several sectors per group, a
# space of three groups (157, 91 and 50 shared columns) and one whose widest group
# (163 columns) ends in a slab of 35
IMPLEMENTER_SPACES = [("bose", 1, 32), ("bose", 2, 28), ("bose", 4, 10), ("fermi", 8, None),
                      ("fermi", 2, None), ("fermi", 3, None), ("bose", 1, 20), ("bose", 3, 12),
                      ("fermi", 9, None)]


@pytest.mark.filterwarnings("ignore:cutoff:RuntimeWarning")
@pytest.mark.parametrize("spec", IMPLEMENTER_SPACES)
def test_implementers_match_the_ix_scatter_bit_for_bit(monkeypatch, spec):
    space = FockSpace(*spec)
    rng = np.random.default_rng(space.dim)
    a = rng.standard_normal((space.d, space.d)) + 1j * rng.standard_normal((space.d, space.d))
    c = 0.35 * (a - space.sign * a.T) / np.linalg.norm(a - space.sign * a.T, 2)
    blocks = bogolubov.random_blocks(space.d, space.statistics, rng)
    got = squeezer(space, c), bogolubov.shale_implementer(space, blocks)
    monkeypatch.setattr(ops, "_implementer_matrix", ix_implementer_matrix)
    monkeypatch.setattr(bogolubov, "_implementer_matrix", ix_implementer_matrix)
    want = squeezer(space, c), bogolubov.shale_implementer(space, blocks)
    for g, w in zip(got, want):
        assert np.array_equal(dense(g), w)


def slab_widths(monkeypatch):
    """The column count of every pass of an ops._implementer map, as it runs."""
    widths = []

    def counted(*args):
        apply = _implementer(*args)

        def counted_apply(x):
            widths.append(x.shape[1])
            return apply(x)
        return counted_apply
    monkeypatch.setattr(ops, "_implementer", counted)
    return widths


def test_a_slab_that_would_be_a_lone_column_joins_the_slab_before(monkeypatch):
    # at 16 columns a slab, the groups of 88 and 81 shared columns of bose d = 2 at
    # cutoff 24 end in slabs of 8 and 17: the 81st column runs with the 16 before it
    space = FockSpace("bose", 2, 24)
    rng = np.random.default_rng(space.dim)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    c = 0.35 * (a + a.T) / np.linalg.norm(a + a.T, 2)
    pref, ac, m = ops._squeezer_factors(space, c)
    want = ix_implementer_matrix(space, pref, ac, m, ac, -0.5)
    monkeypatch.setattr(ops, "_SLAB", 16)
    widths = slab_widths(monkeypatch)
    assert np.array_equal(dense(squeezer(space, c)), want)
    assert widths == [16] * 5 + [8] + [16] * 4 + [17]


def test_a_group_slices_its_windows_once_however_many_slabs(monkeypatch):
    # bose d = 3 at cutoff 12 forms groups of 157, 91 and 50 shared columns, which run
    # in 3, 2 and 1 slabs and take the slices that one pass per group takes
    space = FockSpace("bose", 3, 12)
    a = np.arange(9, dtype=complex).reshape(3, 3) / 9
    c = 0.3 * (a + a.T)
    sliced = []
    for cls in (scipy.sparse.csr_array, scipy.sparse.csc_array):
        def counted(self, key, getitem=cls.__getitem__):
            sliced.append(key)
            return getitem(self, key)
        monkeypatch.setattr(cls, "__getitem__", counted)
    widths = slab_widths(monkeypatch)
    squeezer(space, c)
    in_slabs = len(sliced)
    assert widths == [64, 64, 29, 64, 27, 50]
    sliced.clear()
    monkeypatch.setattr(ops, "_SLAB", space.dim)
    squeezer(space, c)
    assert widths[6:] == [157, 91, 50] and len(sliced) == in_slabs > 0


def test_squeezer_peak_memory_runs_in_slabs(rng):
    # at bose d = 4, cutoff 10 the widest group holds 286 shared columns; in slabs of
    # _SLAB columns, beside an output of two parity blocks, the whole peak stays near
    # the size of the dense R
    space = FockSpace("bose", 4, 10)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = 0.35 * (a + a.T) / np.linalg.norm(a + a.T, 2)
    squeezer(space, c)  # fills the creation cache of space
    tracemalloc.start()
    try:
        squeezer(space, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 16 * space.dim**2


@pytest.mark.parametrize("legs", [1, 3])
def test_apply_pair_squeezer_is_squeezer_product(rng, legs):
    space = FockSpace("bose", 2, 7)
    gamma_one = np.array([[0.3]])
    x = rng.standard_normal((legs * space.dim, 4)) + 1j * rng.standard_normal((legs * space.dim, 4))
    want = np.kron(np.eye(legs), dense(squeezer(space, pair_kernel(gamma_one, "bose")))) @ x
    assert np.max(np.abs(apply_pair_squeezer(space, gamma_one, x) - want)) <= 1e-13


def test_jordan_wigner():
    ops1 = jordan_wigner(1)
    assert np.allclose(ops1[0], PAULI_1) and np.allclose(ops1[1], PAULI_2)
    assert np.allclose(PAULI_1 @ PAULI_2, 1j * PAULI_3)
    # the tail I_2 = sigma3 (x) sigma3 anticommutes with every generator
    ops2 = jordan_wigner(2) + [np.kron(PAULI_3, PAULI_3)]
    assert np.allclose(ops2[2], np.kron(PAULI_3, PAULI_1))
    assert len(ops2) == 5
    for i, a in enumerate(ops2):
        for j, b in enumerate(ops2):
            target = 2.0 * (i == j) * np.eye(4)
            assert np.linalg.norm(a @ b + b @ a - target, 2) == 0.0


def canonical_doubled_basis(d: int):
    """The oriented doubled basis (w_j, conj w_j), (-i w_j, conj(-i w_j))."""
    out = []
    for w in np.eye(d, dtype=complex):
        out.append(DoubledVector.real_point(w))
        out.append(DoubledVector.real_point(-1j * w))
    return out


def test_q_operator_parity_and_orientation():
    sp = FockSpace("fermi", 2)
    basis = canonical_doubled_basis(2)
    q = q_operator(sp, basis)
    assert np.allclose(q, dense(gamma(sp, -np.eye(sp.d))))
    swapped = [basis[1], basis[0]] + basis[2:]
    assert np.allclose(q_operator(sp, swapped), -dense(gamma(sp, -np.eye(sp.d))))


def test_q_operator_properties(rng):
    sp = FockSpace("fermi", 2)
    basis = canonical_doubled_basis(2)
    q = q_operator(sp, basis)
    assert np.allclose(q @ q, np.eye(sp.dim))
    assert np.allclose(q, q.conj().T)
    y = DoubledVector.real_point(rng.standard_normal(2) + 1j * rng.standard_normal(2))
    phi = field(sp, y).toarray()
    # Clifford volume element: Q phi = (-1)^(n-1) phi Q; n = 4 here
    assert np.linalg.norm(q @ phi + phi @ q, 2) <= 1e-13 * np.linalg.norm(phi, 2)
    with pytest.raises(ValueError):
        q_operator(sp, [DoubledVector.real_point(np.array([2.0, 0]))])


def test_q_operator_odd_count_commutes(rng):
    # an odd generator family gives a Q commuting with its own fields
    sp = FockSpace("fermi", 2)
    basis = canonical_doubled_basis(2)[:3]
    q = q_operator(sp, basis)
    for y in basis:
        phi = field(sp, y)
        assert np.linalg.norm(q @ phi - phi @ q, 2) <= 1e-13


def test_q_operator_single_vector():
    sp = FockSpace("fermi", 1)
    y = DoubledVector.real_point(np.array([1.0]))
    q = q_operator(sp, [y])
    assert np.allclose(q, field(sp, y).toarray())
    assert np.allclose(np.sort(np.linalg.eigvalsh(q)), [-1, 1])


def test_lambda_dressing_identity(rng):
    # Lambda a*(z) Lambda = a*(z) I for both statistics
    for sp in (FockSpace("fermi", 3), FockSpace("bose", 2, 5)):
        lam = sp.lambda_op()
        par = dense(gamma(sp, -np.eye(sp.d)))
        z = rng.standard_normal(sp.d) + 1j * rng.standard_normal(sp.d)
        a_dag = sp.create(z).toarray()
        assert np.linalg.norm(lam @ a_dag @ lam - a_dag @ par, 2) <= 1e-13 * np.linalg.norm(a_dag, 2)
        a_op = sp.annihilate(z).toarray()
        assert np.linalg.norm(lam @ a_op @ lam + a_op @ par, 2) <= 1e-13 * np.linalg.norm(a_op, 2)
