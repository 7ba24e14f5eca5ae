import numpy as np
import pytest

from fockforge.bogolubov import (BogolubovBlocks, FermiDegenerateError,
                                 blocks_to_cd, degenerate_implementer,
                                 metaplectic_pair, mode_pair_swap, mode_pair_swap_implementer,
                                 positive_blocks_from_c, random_blocks, shale_implementer,
                                 validate_blocks)
from fockforge.fock import SIGN, FockSpace, gamma
from fockforge.linalg import dense
from fockforge.ops import (DoubledVector, apply_doubled_matrix, field, multi_create,
                           pair_exponential_vacuum, squeezer)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


RELATIONS = ["p*p+s.q#qbar-1", "p#qbar+s.q*p", "pp*+s.qq*-1", "pq#+s.qp#"]


def test_validate_identity_and_hyperbolic():
    ident = BogolubovBlocks.identity(2, "bose")
    assert list(validate_blocks(ident)) == RELATIONS
    assert max(validate_blocks(ident).values()) == 0.0
    t = 0.37
    hyp = BogolubovBlocks(np.array([[np.cosh(t)]]), np.array([[np.sinh(t)]]), "bose")
    assert max(validate_blocks(hyp).values()) <= 1e-12
    # pp* = 1 + qq* >= 1 for a symplectic map
    assert np.linalg.eigvalsh(hyp.p @ hyp.p.conj().T).min() - 1.0 >= -1e-12


def test_validate_fermi_rotation():
    theta = 0.8
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    blocks = BogolubovBlocks(np.cos(theta) * np.eye(2), np.sin(theta) * j, "fermi")
    assert list(validate_blocks(blocks)) == RELATIONS
    assert max(validate_blocks(blocks).values()) <= 1e-12


def test_blocks_to_cd_examples(rng):
    ident = BogolubovBlocks.identity(3, "fermi")
    cd = blocks_to_cd(ident)
    assert not np.any(cd.c) and not np.any(cd.d_kernel)
    t = 0.4
    hyp = BogolubovBlocks(np.array([[np.cosh(t)]]), np.array([[np.sinh(t)]]), "bose")
    cd2 = blocks_to_cd(hyp)
    assert cd2.c[0, 0] == pytest.approx(np.tanh(t))
    assert cd2.d_kernel[0, 0] == pytest.approx(np.tanh(t))


def test_blocks_to_cd_degenerate():
    swap = mode_pair_swap(2, 0, 1)
    with pytest.raises(FermiDegenerateError):
        blocks_to_cd(swap)


def factorized_matrix(blocks):
    """Rebuild the doubled matrix from the (c, d) triangular factorization."""
    cd = blocks_to_cd(blocks)
    eye = np.eye(blocks.d)
    zero = np.zeros((blocks.d, blocks.d))
    upper = np.block([[eye, cd.d_kernel], [zero, eye]])
    mid = np.block([[np.linalg.inv(blocks.p.conj().T), zero], [zero, blocks.p.conj()]])
    lower = np.block([[eye, zero], [cd.c.conj(), eye]])
    return upper @ mid @ lower


def test_factorization_reconstructs(rng):
    for stat in ("bose", "fermi"):
        blocks = random_blocks(3, stat, rng)
        assert np.linalg.norm(factorized_matrix(blocks) - blocks.matrix(), 2) <= 1e-8


def test_one_minus_cc_identity(rng):
    blocks = random_blocks(3, "bose", rng)
    cd = blocks_to_cd(blocks)
    lhs = np.eye(3) - cd.c @ cd.c.conj().T
    rhs = np.linalg.inv(blocks.p.conj().T @ blocks.p)
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-9
    blocks_f = random_blocks(3, "fermi", rng)
    cd_f = blocks_to_cd(blocks_f)
    lhs_f = np.eye(3) + cd_f.c @ cd_f.c.conj().T
    rhs_f = np.linalg.inv(blocks_f.p.conj().T @ blocks_f.p)
    assert np.linalg.norm(lhs_f - rhs_f, 2) <= 1e-9


def test_shale_identity_blocks():
    sp = FockSpace("fermi", 2)
    u = dense(shale_implementer(sp, BogolubovBlocks.identity(2, "fermi")))
    assert np.allclose(u, np.eye(sp.dim))


def test_fermi_implementer_unitary_and_intertwining(rng):
    sp = FockSpace("fermi", 3)
    for _ in range(6):
        blocks = random_blocks(3, "fermi", rng)
        u = dense(shale_implementer(sp, blocks))
        assert np.linalg.norm(u.conj().T @ u - np.eye(sp.dim), 2) <= 1e-11
        assert u[0, 0].real > 0 and abs(u[0, 0].imag) <= 1e-12
        mat = blocks.matrix()
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y = DoubledVector.real_point(z)
        lhs = u @ field(sp, y) @ u.conj().T
        rhs = field(sp, apply_doubled_matrix(mat, y))
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-10
        # creation and annihilation intertwine separately
        k = int(rng.integers(3))
        lhs_c = u @ sp.creation(k) @ u.conj().T
        rhs_c = sp.create(blocks.p[:, k]) + sp.annihilate(blocks.q[:, k])
        assert np.linalg.norm(lhs_c - rhs_c, 2) <= 1e-10


def test_bose_intertwining_subcutoff():
    sp = FockSpace("bose", 1, 20)
    sub = sp.sector_projector(4)
    blocks = positive_blocks_from_c(np.array([[np.tanh(0.2)]], dtype=complex), "bose")
    u = shale_implementer(sp, blocks)
    y = DoubledVector.real_point(np.array([0.8 - 0.4j]))
    lhs = u @ field(sp, y) @ u.conj().T
    rhs = field(sp, apply_doubled_matrix(blocks.matrix(), y))
    assert np.linalg.norm(sub @ (lhs - rhs) @ sub, 2) <= 1e-7


def test_bose_truncation_warning():
    sp = FockSpace("bose", 1, 2)
    blocks = positive_blocks_from_c(np.array([[0.9]], dtype=complex), "bose")
    with pytest.warns(RuntimeWarning):
        shale_implementer(sp, blocks)


def test_metaplectic_identity_pair():
    sp = FockSpace("fermi", 2)
    u_plus, u_minus = map(dense, metaplectic_pair(sp, BogolubovBlocks.identity(2, "fermi")))
    assert np.allclose(u_plus, np.eye(sp.dim))
    assert np.allclose(u_minus, -np.eye(sp.dim))


def test_metaplectic_phase_and_composition(rng):
    sp = FockSpace("fermi", 3)
    blocks = random_blocks(3, "fermi", rng)
    u_shale = dense(shale_implementer(sp, blocks))
    u_plus = dense(metaplectic_pair(sp, blocks)[0])
    ratio = np.vdot(u_shale.reshape(-1), u_plus.reshape(-1)) / np.vdot(
        u_shale.reshape(-1), u_shale.reshape(-1))
    assert abs(abs(ratio) - 1.0) <= 1e-9
    assert np.linalg.norm(u_plus - ratio * u_shale, 2) <= 1e-9
    r1 = random_blocks(3, "fermi", rng)
    r2 = random_blocks(3, "fermi", rng)
    u1, u2, u12 = (dense(metaplectic_pair(sp, r)[0]) for r in (r1, r2, r1.compose(r2)))
    prod = u1 @ u2
    assert min(np.linalg.norm(prod - u12, 2), np.linalg.norm(prod + u12, 2)) <= 1e-9


def test_metaplectic_composition_bose():
    sp = FockSpace("bose", 1, 32)
    sub = sp.sector_projector(2)
    r1 = positive_blocks_from_c(np.array([[np.tanh(0.25)]], dtype=complex), "bose")
    r2 = positive_blocks_from_c(np.array([[-np.tanh(0.2)]], dtype=complex), "bose")
    u1, u2, u12 = (dense(metaplectic_pair(sp, r)[0]) for r in (r1, r2, r1.compose(r2)))
    prod = u1 @ u2
    res = min(np.linalg.norm((prod - u12) @ sub, 2), np.linalg.norm((prod + u12) @ sub, 2))
    assert res <= 1e-7
    # the pair differs from the Shale implementer by a modulus-one scalar
    u_shale = dense(shale_implementer(sp, r1))
    ratio = u1[0, 0] / u_shale[0, 0]
    assert abs(abs(ratio) - 1.0) <= 1e-9
    assert np.linalg.norm(u1 - ratio * u_shale, 2) <= 1e-9


def test_positive_blocks(rng):
    ident = positive_blocks_from_c(np.zeros((2, 2)), "bose")
    assert np.allclose(ident.p, np.eye(2)) and not np.any(ident.q)
    c = 0.6
    blocks = positive_blocks_from_c(np.array([[c]], dtype=complex), "bose")
    assert blocks.p[0, 0] == pytest.approx((1 - c * c) ** -0.5)
    assert max(validate_blocks(blocks).values()) <= 1e-12
    cf = np.array([[0, 0.5], [-0.5, 0]], dtype=complex)
    blocks_f = positive_blocks_from_c(cf, "fermi")
    expect_p = np.linalg.inv(np.sqrt(1 + 0.25) * np.eye(2))
    assert np.linalg.norm(blocks_f.p - expect_p, 2) <= 1e-12
    assert max(validate_blocks(blocks_f).values()) <= 1e-12


@pytest.mark.parametrize("statistics", ["bose", "fermi"])
def test_merged_constructors(rng, statistics):
    s = SIGN[statistics]
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = (a - s * a.T) / 2
    c = 0.5 * c / np.linalg.norm(c, 2)
    for blocks in (positive_blocks_from_c(c, statistics), random_blocks(3, statistics, rng)):
        assert blocks.statistics == statistics
        assert max(validate_blocks(blocks).values()) <= 1e-10
    # a kernel of the other symmetry is rejected
    with pytest.raises(ValueError, match="symmetric"):
        positive_blocks_from_c((a + s * a.T) / 2 / np.linalg.norm(a, 2), statistics)
    if statistics == "bose":
        with pytest.raises(ValueError, match=r"\|\|c\|\| < 1"):
            positive_blocks_from_c(np.array([[1.0]], dtype=complex), statistics)


def test_positive_blocks_match_squeezer(rng):
    # bosonic: implementer of the positive map is the squeezer itself
    spb = FockSpace("bose", 1, 20)
    cb = np.array([[0.3]], dtype=complex)
    u = dense(shale_implementer(spb, positive_blocks_from_c(cb, "bose")))
    assert np.linalg.norm(u - dense(squeezer(spb, cb)), 2) <= 1e-10
    # fermionic: the implementer with positive vacuum overlap is the
    # adjoint of the squeezer (equivalently the squeezer of -c)
    spf = FockSpace("fermi", 2)
    cf = np.array([[0, 0.7], [-0.7, 0]], dtype=complex)
    uf = dense(shale_implementer(spf, positive_blocks_from_c(cf, "fermi")))
    assert np.linalg.norm(uf - dense(squeezer(spf, cf)).conj().T, 2) <= 1e-10
    assert np.linalg.norm(uf - dense(squeezer(spf, -cf)), 2) <= 1e-10


def _dense_exp(a, t):
    """exp(t a) for a nilpotent dense a, as its Taylor sum, which ends exactly."""
    out = term = np.eye(len(a), dtype=complex)
    for k in range(1, len(a) + 1):
        term = term @ a * (t / k)
        if not np.any(term):
            return out
        out = out + term
    raise AssertionError("the pair operator is not nilpotent")


def _dense_implementer(space, blocks):
    """The Shale implementer as a product of dense Taylor sums over densified
    pair creators and one dense Gamma, with no series or window of ops."""
    cd = blocks_to_cd(blocks)
    det = np.linalg.det(blocks.p @ blocks.p.conj().T).real
    pref = abs(det) ** (0.25 if space.is_fermi else -0.25)
    t = 0.5 * blocks.sign
    right = _dense_exp(multi_create(space, cd.c).toarray().conj().T, -t)
    mid = dense(gamma(space, np.linalg.inv(blocks.p.conj().T)))
    return pref * _dense_exp(multi_create(space, cd.d_kernel).toarray(), t) @ mid @ right


# in ops._implementer_matrix bose d = 3 at cutoff 12 forms three column groups,
# and bose d = 10 at cutoff 3 two, the first of them the odd sector 3 alone
@pytest.mark.parametrize("statistics, d, n_max", [("bose", 2, 8), ("fermi", 4, None),
                                                  ("bose", 3, 12), ("bose", 10, 3)])
def test_shale_implementer_by_parity_class(rng, statistics, d, n_max):
    blocks = random_blocks(d, statistics, rng)
    space = FockSpace(statistics, d, n_max)
    u = dense(shale_implementer(space, blocks))
    odd = space.total_numbers % 2
    assert not np.any(u[odd[:, None] != odd[None, :]])
    assert np.max(np.abs(u - _dense_implementer(space, blocks))) <= 1e-13


def test_inverse_blocks_and_adjoint_phase(rng):
    blocks = random_blocks(3, "fermi", rng)
    inv = blocks.inverse()
    assert np.linalg.norm(blocks.matrix() @ inv.matrix() - np.eye(6), 2) <= 1e-10
    sp = FockSpace("fermi", 3)
    u, u_inv = (dense(shale_implementer(sp, b)) for b in (blocks, inv))
    ratio = np.vdot(u.conj().T.reshape(-1), u_inv.reshape(-1)) / sp.dim
    assert abs(abs(ratio) - 1.0) <= 1e-9
    assert np.linalg.norm(u_inv - ratio * u.conj().T, 2) <= 1e-9


def test_mode_pair_swap_monomial():
    sp = FockSpace("fermi", 3)
    swap = mode_pair_swap(3, 0, 2)
    assert max(validate_blocks(swap).values()) <= 1e-14
    u = mode_pair_swap_implementer(sp, 0, 2)
    mat = swap.matrix()
    rng = np.random.default_rng(0)
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y = DoubledVector.real_point(z)
    lhs = u @ field(sp, y) @ u.conj().T
    rhs = field(sp, apply_doubled_matrix(mat, y))
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-12


def test_degenerate_implementer(rng):
    sp = FockSpace("fermi", 2)
    # quarter turn in a mode pair: p = 0, fully degenerate
    theta = np.pi / 2
    j = np.array([[0, 1], [-1, 0]], dtype=complex)
    blocks = BogolubovBlocks(np.cos(theta) * np.eye(2), np.sin(theta) * j, "fermi")
    with pytest.raises(FermiDegenerateError):
        shale_implementer(sp, blocks)
    u = degenerate_implementer(sp, blocks)
    assert np.linalg.norm(u.conj().T @ u - np.eye(sp.dim), 2) <= 1e-10
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    y = DoubledVector.real_point(z)
    lhs = u @ field(sp, y) @ u.conj().T
    rhs = field(sp, apply_doubled_matrix(blocks.matrix(), y))
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-10


def test_compose_consistency(rng):
    b1 = random_blocks(2, "fermi", rng)
    b2 = random_blocks(2, "fermi", rng)
    assert np.linalg.norm(b1.compose(b2).matrix() - b1.matrix() @ b2.matrix(), 2) <= 1e-12


@pytest.mark.parametrize("space, below", [(FockSpace("fermi", 4), None),
                                          (FockSpace("bose", 2, 10), 6)])
def test_shale_implementer_sends_the_vacuum_to_the_pair_vector_of_d(space, below):
    # U = det(p p*)^{s/4} exp(s a*(d)/2) exp(-s a(q p^T)/2) Gamma(p*^{-1}), s the statistics
    # sign, so U Omega = |det(p p*)|^{s/4} exp(s a*(d)/2) Omega; the bosonic series is read
    # below the sector where the truncation reaches it.  The flipped signs miss.
    blocks = random_blocks(space.d, space.statistics, np.random.default_rng(3))
    s, d_kernel = space.sign, blocks_to_cd(blocks).d_kernel
    det = abs(np.linalg.det(blocks.p @ blocks.p.conj().T).real)
    keep = space.sector_mask(space.n_max if below is None else below - 1)
    u_vacuum = dense(shale_implementer(space, blocks))[:, 0]

    def miss(t):
        want = det ** (t / 4) * pair_exponential_vacuum(space, t * d_kernel)
        return np.abs(u_vacuum - want)[keep].max()
    assert miss(s) <= 1e-14
    assert miss(-s) > 0.1


@pytest.mark.parametrize("space", [FockSpace("bose", 1, 16), FockSpace("bose", 2, 8),
                                   FockSpace("fermi", 4), FockSpace("fermi", 3)],
                         ids=repr)
def test_squeezer_is_the_shale_implementer_of_the_positive_blocks_of_minus_s_c(space):
    # the two implementer front ends read c through one kernel rule and build one operator:
    # squeezer(c) = shale_implementer(positive_blocks_from_c(-s c)); +s c misses
    rng = np.random.default_rng(5)
    s = space.sign
    a = rng.standard_normal((space.d, space.d)) + 1j * rng.standard_normal((space.d, space.d))
    c = 0.4 * (a - s * a.T) / np.linalg.norm(a - s * a.T, 2)
    r = dense(squeezer(space, c))

    def miss(t):
        u = shale_implementer(space, positive_blocks_from_c(t * c, space.statistics))
        return np.abs(r - dense(u)).max()
    assert miss(-s) <= 1e-13
    assert miss(s) > 0.1
