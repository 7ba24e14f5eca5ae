"""Small quantum system linearly coupled to a truncated boson field:
Hamiltonians, semi-Liouvilleans and standard Liouvilleans at positive
density, and the confined-case spectral equivalences.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
import scipy.sparse

from .fock import BOSE, FockSpace, dgamma
from .linalg import _self_adjoint, dense
from .ops import _apply_squeezer
from .thermal import DoubledRep, ThermalParams, _leg_swap_index, pair_kernel

DEFAULT_CUTOFF = 10
# the lowest system levels and the boson quanta below them that the confined check follows
N_LEVELS = 3
N_RIGHT = 2
# eigenvalues this close (relative) form one cluster; a match needs this much overlap
CLUSTER_TOL = 1e-4
OVERLAP_MIN = 0.9


@dataclass(frozen=True)
class PauliFierzModel:
    """System Hamiltonian K, self-adjoint boson energy h > 0, coupling v : K -> K (x) Z,
    and an optional bosonic density gamma commuting with h.

    K and h are read through linalg._self_adjoint and gamma through ThermalParams,
    so each is accepted within 1e-10 max(1, ||m||) of self-adjoint and stored
    exactly self-adjoint."""

    K: np.ndarray
    h: np.ndarray
    v: np.ndarray
    gamma: np.ndarray | None = None
    cutoff: int = DEFAULT_CUTOFF

    def __post_init__(self):
        # stored Hermitian to the last bit, so H is too
        k, h = _self_adjoint(self.K, "K"), _self_adjoint(self.h, "h")
        v = np.asarray(self.v, dtype=complex)
        if np.linalg.eigvalsh(h).min() <= 0:
            raise ValueError("boson one-particle energy must be positive")
        if v.shape != (k.shape[0] * h.shape[0], k.shape[0]):
            raise ValueError(f"v must be {(k.shape[0] * h.shape[0], k.shape[0])}, got {v.shape}")
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "v", v)
        if self.gamma is not None:
            # ThermalParams checks the spectrum and [h, gamma] = 0, and stores gamma exact
            object.__setattr__(self, "gamma", ThermalParams(BOSE, self.gamma, h=h).gamma)
        if self.dim_k > 8 or self.d > 3 or self.cutoff > 16:
            warnings.warn("model exceeds the desk-scale defaults (dim_K<=8, d<=3, cutoff<=16)",
                          RuntimeWarning)

    @property
    def dim_k(self) -> int:
        return self.K.shape[0]

    @property
    def d(self) -> int:
        return self.h.shape[0]


def _kron(a, b) -> scipy.sparse.coo_array:
    """The Kronecker product of two dense or sparse matrices, as sparse triplets."""
    return scipy.sparse.kron(scipy.sparse.csr_array(a), scipy.sparse.csr_array(b), format="coo")


def _eye(n: int) -> scipy.sparse.csr_array:
    return scipy.sparse.eye_array(n, dtype=complex, format="csr")


def _sum_triplets(terms) -> scipy.sparse.csr_array:
    """The sum of sparse triplet arrays of one shape as one CSR construction.

    Duplicate entries are summed and exact zeros dropped, as a chain of
    sparse sums would; where at most two terms meet at any entry, the sum
    is bit for bit that of the chain.
    """
    data, row, col = ([getattr(t, f) for t in terms] for f in ("data", "row", "col"))
    out = scipy.sparse.coo_array((np.concatenate(data), (np.concatenate(row), np.concatenate(col))),
                                 shape=terms[0].shape).tocsr()
    out.eliminate_zeros()
    return out


def coupled_create(q: np.ndarray, creators) -> scipy.sparse.csr_array:
    """sum_m B_m (x) creators[m] for a coupling q = sum_m B_m (x) |e_m) : K -> K (x) Z, sparse.

    With creators[m] = a*_m this is a*(q), and B (x) a*(w) for q = B (x) |w);
    with the left creators a*_l(e_m) of a thermal representation it is
    pi_l(a*(q)).  The d terms' triplets make one CSR (_sum_triplets), so
    where at most two terms meet at an entry the sum is bit for bit that of
    a chain of sparse sums: always for a*_m, which changes only mode m, and
    for a*_l(e_m) at a diagonal density or at d <= 2.
    """
    q = np.asarray(q, dtype=complex)
    dim_k, d = q.shape[1], len(creators)
    if q.shape != (dim_k * d, dim_k):
        raise ValueError(f"coupling must be {(dim_k * d, dim_k)}, got {q.shape}")
    q4 = q.reshape(dim_k, d, dim_k)
    return _sum_triplets([_kron(q4[:, m, :], a) for m, a in enumerate(creators)])


def _coupled(system: np.ndarray, coupling: np.ndarray, free, creators) -> scipy.sparse.csr_array:
    """system (x) 1 + 1 (x) free + A + A* on a system space (x) a boson space, with
    A = coupled_create(coupling, creators): the one assembly of H and of both Liouvilleans.

    The triplets of all four terms make one CSR.  A and A* change the boson
    number n_l - n_r by +1 and -1 and the other two terms keep it, so at
    most two terms meet at any entry and the sum is exact in any order.
    """
    inter = coupled_create(coupling, creators).tocoo()
    return _sum_triplets([_kron(system, _eye(free.shape[0])), _kron(_eye(system.shape[0]), free),
                          inter, inter.conj().T])


def hamiltonian(model: PauliFierzModel, cutoff: int):
    """H = K (x) 1 + 1 (x) dGamma(h) + a*(v) + a(v) at a cutoff; returns (H, space), H sparse."""
    space = FockSpace(BOSE, model.d, cutoff)
    creators = [space.creation(m) for m in range(model.d)]
    return _coupled(model.K, model.v, dgamma(space, model.h), creators), space


def _doubling(model: PauliFierzModel, cutoff: int):
    """The Araki-Woods representation of the model's density and its left creators a*_l(e_m).

    Its doubled space Gamma(Z (+) Zbar) is truncated at twice the stated
    single-sided cutoff, since the density dressing populates pairs.
    """
    if model.gamma is None:
        raise ValueError("a Liouvillean needs a density gamma")
    rep = DoubledRep(ThermalParams(BOSE, model.gamma, h=model.h), cutoff)
    return rep, [rep.create_left(e) for e in np.eye(model.d)]


def semi_liouvillean(model: PauliFierzModel, cutoff: int):
    """K (x) 1 + 1 (x) dGamma(h (+) -h-bar) + pi_l(V) on K (x) Gamma(Z (+) Zbar); returns
    (L, doubled space), L sparse."""
    rep, creators = _doubling(model, cutoff)
    return _coupled(model.K, model.v, rep.standard_liouvillean(model.h), creators), rep.space


def standard_liouvillean(model: PauliFierzModel, cutoff: int):
    """L = L_fr + pi(V) - J pi(V) J on K (x) Kbar (x) Gamma(Z (+) Zbar), L sparse.

    Built as X - J X J with X = (K (x) 1) (x) 1 + 1 (x) dGamma(h (+) 0) + pi_l(V (x) 1),
    assembled as H is (_coupled) on the system K (x) Kbar, whose coupling
    B'_m = B_m (x) 1 acts as the identity on the Kbar leg; J X J is conj(X)
    relabelled by the modular mirror S, so L is one CSR of X's triplets and
    (S row, S col, -conj value) for each of them.  Each entry of L is then
    a - b where its mirror entry is b - a, so S L S = -L holds exactly for a
    real model.
    """
    rep, creators = _doubling(model, cutoff)
    k, space = model.dim_k, rep.space
    eye = np.eye(k)
    coupling = np.einsum("imj,ab->iamjb", model.v.reshape(k, model.d, k), eye)
    x = _coupled(np.kron(model.K, eye), coupling.reshape(k * k * model.d, k * k),
                 dgamma(space, np.kron(np.diag([1.0, 0.0]), model.h)), creators).tocoo()
    return _sum_triplets([x, _mirrored(x, _modular_mirror(k, space), -x.data.conj())]), space


def _mirrored(tri: scipy.sparse.coo_array, mirror: np.ndarray, data) -> scipy.sparse.coo_array:
    """The triplets (mirror[row], mirror[col], data) of tri's entries: S a S for an
    involution S and data = tri.data."""
    return scipy.sparse.coo_array((data, (mirror[tri.row], mirror[tri.col])), shape=tri.shape)


def apply_pair_squeezer(space_w: FockSpace, gamma_one: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(1 (x) R) x for the thermal dressing R = squeezer(space_w, pair_kernel(gamma_one, BOSE)).

    R acts on the last tensor leg, so x has r * space_w.dim rows for some
    system dimension r (a vector or a block of columns).  Gamma(m) acts on x
    first, as a sparse array, and then both pair exponentials of R, as
    finite sums over sparse pair creators, so no dim_W x dim_W exponential
    is formed.
    """
    dw = space_w.dim
    x = np.asarray(x, dtype=complex)
    shape = x.shape
    r = shape[0] // dw
    if r * dw != shape[0]:
        raise ValueError(f"{shape[0]} rows are not a multiple of the Fock dimension {dw}")
    # the boson leg to the front, system legs and columns behind it
    y = x.reshape(r, dw, -1).transpose(1, 0, 2).reshape(dw, -1)
    y = _apply_squeezer(space_w, pair_kernel(gamma_one, BOSE), y)
    return y.reshape(dw, r, -1).transpose(1, 0, 2).reshape(shape)


def _reference_states(model: PauliFierzModel):
    """The N_LEVELS lowest levels of H at cutoff 30 and their eigenvectors as columns.

    H is diagonalised one exact block at a time (_block_spectra), and each
    block keeps its N_LEVELS lowest eigenvectors; the lowest N_LEVELS of the
    merged levels keep theirs, embedded at their block's coordinates.
    """
    ham, _ = hamiltonian(model, 30)
    blocks = _block_spectra(ham, None, lambda vals: np.arange(len(vals)) < N_LEVELS)
    # (level, block coordinates, eigenvector) of every kept level, the lowest first
    kept = sorted(((val, idx, vec) for idx, vals, x in blocks for val, vec in zip(vals, x.T)),
                  key=lambda t: t[0])[:N_LEVELS]
    vecs = np.zeros((ham.shape[0], N_LEVELS), dtype=np.result_type(*(v for _, _, v in kept)))
    for col, (_, idx, vec) in enumerate(kept):
        vecs[idx, col] = vec
    return np.array([val for val, _, _ in kept]), vecs


def _semi_targets(model: PauliFierzModel, levels) -> list:
    h0 = float(np.linalg.eigvalsh(model.h).min())
    return [(f"E{i}-{j}", float(levels[i] - j * h0))
            for i in range(len(levels)) for j in range(N_RIGHT + 1)]


def difference_targets(model: PauliFierzModel) -> list:
    """Well-converged difference eigenvalues E_i - j h for the check families."""
    return _semi_targets(model, _reference_states(model)[0])


def _labelled_states(model: PauliFierzModel, cutoff: int, reference: np.ndarray):
    """Product states that label the targets of both families at one cutoff.

    With psi_i the reference eigenvectors of H (_reference_states, cutoff
    30) read on K (x) Gamma(Z) at the comparison cutoff (twice the
    single-sided one), and chi_j the state of j quanta in the lowest mode of
    h-bar, target E{i}-{j} is labelled by psi_i (x) chi_j and target
    E{i}-E{j} by psi_i (x) conj(psi_j), each read through the exponential-law
    chart: a doubled occupation splits into a left occupation, index n_idx,
    and a right one, index m_idx, both in the basis of Gamma(Z) at the
    comparison cutoff.  The graded basis of the smaller of the two Gamma(Z)
    is a prefix of the larger one's, so psi_i is cut to it, or padded with
    zeros.  Returns the semi and standard states as columns, in target order.
    """
    k, d = model.dim_k, model.d
    space_z = FockSpace(BOSE, d, 2 * cutoff)
    space_w = FockSpace(BOSE, 2 * d, 2 * cutoff)
    occ = space_w.occupations
    n_idx, m_idx = space_z.indices(occ[:, :d]), space_z.indices(occ[:, d:])
    psi = reference.reshape(k, -1, N_LEVELS)[:, :space_z.dim]
    psi = np.pad(psi, ((0, 0), (0, space_z.dim - psi.shape[1]), (0, 0)))
    w, u = np.linalg.eigh(np.conj(model.h))
    raise_low = space_z.create(u[:, np.argmin(w)])
    chi = np.empty((space_z.dim, N_RIGHT + 1), dtype=complex)
    chi[:, 0] = space_z.vacuum()
    for j in range(1, N_RIGHT + 1):
        chi[:, j] = raise_low @ chi[:, j - 1] / np.sqrt(j)
    chi = _real_if_exact(chi)
    semi = np.einsum("kti,tj->ktij", psi[:, n_idx, :], chi[m_idx, :])
    standard = np.einsum("ati,btj->abtij", psi[:, n_idx, :], np.conj(psi[:, m_idx, :]))
    return semi.reshape(k * space_w.dim, -1), standard.reshape(k * k * space_w.dim, -1)


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """a as a real array when its imaginary part is exactly zero, else a itself."""
    if np.iscomplexobj(a) and not np.any(a.imag):
        return np.ascontiguousarray(a.real)
    return a


def _adjoint_product(vecs: np.ndarray, block: np.ndarray) -> np.ndarray:
    """vecs* @ block as one product; a real vecs is never cast to complex."""
    if np.iscomplexobj(vecs):
        return vecs.conj().T @ block
    if not np.iscomplexobj(block):
        return vecs.T @ block
    # the real and imaginary parts of each column ride as adjacent real columns
    cols = np.ascontiguousarray(block, dtype=complex).reshape(block.shape[0], -1)
    prod = (vecs.T @ cols.view(np.float64)).view(np.complex128)
    return prod.reshape(vecs.shape[1:] + block.shape[1:])


def _cluster(vals: np.ndarray, i: int) -> np.ndarray:
    return np.abs(vals - vals[i]) <= CLUSTER_TOL * max(1.0, abs(vals[i]))


def exact_blocks(a) -> list:
    """The exact blocks of a square operator, dense or sparse.

    The blocks are the connected components of the nonzero pattern of a;
    each is returned as its ascending array of coordinates.  An operator
    with no such structure is one block.
    """
    # scipy.sparse loads csgraph on this first use, so importing the package does not
    n, labels = scipy.sparse.csgraph.connected_components(scipy.sparse.csr_array(a) != 0,
                                                          directed=False)
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(n + 1))
    return [order[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _modular_mirror(dim_k: int, space: FockSpace) -> np.ndarray:
    """The linear part S of the modular conjugation J on K (x) Kbar (x) space, as an index map.

    S sends the coordinate (kappa, kappa-bar, n, m) to (kappa-bar, kappa, m, n),
    where (n, m) are the occupations of the doubled space on Z and Zbar.  J
    is S after complex conjugation, so for a real model the standard
    Liouvillean and H (x) 1 - 1 (x) conj(H) both anticommute with S.
    """
    kap = np.arange(dim_k)
    return ((kap[None, :, None] * dim_k + kap[:, None, None]) * space.dim
            + _leg_swap_index(space)).ravel()


def _anticommutes(a, mirror) -> bool:
    """Whether mirror is an involution S of the coordinates of a sparse a with S a S = -a
    exactly."""
    if mirror is None or not np.array_equal(mirror[mirror], np.arange(a.shape[0])):
        return False
    tri = scipy.sparse.coo_array(a)
    return not np.any((_mirrored(tri, mirror, tri.data) + tri).data)


def _mirror_chart(perm: np.ndarray):
    """The fixed points of the involution perm and its pairs (i, perm[i]), i < perm[i].

    They index the perm-even basis (the fixed points, then the normalised
    pair sums: the columns of P) and the perm-odd one (the normalised pair
    differences: the columns of M).
    """
    pos = np.arange(len(perm))
    first = pos[perm > pos]
    return pos[perm == pos], first, perm[first]


def _mirrored_svd(block: scipy.sparse.coo_array, chart):
    """The SVD B = U diag(s) V* of B = P* block M, for a Hermitian block that the
    involution of chart (_mirror_chart) anticommutes with.

    In the basis of the columns of P and M the block is [[0, B], [B*, 0]],
    so its eigenvalues are -+s_k, with eigenvectors (P u_k -+ M v_k)/sqrt 2,
    and 0 on the null vectors P u_k past the odd dimension.  B is scattered
    from the block's triplets, real when they are; the dense block is never
    formed.  Returns the eigenvalues ascending, as eigh does, with U and V*.
    """
    fixed, first, partner = chart
    nf, m = len(fixed), len(first)
    half = np.sqrt(0.5)
    # the column of P and of M that holds each coordinate, and its weight there
    p_col, p_wt = np.empty(block.shape[0], dtype=int), np.full(block.shape[0], half)
    p_col[fixed], p_col[first], p_col[partner] = np.arange(nf), nf + np.arange(m), nf + np.arange(m)
    p_wt[fixed] = 1.0
    m_col, m_wt = np.zeros(block.shape[0], dtype=int), np.zeros(block.shape[0])
    m_col[first], m_col[partner] = np.arange(m), np.arange(m)
    m_wt[first], m_wt[partner] = half, -half
    odd = m_wt[block.col] != 0  # a fixed point's column meets no column of M
    rows, cols = block.row[odd], block.col[odd]
    data = block.data[odd] * p_wt[rows] * m_wt[cols]
    b = dense(scipy.sparse.coo_array((data, (p_col[rows], m_col[cols])), shape=(nf + m, m)))
    u, s, vh = np.linalg.svd(b)
    return np.concatenate([-s, np.zeros(nf), s[::-1]]), u, vh


def _mirrored_vectors(chart, u: np.ndarray, vh: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The eigenvectors of _mirrored_svd at the eigenvalues that the mask keep marks, as
    columns in the order of its eigenvalues; no other column is formed."""
    fixed, first, partner = chart
    nf, m = len(fixed), len(first)
    half = np.sqrt(0.5)
    cols = np.flatnonzero(keep)
    vecs = np.empty((nf + 2 * m, len(cols)), dtype=np.result_type(u, vh))
    # column j < m is (P u_j - M v_j)/sqrt 2, then P u_j up to m + nf, then
    # (P u_k + M v_k)/sqrt 2 with k = nf + 2m - 1 - j
    null = (cols >= m) & (cols < m + nf)
    neg, pair = cols < m, ~null
    k = np.where(neg, cols, len(keep) - 1 - cols)[pair]
    # the rows of P u and M v at the first of a pair
    pu, mv = u[nf:, k] * half, vh[k].conj().T * half
    minus, plus = (pu - mv) * half, (pu + mv) * half
    vecs[np.ix_(fixed, pair)] = u[:nf, k] * half
    vecs[np.ix_(first, pair)] = np.where(neg[pair], minus, plus)
    vecs[np.ix_(partner, pair)] = np.where(neg[pair], plus, minus)
    vecs[np.ix_(fixed, null)] = u[:nf, cols[null]]
    vecs[np.ix_(first, null)] = vecs[np.ix_(partner, null)] = u[nf:, cols[null]] * half
    return vecs


def _mirrored_weights(chart, u: np.ndarray, vh: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """The weights |w_k* probe|^2 of the probe columns on the eigenvectors w_k of
    _mirrored_svd, in the order of its eigenvalues, read from U and V*.

    With x = U* P* probe and y = V* M* probe the weights are |x_k -+ y_k|^2 / 2
    on the pairs -+s_k and |x_k|^2 on the null vectors; P* probe and
    M* probe are gathers, so no eigenvector is formed.
    """
    fixed, first, partner = chart
    m = len(first)
    half = np.sqrt(0.5)
    x = _adjoint_product(u, np.concatenate([probe[fixed], (probe[first] + probe[partner]) * half]))
    y = _adjoint_product(vh.conj().T, (probe[first] - probe[partner]) * half)
    return np.concatenate([np.abs(x[:m] - y) ** 2 / 2, np.abs(x[m:]) ** 2,
                           (np.abs(x[:m] + y) ** 2 / 2)[::-1]])


def _weights(vecs: np.ndarray, probe: np.ndarray) -> np.ndarray:
    return np.abs(_adjoint_product(vecs, probe)) ** 2


def _eigh_block(block, probe, idx, image):
    """One eigh of a block, and its reading (vals, x) as _block_spectra yields it.

    Returns that reading and, when image is given, the reading of the block
    that S maps this one onto, else None.  image holds that block's
    coordinates and the rows of this block that S sends them to.
    """
    vals, vecs = np.linalg.eigh(dense(block))
    if callable(probe):
        out = vals, vecs[:, probe(vals)]
    else:
        out = vals, _weights(vecs, probe[idx])
    if image is None:
        return out, None
    coords, rows = image
    if callable(probe):  # the columns of the negated spectrum, reversed, at the rows S permutes
        return out, (-vals[::-1], vecs[:, ::-1][:, probe(-vals[::-1])][rows])
    # the rows of vecs permuted by S are read by the probe permuted back
    return out, (-vals[::-1], _weights(vecs, probe[coords[np.argsort(rows)]])[::-1])


def _svd_block(block, perm, probe, idx):
    """One SVD of a block that the involution perm of its coordinates anticommutes
    with (_mirrored_svd), and its reading (vals, x) (see _block_spectra)."""
    chart = _mirror_chart(perm)
    vals, u, vh = _mirrored_svd(block, chart)
    if callable(probe):
        return vals, _mirrored_vectors(chart, u, vh, probe(vals))
    return vals, _mirrored_weights(chart, u, vh, probe[idx])


def _block_spectra(a, mirror, probe):
    """The eigenvalues of a Hermitian operator, one exact block at a time, with
    either some of the eigenvectors or the weights of some probe columns on them.

    Yields (coordinates, eigenvalues, x) per block of exact_blocks,
    eigenvalues ascending.  When probe is a function from a block's
    eigenvalues to a mask over them, x is the block's eigenvectors at the
    marked eigenvalues only; else probe is an array of columns and x the
    weights |v_k* probe|^2 of the probe's rows on the block, one row per
    eigenvalue.  The operator's triplets are read once and split by block
    into block-local coordinates; each block is built from its own.
    Without a mirror, or when the mirror S does not satisfy S a S = -a
    exactly, each block is densified alone (linalg.dense of its triplets,
    real when they are) and gets one eigh.  With one, a block that S maps
    onto an earlier block takes that block's spectrum negated, with its
    eigenvectors permuted by S, and a block that S maps onto itself is
    split into its S-even and S-odd halves and solved by one SVD
    (_mirrored_svd), whose factors give the weights directly.  Each block
    is solved and read in a helper, so its factors are freed before the
    next block is solved; only the reading of a block's S-image is held.
    """
    a = scipy.sparse.csr_array(a)
    blocks = exact_blocks(a)
    tri = a.tocoo()
    mirrored = _anticommutes(tri, mirror)
    owner, local = np.empty(a.shape[0], dtype=int), np.empty(a.shape[0], dtype=int)
    for b, idx in enumerate(blocks):
        owner[idx], local[idx] = b, np.arange(len(idx))
    # the nonzero triplets in block order, each block's in the order of a's
    order = np.flatnonzero(tri.data)
    order = order[np.argsort(owner[tri.row[order]], kind="stable")]
    rows, cols, data = tri.row[order], tri.col[order], tri.data[order]
    bounds = np.searchsorted(owner[rows], np.arange(len(blocks) + 1))
    rows, cols = local[rows], local[cols]
    del tri, order
    held = {}  # block number -> the reading of the earlier block that S maps onto it
    for b, idx in enumerate(blocks):
        # without an exact mirror no block has an image
        image = owner[mirror[idx[0]]] if mirrored else None
        if image is not None and image < b:
            yield (idx, *held.pop(b))
            continue
        part = slice(bounds[b], bounds[b + 1])
        block = scipy.sparse.coo_array((_real_if_exact(data[part]), (rows[part], cols[part])),
                                       shape=(len(idx), len(idx)))
        if image == b:
            yield (idx, *_svd_block(block, local[mirror[idx]], probe, idx))
            continue
        target = None if image is None else (blocks[image], local[mirror[blocks[image]]])
        out, for_image = _eigh_block(block, probe, idx, target)
        if for_image is not None:
            held[image] = for_image
        yield (idx, *out)


def _match_window(tgt):
    """How close the nearest comparison eigenvalue must lie to a target value."""
    return 1e-6 + 1e-3 * abs(tgt)


def _near_targets(targets, vals: np.ndarray) -> np.ndarray:
    """Which of vals matched_spectral_deviation can read for one of the target values.

    A target t is located at its nearest eigenvalue, within _match_window(t),
    and reads that eigenvalue's cluster, whose members lie within
    _match_window(t) + CLUSTER_TOL max(1, |t| + _match_window(t)) of t; the
    mask keeps twice that distance, so rounding never drops a member.
    """
    t = np.asarray(targets, dtype=float)[:, None]
    gap = _match_window(t)
    return np.any(np.abs(vals - t) <= 2 * (gap + CLUSTER_TOL * np.maximum(1.0, np.abs(t) + gap)),
                  axis=0)


def matched_spectral_deviation(liouvillean, comparison, dressing, targets, mirror) -> dict:
    """Deviation of overlap-identified eigenvalue pairs.

    Each target (name, value, state) is located at the nearest comparison
    eigenvalue.  Its comparison vector is the projection of the labelled
    product state onto the comparison eigenvectors within CLUSTER_TOL of
    that eigenvalue, so a degenerate eigenspace is read independently of
    the basis the eigensolver returns; for an isolated eigenvalue it is the
    eigenvector up to phase.  The comparison vectors are pushed through the
    dressing chart as one block: dressing is a callable on blocks of
    column vectors, such as apply_pair_squeezer.  The Liouvillean
    partner is the eigenvalue of maximal overlap among all Liouvillean
    eigenvectors; the deviation is the gap between the overlap-weighted
    partner cluster and the target.  Targets whose labelled state or
    dressed vector falls below OVERLAP_MIN are reported but not counted.

    Both operators may be dense or sparse.  Each is diagonalised one exact
    block at a time (see exact_blocks and _block_spectra), and the overlaps
    are taken block by block: the Liouvillean yields only its eigenvalues
    and the weights of the dressed vectors on its eigenvectors, which its
    SVD route reads from the factors without forming them.  The comparison
    operator yields all its eigenvalues but only the eigenvectors that some
    target's cluster can reach (_near_targets), so it holds a few columns
    per block.  mirror is None or an index map S that both operators share;
    where S a S = -a holds exactly, _block_spectra uses it to halve the
    work.  The clusters and the projections run over the merged spectrum,
    since a degenerate eigenvalue may span blocks.
    """
    # per target name: an unmatched reason, or its (value, comparison vector) until the
    # Liouvillean pass replaces them with its (deviation, weight)
    record = {}
    near = partial(_near_targets, [tgt for _, tgt, _ in targets])
    blocks = list(_block_spectra(comparison, mirror, near))
    vals_d = np.concatenate([vals for _, vals, _ in blocks])
    owner = np.repeat(np.arange(len(blocks)), [len(vals) for _, vals, _ in blocks])
    # each kept eigenvalue's column among its block's kept eigenvectors
    column = np.concatenate([np.cumsum(near(vals)) - 1 for _, vals, _ in blocks])
    for name, tgt, state in targets:
        i = int(np.argmin(np.abs(vals_d - tgt)))
        if abs(vals_d[i] - tgt) > _match_window(tgt):
            record[name] = "target missing from comparison spectrum"
            continue
        vec = np.zeros(comparison.shape[0], dtype=complex)
        members = _cluster(vals_d, i)
        size = np.linalg.norm(state)  # zero when the truncation drops the state
        for b in np.unique(owner[members]):
            idx, _, vecs = blocks[b]
            sub = vecs[:, column[members & (owner == b)]]
            vec[idx] = sub @ _adjoint_product(sub, state[idx]) / (size or 1.0)
        captured = float(np.vdot(vec, vec).real)
        record[name] = (f"labelled state captured {captured:.3f}" if captured < OVERLAP_MIN
                        else (tgt, vec / np.linalg.norm(vec)))
    del blocks
    located = [name for name, entry in record.items() if not isinstance(entry, str)]
    if located:
        psi = dressing(np.stack([record[name][1] for name in located], axis=1))
        psi = psi / np.linalg.norm(psi, axis=0)
        spectra = [(vals, weights) for _, vals, weights in _block_spectra(liouvillean, mirror, psi)]
        vals_l = np.concatenate([vals for vals, _ in spectra])
        overlaps = np.concatenate([ov for _, ov in spectra])
        for name, col in zip(located, overlaps.T):
            j = int(np.argmax(col))
            # near-degenerate eigenvalues act as one cluster for the overlap count
            cluster = _cluster(vals_l, j)
            weight = float(col[cluster].sum())
            if weight < OVERLAP_MIN:
                record[name] = f"best overlap {weight:.3f}"
                continue
            matched_val = float((col[cluster] * vals_l[cluster]).sum() / weight)
            record[name] = (float(abs(matched_val - record[name][0])), weight)
    out = {"matched": [], "unmatched": [], "deviation": 0.0}
    for name, _, _ in targets:
        entry = record[name]
        if isinstance(entry, str):
            out["unmatched"].append((name, entry))
        else:
            out["matched"].append((name,) + entry)
            out["deviation"] = max(out["deviation"], entry[0])
    return out


def _family_deviation(model: PauliFierzModel, cutoff: int, liouvillean, mirror, targets) -> dict:
    """One family at one cutoff; its operators are freed when the call returns.

    The comparison operator is the family's own Liouvillean at density 0,
    where the dressing R_gamma is the identity: H (x) 1 - 1 (x) dGamma(h-bar)
    for the semi builder and H (x) 1 - 1 (x) conj(H) for the standard one,
    both on the doubled truncation.  mirror is None or _modular_mirror,
    which builds the index map S that both operators of the family are
    tested against.
    """
    ell, space_w = liouvillean(model, cutoff)
    comp, _ = liouvillean(replace(model, gamma=np.zeros_like(model.h)), cutoff)
    dressing = partial(apply_pair_squeezer, space_w, model.gamma)
    s = None if mirror is None else mirror(model.dim_k, space_w)
    return matched_spectral_deviation(ell, comp, dressing, targets, s)


def confined_pf_check(model: PauliFierzModel, cutoffs) -> dict:
    """Spectral comparison of both Liouvilleans with the difference spectra of H.

    For each single-sided cutoff the semi-Liouvillean is compared with
    H (x) 1 - 1 (x) dGamma(h-bar) and the standard Liouvillean with
    H (x) 1 - 1 (x) conj(H), each on the doubled truncation.  These are the
    Liouvilleans of the same model at density 0, so both members of a
    family come from one builder (_family_deviation).  A fixed family of
    difference eigenvalues (the lowest system levels minus a few boson
    quanta), taken from H at cutoff 30 once per check (_reference_states,
    one exact block at a time), is followed across cutoffs; the reported
    deviation is the worst matched gap, and it shrinks as the cutoff grows
    because the dressing tail of the density dies off.  all_matched says
    whether both families matched every target at the last cutoff; a
    deviation counts only when they did.

    Each target is labelled by a product state (psi_i (x) chi_j or
    psi_i (x) conj(psi_j), with psi_i the reference eigenvectors of H read
    at the comparison cutoff: _labelled_states) whose projection onto the
    nearest comparison eigenspace is the comparison vector; see
    matched_spectral_deviation.  The thermal dressing acts on those vectors
    only (apply_pair_squeezer).  H and the four operators are built sparse
    and diagonalised one exact block at a time (the Z2 parity sectors
    of the sigma_x-coupled spin-boson model, for instance), each block in
    real arithmetic when its imaginary part is exactly zero, as for any real
    model.  The semi family takes one eigh per block.  The standard family
    is offered the modular mirror S (_modular_mirror): for a real model both
    of its operators anticommute with S, so a pair of blocks that S swaps
    costs one eigh and a block that S maps onto itself one SVD of half its
    size; otherwise it takes one eigh per block too.  On a Liouvillean block
    the SVD factors give the overlaps directly, so no eigenvector matrix of
    the block is formed.
    """
    levels, reference = _reference_states(model)
    targets_semi = _semi_targets(model, levels)
    targets_std = [(f"E{i}-E{j}", float(levels[i] - levels[j]))
                   for i in range(N_LEVELS) for j in range(N_LEVELS)]
    report = {"semi": [], "standard": [], "semi_detail": [], "standard_detail": []}
    for n in cutoffs:
        states_semi, states_std = _labelled_states(model, n, reference)
        families = (("semi", semi_liouvillean, None, targets_semi, states_semi),
                    ("standard", standard_liouvillean, _modular_mirror, targets_std, states_std))
        for family, liouvillean, mirror, targets, states in families:
            labelled = [t + (s,) for t, s in zip(targets, states.T)]
            res = _family_deviation(model, n, liouvillean, mirror, labelled)
            report[family].append(res["deviation"])
            report[f"{family}_detail"].append(res)
    report["all_matched"] = not (report["semi_detail"][-1]["unmatched"]
                                 or report["standard_detail"][-1]["unmatched"])
    report["tail_estimate"] = float(
        np.linalg.norm(model.gamma, 2) ** max(1, min(cutoffs)))
    return report


def spin_boson(coupling: float = 0.1, splitting: float = 1.0,
               gamma_value: float | None = 0.25, cutoff: int = DEFAULT_CUTOFF) -> PauliFierzModel:
    """Two-level system coupled through sigma_x to one boson mode of energy 1."""
    k = np.array([[splitting / 2, 0], [0, -splitting / 2]], dtype=complex)
    h = np.array([[1.0]], dtype=complex)
    v = coupling * np.array([[0, 1], [1, 0]], dtype=complex)
    g = None if gamma_value is None else np.array([[gamma_value]], dtype=complex)
    return PauliFierzModel(k, h, v, g, cutoff)
