"""The acceptance battery: one function per criterion, each returning a
report dict with named residuals, tolerances and a pass flag.

Shared by the test suite and the command-line runner; every tolerance is
pinned here, not at call sites.  The check bodies that the command-line
tasks run on a model's own parameters are defined here once, above the
criteria.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .bogolubov import metaplectic_pair, positive_blocks_from_c, random_blocks, shale_implementer
from .fock import BOSE, FERMI, FockSpace
from .lattice import RealSubspace, fermionic_duality_check
from .linalg import _require_dense, dense, window_norm
from .ops import DoubledVector, apply_doubled_matrix, euclidean_form, field, gaussian_vector
from .paulifierz import confined_pf_check, spin_boson
from .quasifree import aw_covariance, reconstruction_defect, reduce_covariance
from .thermal import DoubledRep, ThermalParams, confined_gibbs, kms_check


def _report(name, residual, tolerance, extras=None, passed=None):
    """The one check-report dict.  A check with several gates passes its combined
    flag as passed; otherwise it passes when residual <= tolerance."""
    return {"name": name, "residual": float(residual), "tolerance": float(tolerance),
            "pass": bool(residual <= tolerance if passed is None else passed),
            **(extras or {})}


# -- check bodies shared by the criteria and the command-line tasks --------


def car_defect(space, rng, trials):
    """max ||{phi(y1), phi(y2)} - 2 Re<y1, y2>|| over random real points y1, y2.
    CSR times dense sums each entry over the same row nonzeros, in the same
    order, as CSR times CSR, so f1 @ dense(f2) + f2 @ dense(f1) is the dense
    sparse anticommutator bit for bit, up to the sign of zeros; the budget comes first."""
    _require_dense(space.dim)
    d = space.d
    diag = np.diag_indices(space.dim)
    worst = 0.0
    for _ in range(trials):
        y1 = DoubledVector.real_point(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        y2 = DoubledVector.real_point(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        f1, f2 = field(space, y1), field(space, y2)
        defect = f1 @ dense(f2) + f2 @ dense(f1)
        defect[diag] -= 2.0 * euclidean_form(y1, y2)
        worst = max(worst, np.linalg.norm(defect, 2))
    return worst


def ccr_defect(space, rng, trials):
    """max ||[a(w1), a*(w2)] - (w1|w2)|| below the top sector over random w1, w2,
    the commutator multiplied against dense, bit for bit and budget first as in car_defect."""
    _require_dense(space.dim)
    d = space.d
    keep = space.sector_mask(space.n_max - 1)
    diag = np.diag_indices(space.dim)
    worst = 0.0
    for _ in range(trials):
        w1 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        w2 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        down, up = space.annihilate(w1), space.create(w2)
        defect = down @ dense(up) - up @ dense(down)
        defect[diag] -= np.vdot(w1, w2)
        worst = max(worst, window_norm(defect, keep))
    return worst


def intertwining_defect(space, blocks, u, y):
    """The operator u phi(y) u* - phi(T y) for the Bogolubov map T of blocks."""
    lhs = u @ field(space, y) @ u.conj().T
    return lhs - field(space, apply_doubled_matrix(blocks.matrix(), y))


def _composition_defect(space, r1, r2, keep):
    """min over both members v of the pair U(r1 r2) of ||(U(r1) U(r2) - v) P||, U the
    metaplectic implementer and P the coordinate projector onto the columns keep."""
    (u1, _), (u2, _) = (metaplectic_pair(space, r) for r in (r1, r2))
    prod = dense(u1) @ dense(u2)
    return min(np.linalg.norm((prod - dense(v))[:, keep], 2)
               for v in metaplectic_pair(space, r1.compose(r2)))


def kernel_defect(space, c, om, z):
    """The vector (a(z) + s a*(c zbar)) om for the statistics sign s; it vanishes
    when om is the Gaussian vector of kernel c."""
    return space.ladder(space.sign * (c @ np.conj(z)), z) @ om


def two_point_defect(rep, z1, z2):
    """|<a(z1) a*(z2)> - (z1|(1 - s rho) z2)| in the vacuum of rep, rho its density
    and s the statistics sign."""
    dens = rep.params.density
    vac = rep.space.vacuum()
    got = np.vdot(vac, rep.annihilate_left(z1) @ (rep.create_left(z2) @ vac))
    return abs(got - (np.vdot(z1, z2) - rep.space.sign * np.vdot(z1, dens @ z2)))


def conjugation_defect(rep, j, rng, trials):
    """max ||J phi_l(z) J - phi_r(z)|| over random z."""
    d = rep.d
    res = 0.0
    for _ in range(trials):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        res = max(res, np.linalg.norm(j.sandwich(rep.field_left(z)) - rep.field_right(z), 2))
    return res


def kms_operators(rep, rng):
    """A = c0 a*(e0) a(e0) + c1 a(e0) and B = c2 a(e0) a*(e0) + c3 a*(e0) on the
    left leg, with random complex coefficients c."""
    e0 = np.zeros(rep.d)
    e0[0] = 1.0
    up, down = rep.create_left(e0), rep.annihilate_left(e0)
    coeff = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return coeff[0] * up @ down + coeff[1] * down, coeff[2] * down @ up + coeff[3] * up


def duality_defect(space, rng):
    """Fermionic duality defect of one random real subspace; 1 if the dimensions differ."""
    d = space.d
    k = int(rng.integers(1, 2 * d))
    v = RealSubspace.from_vectors(d, rng.standard_normal((2 * d, k)))
    rep = fermionic_duality_check(v, space)
    res = max(rep["defect_comm_in_dual"], rep["defect_dual_in_comm"])
    if rep["dim_commutant"] != rep["dim_dressed_dual"]:
        res = max(res, 1.0)
    return res


# -- the criteria ------------------------------------------------------------


def criterion_car_exactness(seed):
    """CAR anticommutators are exact for random dimensions and vectors."""
    rng = np.random.default_rng(seed)
    worst = max(car_defect(FockSpace("fermi", d), rng, 34) for d in (2, 4, 6))
    return _report("car-exactness", worst, 1e-12)


def criterion_ccr_truncation(seed):
    """[a(w1), a*(w2)] - (w1|w2) vanishes exactly below the top sector."""
    rng = np.random.default_rng(seed)
    worst = max(ccr_defect(FockSpace("bose", d, cutoff), rng, 10)
                for d, cutoff in ((1, 10), (2, 8), (3, 6)))
    return _report("ccr-truncation", worst, 1e-12)


def criterion_trace_identities(seed):
    """Tr Gamma(gamma) against the closed determinant formulas."""
    rng = np.random.default_rng(seed)
    worst_fermi = 0.0
    for d in (2, 3, 4):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = a @ a.conj().T / d
        space = FockSpace("fermi", d)
        trace, reference, _ = confined_gibbs(space, g)
        worst_fermi = max(worst_fermi, abs(trace - reference) / abs(reference))
    worst_bose = 0.0
    cutoff = 20
    for d in (1, 2):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        g = a @ a.conj().T
        g = 0.8 * g / max(np.linalg.eigvalsh(g).max(), 1e-12)
        space = FockSpace("bose", d, cutoff)
        trace, reference, tail = confined_gibbs(space, g)
        evals = np.linalg.eigvalsh(g)
        bound = 0.0
        top = float(evals.max())
        for n in range(cutoff + 1, cutoff + 400):
            bound += (n + 1) ** (d - 1) * top ** n * d
        ok = 0.0 <= tail <= bound + 1e-12
        worst_bose = max(worst_bose, 0.0 if ok else tail)
    res = max(worst_fermi, worst_bose)
    return _report("trace-identities", res, 1e-12,
                   {"fermi_rel": worst_fermi, "bose_tail_violation": worst_bose})


def criterion_implementers(seed):
    """Shale/Pin intertwining and the metaplectic composition sign."""
    rng = np.random.default_rng(seed)
    worst_fermi = 0.0
    for d in (2, 3):
        space = FockSpace("fermi", d)
        for _ in range(10):
            blocks = random_blocks(d, FERMI, rng)
            u = dense(shale_implementer(space, blocks))
            y = DoubledVector.real_point(rng.standard_normal(d) + 1j * rng.standard_normal(d))
            worst_fermi = max(worst_fermi,
                              np.linalg.norm(intertwining_defect(space, blocks, u, y), 2))
    space_b = FockSpace("bose", 1, 20)
    keep = space_b.sector_mask(2)
    worst_bose = 0.0
    for t in (0.1, 0.2, 0.3):
        blocks = positive_blocks_from_c(np.array([[np.tanh(t)]], dtype=complex), BOSE)
        u = dense(shale_implementer(space_b, blocks))
        y = DoubledVector.real_point(np.array([1.0 + 0.3j]))
        defect = intertwining_defect(space_b, blocks, u, y)
        worst_bose = max(worst_bose, window_norm(defect, keep))
    # composition sign of the two-valued implementer; the fermionic check keeps every column
    space_f = FockSpace("fermi", 3)
    worst_comp_f = max(_composition_defect(space_f, random_blocks(3, FERMI, rng),
                                           random_blocks(3, FERMI, rng), space_f.sector_mask(3))
                       for _ in range(5))
    space_big = FockSpace("bose", 1, 32)
    r1 = positive_blocks_from_c(np.array([[np.tanh(0.25)]], dtype=complex), BOSE)
    r2 = positive_blocks_from_c(np.array([[-np.tanh(0.2)]], dtype=complex), BOSE)
    comp_b = _composition_defect(space_big, r1, r2, space_big.sector_mask(2))
    extras = {"fermi_intertwining": worst_fermi, "bose_intertwining": worst_bose,
              "fermi_composition": worst_comp_f, "bose_composition": comp_b}
    passed = (worst_fermi <= 1e-10 and worst_bose <= 1e-7
              and worst_comp_f <= 1e-7 and comp_b <= 1e-7)
    return _report("bogolubov-implementers", max(extras.values()), 1e-7, extras, passed)


def criterion_gaussian_kernels(seed):
    """(a(z) + s a*(c zbar)) Omega_c residuals for random kernels, s the statistics sign."""
    rng = np.random.default_rng(seed)
    worst_fermi = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 5))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        c = (a - a.T) / 2
        space = FockSpace("fermi", d)
        om = gaussian_vector(space, c)
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        worst_fermi = max(worst_fermi, np.linalg.norm(kernel_defect(space, c, om, z)))
    worst_bose = 0.0
    space_b = FockSpace("bose", 1, 20)
    sub = space_b.sector_projector(18)
    for _ in range(20):
        c = np.array([[0.6 * (rng.random() - 0.5) * 2]], dtype=complex)
        om = gaussian_vector(space_b, c)
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        worst_bose = max(worst_bose, np.linalg.norm(sub @ kernel_defect(space_b, c, om, z)))
    passed = worst_fermi <= 1e-12 and worst_bose <= 1e-8
    return _report("gaussian-kernels", max(worst_fermi, worst_bose), 1e-8,
                   {"fermi": worst_fermi, "bose": worst_bose}, passed)


def criterion_two_point(seed):
    """Thermal two-point functions against the closed forms."""
    rng = np.random.default_rng(seed)
    worst = {"fermi": 0.0, "bose": 0.0}
    h = np.array([[1.0, 0.2], [0.2, 1.5]], dtype=complex)
    for beta in (0.5, 1.0, 2.0):
        for kind, cutoff in (("fermi", None), ("bose", 5)):
            rep = DoubledRep(ThermalParams.gibbs(kind, h, beta), single_cutoff=cutoff)
            dens = rep.params.density
            vac = rep.space.vacuum()
            for _ in range(4):
                z1 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
                # the normal-ordered <a*(z1) a(z2)> = (z2|rho z1) as well
                got = np.vdot(vac, rep.create_left(z1) @ (rep.annihilate_left(z2) @ vac))
                worst[kind] = max(worst[kind], two_point_defect(rep, z1, z2),
                                  abs(got - np.vdot(z2, dens @ z1)))
    passed = worst["fermi"] <= 1e-10 and worst["bose"] <= 1e-6
    return _report("thermal-two-point", max(worst.values()), 1e-6, worst, passed)


def criterion_modular(seed):
    """Modular operator and conjugation against the polar-of-S oracle."""
    oracle, reps = [], {}
    for kind, h, cutoff in ((FERMI, [[1.0, 0.3], [0.3, 0.6]], None), (BOSE, [[1.0]], 7)):
        rep = DoubledRep(ThermalParams.gibbs(kind, np.array(h, dtype=complex), 1.0),
                         single_cutoff=cutoff)
        j, delta = rep.modular_data()
        delta = dense(delta)  # its 2-norms take the dense kernel
        j_lin, delta_oracle = rep.modular_oracle()
        oracle += [np.linalg.norm(delta_oracle - delta, 2) / np.linalg.norm(delta, 2),
                   np.linalg.norm(j_lin - j.unitary, 2)]
        reps[kind] = rep, j, delta
    rep_f, j_f, _ = reps[FERMI]
    res_conj = conjugation_defect(rep_f, j_f, np.random.default_rng(seed), 5)
    rep_b, _, delta_b = reps[BOSE]
    ell = rep_b.standard_liouvillean(rep_b.params.h)
    res_exp = (np.linalg.norm(delta_b - scipy.linalg.expm(-dense(ell)), 2)
               / np.linalg.norm(delta_b, 2))
    worst_oracle = max(oracle)
    passed = worst_oracle <= 1e-7 and res_conj <= 1e-10 and res_exp <= 1e-9
    return _report("modular-data", max(worst_oracle, res_conj, res_exp), 1e-7,
                   {"oracle": worst_oracle, "conjugation": res_conj, "exp_liouvillean": res_exp},
                   passed)


def criterion_kms(seed):
    """KMS boundary defect, matched and deliberately mismatched."""
    rng = np.random.default_rng(seed)
    results = {}
    for kind, cutoff in (("fermi", None), ("bose", 6)):
        h = np.array([[1.0, 0.2], [0.2, 0.7]], dtype=complex) if kind == "fermi" \
            else np.array([[1.0]], dtype=complex)
        beta = 1.0
        d = h.shape[0]
        rep = DoubledRep(ThermalParams.gibbs(kind, h, beta), single_cutoff=cutoff)
        a_op, b_op = kms_operators(rep, rng)
        results[f"{kind}_match"] = kms_check(rep, h, beta, a_op, b_op, t=0.3)
        # the witness pair carries a creation/annihilation imbalance so the
        # boundary condition actually probes the density
        bad = DoubledRep(ThermalParams(kind, scipy.linalg.expm(-2 * beta * h)),
                         single_cutoff=cutoff)
        e0 = np.zeros(d)
        e0[0] = 1.0
        results[f"{kind}_mismatch"] = kms_check(
            bad, h, beta, bad.annihilate_left(e0), bad.create_left(e0), t=0.3)
    match_res = max(results["fermi_match"], results["bose_match"])
    mismatch_res = min(results["fermi_mismatch"], results["bose_mismatch"])
    passed = match_res <= 1e-8 and mismatch_res > 1e-4
    return _report("kms-boundary", match_res, 1e-8, results, passed)


def criterion_lattice_duality(seed):
    """Fermionic duality between the commutant and the dressed complement."""
    rng = np.random.default_rng(seed)
    space = FockSpace("fermi", 2)
    worst = max(duality_defect(space, rng) for _ in range(10))
    return _report("fermionic-duality", worst, 1e-8)


def criterion_confined_pf(seed):
    """Confined Liouvillean spectra against the difference spectra of H."""
    model = spin_boson(coupling=0.1, gamma_value=0.25, cutoff=14)
    rep = confined_pf_check(model, cutoffs=(8, 10, 12, 14))
    dev14 = max(rep["semi"][-1], rep["standard"][-1])
    monotone = all(a > b for a, b in zip(rep["semi"], rep["semi"][1:])) and \
        all(a > b for a, b in zip(rep["standard"], rep["standard"][1:]))
    passed = dev14 <= 1e-5 and monotone and rep["all_matched"]
    return _report("confined-pauli-fierz", dev14, 1e-5,
                   {"semi": rep["semi"], "standard": rep["standard"], "monotone": bool(monotone),
                    "all_matched": rep["all_matched"], "tail_estimate": rep["tail_estimate"]},
                   passed)


def criterion_quasifree_reduction(seed):
    """Covariance reduction reproduces the density and the two-point form."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ a.conj().T / 2
    cov = aw_covariance(rho)
    red = reduce_covariance(cov)
    spec_in = np.sort(np.linalg.eigvalsh(rho))
    spec_out = np.sort(np.linalg.eigvals(red.density).real)
    res = float(np.max(np.abs(spec_in - spec_out)))
    res = max(res, reconstruction_defect(cov, red, rng))
    return _report("quasifree-reduction", res, 1e-8)


FULL_BATTERY = [
    ("criterion-01", criterion_car_exactness),
    ("criterion-02", criterion_ccr_truncation),
    ("criterion-03", criterion_trace_identities),
    ("criterion-04", criterion_implementers),
    ("criterion-05", criterion_gaussian_kernels),
    ("criterion-06", criterion_two_point),
    ("criterion-07", criterion_modular),
    ("criterion-08", criterion_kms),
    ("criterion-09", criterion_lattice_duality),
    ("criterion-10", criterion_confined_pf),
    ("criterion-extra-quasifree", criterion_quasifree_reduction),
]

SMOKE_BATTERY = ("criterion-01", "criterion-02", "criterion-03", "criterion-05", "criterion-08")


def run_battery(which, seed):
    """(name, report) for every criterion of the full battery, or of its smoke subset."""
    return [(name, fn(seed)) for name, fn in FULL_BATTERY
            if which == "full" or name in SMOKE_BATTERY]
