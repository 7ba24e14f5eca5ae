"""Every check must be able to fail: a witness for each one-particle rule, on
both sides of its bound, and for each refusal that no other test reaches.

A case is (action, expected).  An int expected is the exit code of cli.run
on the model file the action writes; an (error, pattern) pair is the
refusal the action must raise; ACCEPTED means the action returns True, for
an input the rule accepts and the property it is stored with.
"""

import json

import numpy as np
import pytest

from fockforge import cli
from fockforge.bogolubov import (BogolubovBlocks, FermiDegenerateError, blocks_to_cd,
                                 degenerate_implementer, mode_pair_swap, shale_implementer)
from fockforge.fock import FockSpace, exp_law
from fockforge.lattice import RealSubspace, fermionic_duality_check, join, meet
from fockforge.linalg import _self_adjoint, _symmetric_part, require_square
from fockforge.ops import DoubledVector, jordan_wigner, q_operator, weyl
from fockforge.paulifierz import coupled_create
from fockforge.quasifree import CovarianceData, NonPositiveEtaError, reduce_covariance
from fockforge.thermal import DoubledRep, ThermalParams, confined_gibbs, tracial_field

ACCEPTED = "accepted"
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
# blocks whose two expressions for c and d disagree, for either statistics
SKEW_P, SKEW_Q = np.array([[1.0, 0.3], [0.0, 1.0]]), np.array([[0.2, 0.5], [0.1, 0.3]])


def encode(mat):
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def run(tmp_path, payload):
    """The exit code and, when it wrote one, the report of cli.run on a model file."""
    model, out = tmp_path / "model.json", tmp_path / "report.json"
    model.write_text(json.dumps(payload))
    code = cli.run(str(model), str(out), "json", seed=42)
    return code, json.loads(out.read_text()) if out.exists() else None


def exit_code(payload):
    return lambda tmp_path: run(tmp_path, payload)[0]


def gaussian(asymmetry):
    # d = 2, ||c|| = 0.051: the squeezer's m^{-1} c m^{-T} scales an input asymmetry by
    # 1/(1 - 0.051^2), past the rule's bound 1e-12 for 9.99e-13, unless c is stored exact
    c = np.array([[0.0, 0.051], [0.051 + asymmetry, 0.0]])
    return {"schema_version": 1, "task": "gaussian", "statistics": "bose", "c": encode(c)}


def squeezes_to_the_vacuum(tmp_path):
    code, report = run(tmp_path, gaussian(9.99e-13))
    residual = {c["name"]: c["residual"] for c in report["checks"]}["squeezer-vacuum"]
    return code == 0 and residual <= 1e-12


def pauli_fierz(asymmetry):
    k = np.array([[1.0, 0.2], [0.2 + asymmetry, -1.0]])
    return {"schema_version": 1, "task": "pauli-fierz", "K": encode(k), "h": encode([[1.0]]),
            "v": encode(0.1 * np.eye(2)), "cutoff": 4}


def hamiltonian_is_exactly_hermitian(tmp_path):
    code, report = run(tmp_path, pauli_fierz(5e-11))
    return code == 0 and report["checks"][0]["residual"] == 0.0


def large_m_is_stored_self_adjoint(_):
    # the bound scales with ||m|| = 100: 5e-9 <= 1e-10 * 100, but not 1e-10 / 100
    m = np.diag([100.0, 50.0]).astype(complex)
    m[0, 1] = 5e-9
    stored = _self_adjoint(m, "m")
    return bool(np.array_equal(stored, stored.conj().T) and np.abs(stored - m).max() <= 5e-9)


def large_c_is_stored_symmetric(_):
    # the bound scales with max|c| = 10: 5e-12 <= 1e-12 * 10
    c = np.array([[10.0, 1.0], [1.0 + 5e-12, 0.0]])
    stored = _symmetric_part(c, -1.0)
    return bool(np.array_equal(stored, stored.T) and np.abs(stored - c).max() <= 5e-12)


def raises(build):
    return lambda _: build()


BOSE_SPACE = FockSpace("bose", 1, 4)
FERMI_REP = DoubledRep(ThermalParams("fermi", np.array([[0.3]])))

CASES = {
    # one-particle rules, on both sides of their bounds
    "gaussian-kernel-accepted": (squeezes_to_the_vacuum, ACCEPTED),
    "gaussian-kernel-refused": (exit_code(gaussian(1.01e-12)), 2),
    "K-accepted": (hamiltonian_is_exactly_hermitian, ACCEPTED),
    "K-refused": (exit_code(pauli_fierz(1e-9)), 2),
    "self-adjoint-bound-scales": (large_m_is_stored_self_adjoint, ACCEPTED),
    "pair-kernel-bound-scales": (large_c_is_stored_symmetric, ACCEPTED),
    # cli
    "model-not-an-object": (exit_code([1, 2]), 2),
    "tolerances-not-an-object": (exit_code(
        {"schema_version": 1, "task": "verify-car", "d": 1, "trials": 1, "tolerances": [1]}), 2),
    "unknown-statistics": (exit_code({"schema_version": 1, "task": "gaussian",
                                      "statistics": "anyon", "c": encode([[0.1]])}), 2),
    "bogolubov-expressions-disagree": (exit_code(
        {"schema_version": 1, "task": "bogolubov", "statistics": "bose", "p": encode(SKEW_P),
         "q": encode(SKEW_Q), "tolerances": {"blocks": 10}}), 3),
    "bogolubov-singular-p": (exit_code(
        {"schema_version": 1, "task": "bogolubov", "statistics": "bose", "p": encode([[0.0]]),
         "q": encode([[0.0]]), "tolerances": {"blocks": 10}}), 3),
    # fock
    "fock-unknown-statistics": (raises(lambda: FockSpace("anyon", 1, 2)),
                                (ValueError, "unknown statistics")),
    "fock-no-modes": (raises(lambda: FockSpace("bose", 0, 2)), (ValueError, ">= 1")),
    "fock-missing-cutoff": (raises(lambda: FockSpace("bose", 2)), (ValueError, "n_max >= 0")),
    "fock-negative-cutoff": (raises(lambda: FockSpace("bose", 2, -1)), (ValueError, "n_max >= 0")),
    "ladder-vector-length": (raises(lambda: BOSE_SPACE.ladder(np.ones(2), np.zeros(1))),
                             (ValueError, "vector length")),
    "exp-law-target": (raises(lambda: exp_law(BOSE_SPACE, BOSE_SPACE, FockSpace("bose", 3, 8))),
                       (ValueError, "wrong statistics or dimension")),
    # bogolubov
    "blocks-shapes": (raises(lambda: BogolubovBlocks(np.eye(2), np.zeros((3, 3)), "bose")),
                      (ValueError, "same shape")),
    "blocks-statistics": (raises(lambda: BogolubovBlocks(np.eye(1), np.zeros((1, 1)), "anyon")),
                          (ValueError, "unknown statistics")),
    "compose-statistics": (raises(lambda: BogolubovBlocks.identity(1, "bose").compose(
        BogolubovBlocks.identity(1, "fermi"))), (ValueError, "statistics mismatch")),
    "cd-singular-p": (raises(lambda: blocks_to_cd(BogolubovBlocks([[0.0]], [[0.0]], "bose"))),
                      (np.linalg.LinAlgError, "unexpectedly singular")),
    "cd-expressions-disagree": (raises(lambda: blocks_to_cd(
        BogolubovBlocks(SKEW_P, SKEW_Q, "fermi"))), (np.linalg.LinAlgError, "disagree")),
    "shale-space": (raises(lambda: shale_implementer(
        FockSpace("fermi", 1), BogolubovBlocks.identity(1, "bose"))),
        (ValueError, "disagree on statistics")),
    "mode-pair-swap-one-mode": (raises(lambda: mode_pair_swap(2, 1, 1)),
                                (ValueError, "distinct")),
    "degenerate-bosonic": (raises(lambda: degenerate_implementer(
        BOSE_SPACE, BogolubovBlocks.identity(1, "bose"))), (ValueError, "only the fermionic")),
    # p = 0 at d = 4: Ker p is 4-dimensional, and one mode-pair swap removes at most 2
    "degenerate-no-completion": (raises(lambda: degenerate_implementer(
        FockSpace("fermi", 4), BogolubovBlocks(np.zeros((4, 4)), np.kron(np.eye(2), J2),
                                               "fermi"))),
        (FermiDegenerateError, "no mode-pair completion")),
    # thermal
    "thermal-kind": (raises(lambda: ThermalParams("anyon", np.array([[0.1]]))),
                     (ValueError, "unknown kind")),
    "weyl-left-fermionic": (raises(lambda: FERMI_REP.weyl_left(np.ones(1))),
                            (ValueError, "bosonic")),
    "weyl-right-fermionic": (raises(lambda: FERMI_REP.weyl_right(np.ones(1))),
                             (ValueError, "bosonic")),
    # ThermalParams' bound 1 - 1e-14: 1 - 1e-15 is refused, as it is there
    "confined-gibbs-bosonic-bound": (raises(lambda: confined_gibbs(
        BOSE_SPACE, np.array([[1.0 - 1e-15]]))), (ValueError, "spectrum inside")),
    "tracial-field-bosonic": (raises(lambda: tracial_field(BOSE_SPACE, np.ones(1))),
                              (ValueError, "fermionic")),
    "tracial-field-side": (raises(lambda: tracial_field(FockSpace("fermi", 1), np.ones(1),
                                                        "middle")), (ValueError, "side")),
    # ops
    "weyl-not-real": (raises(lambda: weyl(BOSE_SPACE, DoubledVector(np.array([0.1]),
                                                                    np.array([0.2])))),
                      (ValueError, "real doubled vector")),
    "jordan-wigner-no-site": (raises(lambda: jordan_wigner(0)), (ValueError, "one site")),
    "q-operator-bosonic": (raises(lambda: q_operator(BOSE_SPACE, [])), (ValueError, "fermionic")),
    # lattice
    "real-subspace-basis": (raises(lambda: RealSubspace(2, np.zeros((3, 1)))),
                            (ValueError, "basis must be")),
    "meet-empty": (raises(lambda: meet([])), (ValueError, "empty family")),
    "join-empty": (raises(lambda: join([])), (ValueError, "empty family")),
    "duality-space": (raises(lambda: fermionic_duality_check(
        RealSubspace(2, np.eye(4)[:, :1]), FockSpace("fermi", 3))),
        (ValueError, "fermionic Fock space over the ambient")),
    # linalg
    "require-square-ndim": (raises(lambda: require_square(np.zeros((2, 2, 2)))),
                            (ValueError, "ndim 3")),
    # paulifierz
    "coupled-create-shape": (raises(lambda: coupled_create(
        np.zeros((3, 2)), [BOSE_SPACE.creation(0)] * 2)), (ValueError, "coupling must be")),
    # quasifree
    "covariance-shapes": (raises(lambda: CovarianceData("bose", np.eye(2), np.zeros((4, 4)))),
                          (ValueError, "equal shape")),
    "covariance-kind": (raises(lambda: CovarianceData("anyon", np.eye(2), np.zeros((2, 2)))),
                        (ValueError, "unknown kind")),
    "covariance-omega": (raises(lambda: CovarianceData("bose", np.eye(2),
                                                       np.array([[0.0, 1.0], [0.5, 0.0]]))),
                         (ValueError, "omega is not antisymmetric")),
    "reduce-singular-eta": (raises(lambda: reduce_covariance(
        CovarianceData("fermi", np.diag([1.0, 0.0]), np.zeros((2, 2))))),
        (NonPositiveEtaError, "positive definite")),
}


@pytest.mark.parametrize("action, expected", CASES.values(), ids=CASES.keys())
def test_every_rule_and_refusal_has_a_witness(tmp_path, action, expected):
    if isinstance(expected, tuple):
        error, pattern = expected
        with pytest.raises(error, match=pattern):
            action(tmp_path)
    elif expected == ACCEPTED:
        assert action(tmp_path) is True
    else:
        assert action(tmp_path) == expected
