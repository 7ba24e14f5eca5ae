import importlib.util
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from fockforge import acceptance, cli
from fockforge.fock import FockSpace

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = ROOT / "docs" / "schema.json"


def encode_matrix(mat):
    """A complex matrix as the nested [re, im] lists that decode_matrix reads."""
    mat = np.asarray(mat, dtype=complex)
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def write_model(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def identity_bogolubov_model():
    eye = encode_matrix(np.eye(2))
    zero = encode_matrix(np.zeros((2, 2)))
    return {"schema_version": 1, "task": "bogolubov", "statistics": "fermi",
            "p": eye, "q": zero}


def test_decode_encode_roundtrip():
    m = np.array([[1 + 2j, 0], [0.5j, -1]])
    assert np.allclose(cli.decode_matrix(encode_matrix(m)), m)
    with pytest.raises(cli.SchemaError):
        cli.decode_matrix([[1, 2], [3, 4]])


def test_run_identity_bogolubov(tmp_path, capsys):
    path = write_model(tmp_path, "model.json", identity_bogolubov_model())
    out = tmp_path / "report.json"
    code = cli.run(path, str(out), "json", seed=42)
    assert code == 0
    report = json.loads(out.read_text())
    assert report["pass"] is True
    assert all(c["residual"] <= c["tolerance"] for c in report["checks"])
    assert report["checks"][0]["residual"] == 0.0


def test_run_kms_mismatch_fails(tmp_path):
    h = np.array([[1.0]])
    model = {"schema_version": 1, "task": "kms", "statistics": "fermi",
             "gamma": encode_matrix(np.array([[np.exp(-2.0)]])),
             "h": encode_matrix(h), "beta": 1.0, "t": 0.1}
    path = write_model(tmp_path, "bad.json", model)
    out = tmp_path / "bad_report.json"
    code = cli.run(path, str(out), "json", seed=42)
    assert code == 1
    report = json.loads(out.read_text())
    assert report["pass"] is False
    assert report["checks"][0]["name"] == "kms-defect"
    assert report["checks"][0]["residual"] > 1e-4


def test_run_kms_match_passes(tmp_path):
    model = {"schema_version": 1, "task": "kms", "statistics": "fermi",
             "gamma": encode_matrix(np.array([[np.exp(-1.0)]])),
             "h": encode_matrix(np.array([[1.0]])), "beta": 1.0}
    path = write_model(tmp_path, "good.json", model)
    assert cli.run(path, str(tmp_path / "r.json"), "json", seed=1) == 0


def test_malformed_matrix_exits_2(tmp_path):
    model = identity_bogolubov_model()
    model["p"] = [[1, 0], [0, 1]]
    path = write_model(tmp_path, "bad_shape.json", model)
    assert cli.run(path, None, "json", seed=42) == 2


def test_unknown_task_exits_2(tmp_path):
    path = write_model(tmp_path, "unk.json", {"schema_version": 1, "task": "frobnicate"})
    assert cli.run(path, None, "json", seed=42) == 2


def test_not_json_exits_2(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    assert cli.run(str(path), None, "json", seed=42) == 2


@pytest.mark.parametrize("model", [
    {"task": "verify-ccr", "d": 0},
    {"task": "verify-ccr", "cutoff": -3},
    {"task": "lattice", "d": "abc"},
    {"task": "lattice", "d": None},
    {"task": "verify-car", "d": 2, "trials": None},
    {"task": "verify-ccr", "d": [1], "cutoff": 4},
    {"task": "verify-car", "d": 2, "trials": 0},
    {"task": "verify-car", "d": 2, "trials": -3},
    {"task": "lattice", "d": 2, "subspaces": 0},
    {"task": "thermal", "statistics": "bose", "gamma": encode_matrix(np.diag([0.25])),
     "single_cutoff": 0},
    # a gamma or an h that is not self-adjoint is no density or energy
    {"task": "thermal", "statistics": "fermi",
     "gamma": encode_matrix(np.array([[0.5, 0.2], [0.0, 0.4]]))},
    {"task": "kms", "statistics": "fermi", "gamma": encode_matrix(np.exp(-1.0) * np.eye(2)),
     "h": encode_matrix(np.array([[1.0, 0.7], [0.0, 1.0]])), "beta": 1.0},
    {"task": "pauli-fierz", "K": encode_matrix(np.diag([0.5, -0.5])),
     "h": encode_matrix(np.array([[1.0, 0.5], [0.0, 1.2]])),
     "v": encode_matrix(0.1 * np.ones((4, 2))), "cutoff": 4},
])
def test_domain_errors_exit_2(tmp_path, capsys, model):
    path = write_model(tmp_path, "bad.json", {"schema_version": 1, **model})
    assert cli.run(path, None, "json", seed=42) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("model", [
    {"task": "gaussian", "statistics": "bose", "c": encode_matrix(0.1 * np.eye(2)),
     "cutoff": 200},
    {"task": "bogolubov", "statistics": "bose", "p": encode_matrix(np.eye(2)),
     "q": encode_matrix(np.zeros((2, 2))), "cutoff": 200},
    # a desk-scale model whose reference Hamiltonian at cutoff 30 is one exact block of
    # dim 2 * 5456
    {"task": "pauli-fierz", "K": encode_matrix(np.diag([0.5, -0.5])),
     "h": encode_matrix(np.diag([1.0, 1.2, 1.4])),
     "v": encode_matrix(0.1 * np.ones((6, 2))),
     "gamma": encode_matrix(np.diag([0.25, 0.2, 0.15])), "cutoff": 8},
])
def test_dense_byte_budget_exits_2(tmp_path, capsys, model):
    # each model passes the dimension guard and the model checks, but one dense
    # operator it builds takes 6.6 GB (gaussian, bogolubov) or 1.9 GB (pauli-fierz)
    path = write_model(tmp_path, "big.json", {"schema_version": 1, **model})
    start = time.perf_counter()
    assert cli.run(path, None, "json", seed=42) == 2
    assert time.perf_counter() - start < 2.0
    assert "over the budget" in capsys.readouterr().err


@pytest.mark.parametrize("model", [{"task": "verify-car", "d": 14},
                                   {"task": "verify-ccr", "d": 2, "cutoff": 200}])
def test_verify_tasks_refuse_before_building_fields(tmp_path, capsys, monkeypatch, model):
    # fermi d = 14 (dim 16384) and bose d = 2 at cutoff 200 (dim 20301) are over the
    # byte budget, which car_defect and ccr_defect check before any operator exists
    def built(*args):
        raise AssertionError("an operator was built before the budget check")
    monkeypatch.setattr(acceptance, "field", built)
    monkeypatch.setattr(FockSpace, "ladder", built)
    path = write_model(tmp_path, "big.json", {"schema_version": 1, **model})
    assert cli.run(path, None, "json", seed=42) == 2
    assert "over the budget" in capsys.readouterr().err


# models at the largest sizes the schema and the guards accept, with the exit code each
# must give and its time bound in seconds: the duality check's monomial lists at lattice
# d = 7 may hold 128^4 complex entries (4.3 GB), a dense identity at dim 20301 or 16384 takes
# over 4 GB, and the doubled space of 520 thermal modes (dim 542361 on 1040 modes) would need
# a 4.5 GB occupation table; 1100 modes at cutoff 0 are past Python's recursion limit, so no
# builder may recurse per mode
LARGE_MODELS = {
    "verify-ccr-d1100": ({"task": "verify-ccr", "d": 1100, "cutoff": 0}, 1, 2.0),
    "thermal-520-modes": ({"task": "thermal", "statistics": "bose",
                           "gamma": encode_matrix(0.3 * np.eye(520)), "single_cutoff": 1}, 2, 2.0),
    "lattice-d4": ({"task": "lattice", "d": 4, "subspaces": 2}, 0, 2.0),
    "lattice-d6": ({"task": "lattice", "d": 6, "subspaces": 1}, 0, 5.0),
    "lattice-d7": ({"task": "lattice", "d": 7, "subspaces": 2}, 2, 2.0),
    "verify-ccr-dim-20301": ({"task": "verify-ccr", "d": 2, "cutoff": 200}, 2, 2.0),
    "verify-car-d14": ({"task": "verify-car", "d": 14}, 2, 2.0),
    "thermal-single-cutoff-80": ({"task": "thermal", "statistics": "bose",
                                  "gamma": encode_matrix(np.array([[0.3]])),
                                  "single_cutoff": 80}, 2, 2.0),
    "kms-single-cutoff-80": ({"task": "kms", "statistics": "bose",
                              "gamma": encode_matrix(np.array([[np.exp(-1.0)]])),
                              "h": encode_matrix(np.array([[1.0]])), "beta": 1.0,
                              "single_cutoff": 80}, 2, 2.0),
    "gaussian-dim-20301": ({"task": "gaussian", "statistics": "bose",
                            "c": encode_matrix(np.diag([0.2, 0.1])), "cutoff": 200}, 2, 2.0),
    "bogolubov-dim-20301": ({"task": "bogolubov", "statistics": "bose",
                             "p": encode_matrix(np.cosh(0.2) * np.eye(2)),
                             "q": encode_matrix(np.sinh(0.2) * np.eye(2)), "cutoff": 200}, 2, 2.0),
    # v with every entry nonzero leaves the reference H at cutoff 30 one exact block of
    # dim 10912, over the dense budget
    "pauli-fierz-d3": ({"task": "pauli-fierz", "K": encode_matrix(np.diag([0.5, -0.5])),
                        "h": encode_matrix(np.diag([1.0, 1.3, 1.6])),
                        "v": encode_matrix(0.1 * np.ones((6, 2))),
                        "gamma": encode_matrix(0.25 * np.eye(3)), "cutoff_grid": [2, 3]}, 2, 2.0),
}
CAPPED_RUNS = """
import json, resource, sys, time
cap = 3 * 2**30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from fockforge import cli
runs = []
for path in sys.argv[1:]:
    start = time.perf_counter()
    code = cli.main(["run", path, "--out", path + ".report"])
    runs.append((code, time.perf_counter() - start))
print(json.dumps(runs))
"""


def test_large_models_run_or_exit_2_under_a_3_gib_cap(tmp_path):
    # one child process whose address space is capped at 3 GiB runs every model: a
    # dense build over the cap ends in MemoryError, exit 4, so exit 2 means the
    # budget refused the model before it allocated
    paths = [write_model(tmp_path, f"{name}.json", {"schema_version": 1, **model})
             for name, (model, _, _) in LARGE_MODELS.items()]
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(FOCKFORGE_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", CAPPED_RUNS, *paths],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs = dict(zip(LARGE_MODELS, json.loads(proc.stdout)))
    assert {name: code for name, (code, _) in runs.items()} \
        == {name: code for name, (_, code, _) in LARGE_MODELS.items()}, proc.stderr
    slow = {name: seconds for name, (_, seconds) in runs.items()
            if seconds > LARGE_MODELS[name][2]}
    assert not slow, slow
    assert proc.stderr.count("over the budget") == 9, proc.stderr


def test_csv_format(tmp_path):
    path = write_model(tmp_path, "model.json", identity_bogolubov_model())
    out = tmp_path / "report.csv"
    assert cli.run(path, str(out), "csv", seed=42) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,residual,tolerance,pass"
    assert len(lines) >= 3


def test_run_determinism(tmp_path):
    model = {"schema_version": 1, "task": "verify-ccr", "d": 1, "cutoff": 10,
             "amplitude": 0.2}
    path = write_model(tmp_path, "ccr.json", model)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(path, str(out1), "json", seed=7) == 0
    assert cli.run(path, str(out2), "json", seed=7) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_car_task(tmp_path):
    path = write_model(tmp_path, "car.json",
                       {"schema_version": 1, "task": "verify-car", "d": 3, "trials": 10})
    assert cli.run(path, str(tmp_path / "car_rep.json"), "json", seed=3) == 0


def test_integral_float_counts_as_an_integer(tmp_path, capsys):
    # a JSON number such as 2.0 is the integer 2 (cli._numeric), a fractional one is none
    model = {"schema_version": 1, "task": "verify-car"}
    reports = []
    for d in (2, 2.0):
        path = write_model(tmp_path, "car.json", {**model, "d": d})
        assert cli.run(path, str(tmp_path / "car_rep.json"), "json", seed=3) == 0
        reports.append((tmp_path / "car_rep.json").read_bytes())
    assert reports[0] == reports[1]
    path = write_model(tmp_path, "car.json", {**model, "d": 2.5})
    capsys.readouterr()
    assert cli.run(path, None, "json", seed=3) == 2
    err = capsys.readouterr().err
    assert err.startswith("schema error: ") and "must be an integer" in err


def test_verify_car_task_is_criterion_01():
    rng = np.random.default_rng(42)
    worst = max(cli.task_verify_car({"d": d, "trials": 34}, rng)[0]["residual"]
                for d in (2, 4, 6))
    assert worst == acceptance.criterion_car_exactness(42)["residual"]


def test_lattice_task_is_criterion_09():
    checks = cli.task_lattice({"d": 2, "subspaces": 10}, np.random.default_rng(42))
    assert len(checks) == 10
    worst = max(c["residual"] for c in checks)
    assert worst == acceptance.criterion_lattice_duality(42)["residual"]


def test_duality_defect_rejects_unequal_dimensions(monkeypatch):
    def unequal(v, space):
        return {"dim_commutant": 2, "dim_dressed_dual": 3,
                "defect_comm_in_dual": 0.0, "defect_dual_in_comm": 0.0}

    monkeypatch.setattr(acceptance, "fermionic_duality_check", unequal)
    space = FockSpace("fermi", 2)
    assert acceptance.duality_defect(space, np.random.default_rng(0)) >= 1.0
    assert not acceptance.criterion_lattice_duality(42)["pass"]


def test_tasks_match_the_schema():
    properties = json.loads(SCHEMA.read_text())["properties"]
    assert list(cli.TASKS) == properties["task"]["enum"]
    minimum = {k: v["minimum"] for k, v in properties.items() if "minimum" in v}
    assert cli.MINIMUM == minimum


def test_gaussian_task(tmp_path):
    c = np.array([[0, 0.5], [-0.5, 0]])
    model = {"schema_version": 1, "task": "gaussian", "statistics": "fermi",
             "c": encode_matrix(c)}
    path = write_model(tmp_path, "gauss.json", model)
    assert cli.run(path, str(tmp_path / "g.json"), "json", seed=5) == 0


def test_thermal_task(tmp_path):
    model = {"schema_version": 1, "task": "thermal", "statistics": "fermi",
             "gamma": encode_matrix(np.diag([0.5, 0.2]))}
    path = write_model(tmp_path, "th.json", model)
    assert cli.run(path, str(tmp_path / "t.json"), "json", seed=5) == 0


def test_lattice_task(tmp_path):
    model = {"schema_version": 1, "task": "lattice", "d": 2, "subspaces": 3}
    path = write_model(tmp_path, "lat.json", model)
    assert cli.run(path, str(tmp_path / "l.json"), "json", seed=5) == 0


def test_pauli_fierz_task(tmp_path):
    model = {"schema_version": 1, "task": "pauli-fierz",
             "K": encode_matrix(np.diag([0.5, -0.5])),
             "h": encode_matrix(np.eye(1)),
             "v": encode_matrix(0.1 * np.array([[0, 1], [1, 0]])),
             "cutoff": 8}
    path = write_model(tmp_path, "pf.json", model)
    assert cli.run(path, str(tmp_path / "pf_rep.json"), "json", seed=5) == 0


@pytest.mark.parametrize("K, h", [
    (np.diag([0.5, -0.5]), [[1.0, 5e-11], [0.0, 1.2]]),
    ([[2.0, 1.5e-12], [0.0, 2.2]], np.eye(2)),
])
def test_pauli_fierz_hermiticity_checks_the_hamiltonian(tmp_path, K, h):
    # both inputs pass their self-adjointness checks but are not Hermitian to
    # 1e-12; the model stores them symmetrised, so H is Hermitian to the bit
    model = {"schema_version": 1, "task": "pauli-fierz",
             "K": encode_matrix(np.array(K)), "h": encode_matrix(np.array(h)),
             "v": encode_matrix(0.1 * np.ones((4, 2))), "cutoff": 4}
    path = write_model(tmp_path, "pf.json", model)
    out = tmp_path / "r.json"
    assert cli.run(path, str(out), "json", seed=42) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [(c["name"], c["residual"]) for c in checks] == [("hamiltonian-hermiticity", 0.0)]


def test_pauli_fierz_hermiticity_rejects_an_anti_hermitian_term(tmp_path, monkeypatch):
    # the witness of the gate: H + T with T = i eps |0)(0|, so T* = -T and the
    # residual ||(H + T) - (H + T)*|| is the spectral norm of T - T* = 2T, 2 eps
    eps, build = 1e-9, cli.hamiltonian

    def skewed(model, cutoff):
        ham, space = build(model, cutoff)
        return ham + scipy.sparse.csr_array(([1j * eps], ([0], [0])), shape=ham.shape), space

    monkeypatch.setattr(cli, "hamiltonian", skewed)
    model = {"schema_version": 1, "task": "pauli-fierz",
             "K": encode_matrix(np.diag([0.5, -0.5])), "h": encode_matrix(np.eye(1)),
             "v": encode_matrix(0.1 * np.array([[0, 1], [1, 0]])), "cutoff": 4}
    path = write_model(tmp_path, "pf.json", model)
    out = tmp_path / "r.json"
    assert cli.run(path, str(out), "json", seed=42) == 1
    [check] = json.loads(out.read_text())["checks"]
    assert check["name"] == "hamiltonian-hermiticity" and check["pass"] is False
    assert check["residual"] == pytest.approx(2 * eps, rel=1e-14)


# every sample model passes, except the KMS mismatch witness, which must fail
SAMPLE_EXIT_CODES = {"kms_mismatch": 1}
SAMPLES = sorted((ROOT / "docs" / "models").glob("*.json"))


@pytest.mark.parametrize("path", SAMPLES, ids=lambda p: p.stem)
def test_sample_models_exit_with_their_documented_code(tmp_path, path):
    out = tmp_path / "report.json"
    assert cli.main(["run", str(path), "--out", str(out)]) == SAMPLE_EXIT_CODES.get(path.stem, 0)


def test_every_task_has_a_sample_model():
    assert {json.loads(p.read_text())["task"] for p in SAMPLES} == set(cli.TASK_RUNNERS)


def one_stderr_line(capsys, prefix):
    err = capsys.readouterr().err
    return err.startswith(prefix) and len(err.splitlines()) == 1


@pytest.mark.parametrize("p,q", [
    ([[1.0, 0.2], [0.0, 1.0]], [[0.3, 0.1], [0.0, 0.2]]),
    ([[1.0]], [[0.5]]),
])
def test_invalid_bose_blocks_fail_block_relations(tmp_path, p, q):
    model = {"schema_version": 1, "task": "bogolubov", "statistics": "bose",
             "p": encode_matrix(np.array(p)), "q": encode_matrix(np.array(q))}
    path = write_model(tmp_path, "blocks.json", model)
    out = tmp_path / "r.json"
    assert cli.run(path, str(out), "json", seed=42) == 1
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == ["block-relations"]
    assert checks[0]["pass"] is False


@pytest.mark.parametrize("grid", [{"cutoff": 4}, {"cutoff": 2}, {"cutoff_grid": [6]},
                                  {"cutoff_grid": [8, 6]}])
def test_pauli_fierz_grid_must_increase(tmp_path, capsys, grid):
    model = {"schema_version": 1, "task": "pauli-fierz",
             "K": encode_matrix(np.diag([0.5, -0.5])),
             "h": encode_matrix(np.eye(1)),
             "v": encode_matrix(0.1 * np.array([[0, 1], [1, 0]])),
             "gamma": encode_matrix(np.array([[0.25]])), **grid}
    path = write_model(tmp_path, "pf.json", model)
    assert cli.run(path, None, "json", seed=42) == 2
    assert one_stderr_line(capsys, "schema error: cutoff grid ")


@pytest.mark.parametrize("model,message", [
    ({"task": "thermal", "statistics": "bose", "gamma": encode_matrix([[0.3]]),
      "h": encode_matrix(np.eye(2))}, "h is (2, 2) but gamma is (1, 1)"),
    ({"task": "kms", "statistics": "fermi", "gamma": encode_matrix([[0.3]]),
      "h": encode_matrix(np.eye(2)), "beta": 1.0}, "h is (2, 2) but gamma is (1, 1)"),
    ({"task": "pauli-fierz", "K": encode_matrix(np.diag([0.5, -0.5])),
      "h": encode_matrix(np.eye(1)), "v": encode_matrix(0.1 * np.array([[0, 1], [1, 0]])),
      "gamma": encode_matrix(np.diag([0.25, 0.2]))}, "h is (1, 1) but gamma is (2, 2)"),
])
def test_h_and_gamma_shapes_must_match(tmp_path, capsys, model, message):
    path = write_model(tmp_path, "shapes.json", {"schema_version": 1, **model})
    assert cli.run(path, None, "json", seed=42) == 2
    assert one_stderr_line(capsys, f"schema error: {message}")


def test_pauli_fierz_sample_model_with_gamma(tmp_path):
    out = tmp_path / "pf.json"
    assert cli.main(["run", str(ROOT / "docs" / "models" / "spin_boson.json"),
                     "--out", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == ["confined-spectra", "cutoff-improvement"]


def test_pauli_fierz_unmatched_targets_fail(tmp_path):
    # at cutoff 4 the semi targets E0-1, E1-2 and E2-2 find no comparison partner
    model = {"schema_version": 1, "task": "pauli-fierz",
             "K": encode_matrix(np.diag([0.5, -0.5])),
             "h": encode_matrix(np.eye(1)),
             "v": encode_matrix(0.1 * np.array([[0, 1], [1, 0]])),
             "gamma": encode_matrix(np.array([[0.25]])),
             "cutoff_grid": [3, 4], "tolerances": {"spectra": 1e-2}}
    path = write_model(tmp_path, "pf.json", model)
    out = tmp_path / "r.json"
    assert cli.run(path, str(out), "json", seed=42) == 1
    spectra = json.loads(out.read_text())["checks"][0]
    assert spectra["name"] == "confined-spectra"
    assert spectra["residual"] <= spectra["tolerance"] and spectra["pass"] is False


def test_pauli_fierz_grid_checked_without_gamma(tmp_path, capsys):
    model = {"schema_version": 1, "task": "pauli-fierz",
             "K": encode_matrix(np.diag([0.5, -0.5])),
             "h": encode_matrix(np.eye(1)),
             "v": encode_matrix(0.1 * np.array([[0, 1], [1, 0]])),
             "cutoff_grid": [8, 6]}
    path = write_model(tmp_path, "pf.json", model)
    assert cli.run(path, None, "json", seed=42) == 2
    assert one_stderr_line(capsys, "schema error: cutoff grid [8, 6] ")


def test_degenerate_bogolubov_blocks_run(tmp_path):
    # p = 0: the mode-pair swap that phi_0 phi_1 implements, Ker p is everything
    model = {"schema_version": 1, "task": "bogolubov", "statistics": "fermi",
             "p": encode_matrix(np.zeros((2, 2))),
             "q": encode_matrix(np.array([[0, -1], [1, 0]]))}
    path = write_model(tmp_path, "swap.json", model)
    out = tmp_path / "r.json"
    assert cli.run(path, str(out), "json", seed=42) == 0
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == ["block-relations", "implementer-unitarity",
                                           "intertwining"]
    assert all(c["residual"] <= 1e-14 for c in checks)


def test_fermi_degenerate_sample_model_takes_the_swap_route(tmp_path, monkeypatch):
    # p = diag(0, 0, 1): Ker p is the first two modes, so the closed form
    # fails and the implementer is composed with a mode-pair swap
    calls = []
    composed = cli.degenerate_implementer

    def counting(space, blocks):
        calls.append(blocks.d)
        return composed(space, blocks)

    monkeypatch.setattr(cli, "degenerate_implementer", counting)
    out = tmp_path / "r.json"
    assert cli.main(["run", str(ROOT / "docs" / "models" / "fermi_degenerate.json"),
                     "--out", str(out)]) == 0
    assert calls == [3]
    checks = json.loads(out.read_text())["checks"]
    assert [c["name"] for c in checks] == ["block-relations", "implementer-unitarity",
                                           "intertwining"]
    assert all(c["pass"] for c in checks)


def test_suite_unknown_name(tmp_path, capsys):
    assert cli.suite("nope", str(tmp_path), seed=42) == 2
    assert one_stderr_line(capsys, "schema error: unknown suite 'nope'")


def test_unwritable_report_exits_2(tmp_path, capsys):
    path = write_model(tmp_path, "model.json", identity_bogolubov_model())
    assert cli.run(path, str(tmp_path / "missing" / "r.json"), "json", seed=42) == 2
    assert one_stderr_line(capsys, "schema error: ")


def test_suite_out_dir_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert cli.suite("smoke", str(taken), seed=42) == 2
    assert one_stderr_line(capsys, "schema error: ")


@pytest.mark.parametrize("error,code,prefix", [
    (ValueError, 2, "schema error: "),
    (np.linalg.LinAlgError, 3, "numerical failure: "),
    (RuntimeError, 4, "internal error: RuntimeError: "),
])
def test_suite_maps_criterion_errors(tmp_path, capsys, monkeypatch, error, code, prefix):
    def broken(seed):
        raise error("broken criterion")

    battery = [(name, broken if name == "criterion-01" else fn)
               for name, fn in acceptance.FULL_BATTERY]
    monkeypatch.setattr(acceptance, "FULL_BATTERY", battery)
    assert cli.suite("smoke", str(tmp_path), seed=42) == code
    assert one_stderr_line(capsys, prefix + "broken criterion")


def test_shale_cutoff_warning_reaches_stderr(tmp_path):
    model = {"schema_version": 1, "task": "bogolubov", "statistics": "bose",
             "p": encode_matrix(np.array([[np.cosh(1.0)]])),
             "q": encode_matrix(np.array([[np.sinh(1.0)]])), "cutoff": 2}
    path = write_model(tmp_path, "shale.json", model)
    out = tmp_path / "r.json"
    proc = subprocess.run([sys.executable, "-m", "fockforge.cli", "run", path, "--out", str(out)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 1
    assert "cutoff 2 may be too small for expected pair excitation 1.16" in proc.stderr
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.run(path, str(tmp_path / "quiet.json"), "json", seed=42) == 1
    assert out.read_bytes() == (tmp_path / "quiet.json").read_bytes()


def test_suite_smoke(tmp_path):
    code = cli.suite("smoke", str(tmp_path / "reports"), seed=42)
    assert code == 0
    summary = json.loads((tmp_path / "reports" / "summary.json").read_text())
    assert summary["pass"] is True
    assert len(summary["checks"]) >= 4


def test_run_suite_model_file(tmp_path):
    path = write_model(tmp_path, "suite.json",
                       {"schema_version": 1, "task": "suite", "name": "smoke"})
    assert cli.run(path, str(tmp_path / "reports"), "json", seed=42) == 0
    summary = json.loads((tmp_path / "reports" / "summary.json").read_text())
    assert summary["suite"] == "smoke" and summary["pass"] is True


def test_run_suite_model_file_defaults(tmp_path, capsys, monkeypatch):
    # a suite model file takes the suite subcommand's output directory and has no csv form
    monkeypatch.chdir(tmp_path)
    path = write_model(tmp_path, "suite.json",
                       {"schema_version": 1, "task": "suite", "name": "smoke"})
    assert cli.main(["run", path, "--format", "csv"]) == 2
    assert one_stderr_line(capsys, "schema error: a suite writes one JSON report per check")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["suite.json"]
    assert cli.main(["run", path]) == 0
    assert json.loads((tmp_path / "reports" / "summary.json").read_text())["pass"] is True
    assert sorted(p.name for p in tmp_path.iterdir()) == ["reports", "suite.json"]


def test_main_suite(tmp_path):
    out = tmp_path / "reports"
    assert cli.main(["suite", "smoke", "--out-dir", str(out), "--seed", "42"]) == 0
    names = [c["name"] for c in json.loads((out / "summary.json").read_text())["checks"]]
    assert names == list(acceptance.SMOKE_BATTERY)


def test_main_entry(tmp_path):
    path = write_model(tmp_path, "model.json", identity_bogolubov_model())
    assert cli.main(["run", path, "--out", str(tmp_path / "o.json")]) == 0


def test_python_dash_m_runs_a_model(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "fockforge", "run",
                           str(ROOT / "docs" / "models" / "fermi_rotation.json"),
                           "--out", str(tmp_path / "r.json")],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "r.json").read_text())["pass"] is True


def test_report_digest_against_a_doctored_digest(monkeypatch, tmp_path, capsys):
    # the comparison only: the digests are fixed lines, so no suite runs
    monkeypatch.setenv("FOCKFORGE_THREADS", "2")  # the tool pins it at import
    spec = importlib.util.spec_from_file_location("report_digest",
                                                  ROOT / "tools" / "report_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    reports = [("aa", "full/criterion-01.json", 0), ("bb", "full/criterion-08.json", 1),
               ("cc", "run/model.json", 0), ("dd", "run/model.csv", 0)]
    monkeypatch.setattr(tool, "digests", lambda out: iter(reports))
    lines = [f"{digest}  {name}  {code}" for digest, name, code in reports]
    saved = tmp_path / "saved.txt"
    saved.write_text("\n".join(lines) + "\n")
    assert tool.differences(lines, saved.read_text().splitlines()) == []
    assert tool.main(["--against", str(saved)]) == 0
    assert capsys.readouterr().out == f"all 4 reports match {saved}\n"
    # one digest changed, one exit code changed, one report missing, one extra
    doctored = [lines[0].replace("aa", "ab"), lines[1][:-1] + "0", lines[3],
                "ee  run/other.json  0"]
    saved.write_text("\n".join(doctored) + "\n")
    diff = tool.differences(lines, saved.read_text().splitlines())
    assert diff == [f"now   {lines[0]}\nsaved {doctored[0]}",
                    f"now   {lines[1]}\nsaved {doctored[1]}",
                    f"now   {lines[2]}\nsaved (none)", f"now   (none)\nsaved {doctored[3]}"]
    assert tool.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().out == "\n".join(diff) + "\n"
