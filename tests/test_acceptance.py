"""Acceptance battery: every criterion runs at its pinned tolerance and
prints one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they appear.

The full battery is executed twice through the command-line suite writer;
the second run feeds the byte-determinism criterion.  Bytes are stable for
a fixed seed and BLAS thread count; a third run, with one BLAS thread,
must give the same reports and pass flags, with residuals free to move in
their last digits.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fockforge import acceptance, bogolubov, cli
from fockforge.acceptance import car_defect, ccr_defect
from fockforge.fock import FockSpace
from fockforge.linalg import dense, window_norm
from fockforge.ops import DoubledVector, euclidean_form, field

ROOT = Path(__file__).resolve().parents[1]

CRITERIA = [
    ("criterion-01", "CAR exactness"),
    ("criterion-02", "CCR truncation"),
    ("criterion-03", "determinant/trace identities"),
    ("criterion-04", "Shale/Pin intertwining and composition"),
    ("criterion-05", "Gaussian kernel conditions"),
    ("criterion-06", "thermal two-point functions"),
    ("criterion-07", "modular data"),
    ("criterion-08", "KMS boundary"),
    ("criterion-09", "fermionic lattice duality"),
    ("criterion-10", "confined Pauli-Fierz equivalences"),
    ("criterion-extra-quasifree", "quasi-free covariance reduction"),
]


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory):
    first = tmp_path_factory.mktemp("suite_run_1")
    second = tmp_path_factory.mktemp("suite_run_2")
    code_first = cli.suite("full", str(first), seed=42)
    code_second = cli.suite("full", str(second), seed=42)
    return first, second, code_first, code_second


@pytest.mark.parametrize("seed", [0, 7, 42])
def test_criterion_04_fails_when_the_metaplectic_pair_loses_its_sign(monkeypatch, seed):
    # the fermionic composition U(r1) U(r2) = -U(r1 r2) is met only by the pair's -U
    def without_sign(space, blocks):
        u, _ = bogolubov.metaplectic_pair(space, blocks)
        return u, u
    monkeypatch.setattr(acceptance, "metaplectic_pair", without_sign)
    report = acceptance.criterion_implementers(seed)
    assert not report["pass"]
    assert report["fermi_composition"] == pytest.approx(2.0)


@pytest.mark.parametrize("check_name,label", CRITERIA)
def test_criterion(suite_runs, check_name, label):
    first, _, _, _ = suite_runs
    report = json.loads((first / f"{check_name}.json").read_text())
    status = "PASS" if report["pass"] else "FAIL"
    print(f"{status} {check_name} ({label}): residual {report['residual']:.3e} "
          f"<= {report['tolerance']:.1e}")
    assert report["pass"], f"{label}: residual {report['residual']} > {report['tolerance']}"


def test_criterion_10_details(suite_runs):
    first, _, _, _ = suite_runs
    report = json.loads((first / "criterion-10.json").read_text())
    assert report["monotone"], f"deviations not monotone: {report['semi']} {report['standard']}"
    assert report["all_matched"]
    print(f"PASS criterion-10 monotonicity: semi {report['semi']} standard {report['standard']}")


def test_criterion_11_suite_determinism(suite_runs):
    first, second, code_first, code_second = suite_runs
    assert code_first == 0 and code_second == 0
    names = sorted(p.name for p in first.glob("*.json"))
    assert names == sorted(p.name for p in second.glob("*.json"))
    for name in names:
        b1 = (first / name).read_bytes()
        b2 = (second / name).read_bytes()
        assert b1 == b2, f"report {name} differs between identical runs"
    print(f"PASS criterion-11 (suite determinism): {len(names)} reports byte-identical")


def _checks(report):
    """The checks of a report: a summary lists them, a criterion report is one."""
    return report.get("checks", [report])


def test_suite_pass_flags_do_not_depend_on_thread_count(suite_runs, tmp_path):
    first, _, _, _ = suite_runs
    # the thread variables are set by the package from FOCKFORGE_THREADS alone
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env.update(FOCKFORGE_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "fockforge", "suite", "full",
                           "--out-dir", str(tmp_path), "--seed", "42"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in first.glob("*.json"))
    assert names == sorted(p.name for p in tmp_path.glob("*.json"))
    for name in names:
        want = json.loads((first / name).read_text())
        got = json.loads((tmp_path / name).read_text())
        assert got["pass"] == want["pass"], name
        assert [c["pass"] for c in _checks(got)] == [c["pass"] for c in _checks(want)], name
        assert all(c["residual"] <= c["tolerance"] for c in _checks(got)), name


def sparse_defects(space, rng, trials):
    """car_defect (fermions) or ccr_defect (bosons) with the anticommutator or
    commutator formed as a sparse product and densified, the reference for the
    products against dense.  Returns the worst norm and, per trial, the
    sparse-form defect with the same matrix formed against dense."""
    d, diag, worst, pairs = space.d, np.diag_indices(space.dim), 0.0, []
    keep = space.sector_mask(space.n_max - 1)
    for _ in range(trials):
        if space.is_fermi:
            y1, y2 = (DoubledVector.real_point(rng.standard_normal(d) + 1j * rng.standard_normal(d))
                      for _ in range(2))
            a, b, shift = field(space, y1), field(space, y2), 2.0 * euclidean_form(y1, y2)
            pair = dense(a @ b + b @ a), a @ dense(b) + b @ dense(a)
        else:
            w1, w2 = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
            a, b, shift = space.annihilate(w1), space.create(w2), np.vdot(w1, w2)
            pair = dense(a @ b - b @ a), a @ dense(b) - b @ dense(a)
        for defect in pair:
            defect[diag] -= shift
        pairs.append(pair)
        norm = np.linalg.norm(pair[0], 2) if space.is_fermi else window_norm(pair[0], keep)
        worst = max(worst, norm)
    return worst, pairs


@pytest.mark.parametrize("spec", [("fermi", 2, None), ("fermi", 4, None), ("fermi", 6, None),
                                  ("bose", 1, 10), ("bose", 2, 8), ("bose", 3, 6)])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_defects_against_dense_match_the_sparse_products_bit_for_bit(spec, seed):
    space = FockSpace(*spec)
    worst, pairs = sparse_defects(space, np.random.default_rng(seed), 3)
    for sparse_form, dense_form in pairs:
        assert np.array_equal(sparse_form, dense_form)
    defect = car_defect if space.is_fermi else ccr_defect
    assert defect(space, np.random.default_rng(seed), 3) == worst
