"""Command-line front end: run verification tasks from JSON model files
and emit machine-readable reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 schema or domain
error, 3 numerical failure, 4 internal error (any other exception).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import acceptance
from .acceptance import _report
from .bogolubov import (BogolubovBlocks, FermiDegenerateError, degenerate_implementer,
                        shale_implementer, validate_blocks)
from .fock import FockSpace
from .linalg import dense, window_norm
from .ops import DoubledVector, gaussian_vector, squeezer, symplectic_form, weyl
from .paulifierz import PauliFierzModel, confined_pf_check, hamiltonian
from .thermal import DoubledRep, ThermalParams, kms_check

SCHEMA_VERSION = 1
# the "minimum" of each integer field in docs/schema.json
MINIMUM = {"d": 1, "cutoff": 0, "single_cutoff": 1, "trials": 1, "subspaces": 1}


class SchemaError(ValueError):
    pass


def decode_matrix(obj) -> np.ndarray:
    """Nested lists of [re, im] pairs -> complex matrix."""
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"matrix is not numeric: {exc}") from None
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise SchemaError(f"matrix must be rows x cols x [re, im], got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def _require(model: dict, key, types):
    if key not in model:
        raise SchemaError(f"missing field {key!r}")
    if not isinstance(model[key], types):
        raise SchemaError(f"field {key!r} has wrong type")
    return model[key]


def _numeric(value, name, integer: bool = False):
    """value as an int (integer) or a float: the one check of the numeric fields.

    A JSON integer (an integral float counts) or a finite JSON number is
    accepted; booleans, null, strings, containers, NaN and numbers beyond
    the float range are not, nor is a value below the field's MINIMUM.
    """
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if ok and integer and isinstance(value, float):
        ok = value.is_integer()
    if ok and not integer:
        ok = abs(value) <= sys.float_info.max  # also false for NaN
    if not ok:
        raise SchemaError(f"field {name!r} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    if value < MINIMUM.get(name, value):
        raise SchemaError(f"field {name!r} must be at least {MINIMUM[name]}, got {value!r}")
    return int(value) if integer else float(value)


def _number(obj: dict, key, default, integer: bool = False):
    """obj[key] through _numeric, or default when the key is absent."""
    return _numeric(obj[key], key, integer) if key in obj else default


def _tolerance(model: dict, key, default) -> float:
    tols = model.get("tolerances", {})
    if not isinstance(tols, dict):
        raise SchemaError("field 'tolerances' must be an object")
    return _number(tols, key, default)


def _statistics(model) -> str:
    stat = _require(model, "statistics", str).lower()
    if stat not in ("bose", "fermi"):
        raise SchemaError(f"unknown statistics {stat!r}")
    return stat


def task_verify_ccr(model, rng):
    d = _number(model, "d", 1, integer=True)
    cutoff = _number(model, "cutoff", 12, integer=True)
    amplitude = _number(model, "amplitude", 0.25)
    tol_comm = _tolerance(model, "commutator", 1e-12)
    tol_weyl = _tolerance(model, "weyl", 1e-8)
    space = FockSpace("bose", d, cutoff)
    worst = acceptance.ccr_defect(space, rng, 5)
    window = space.sector_mask(cutoff // 2)
    z1 = amplitude * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    z1 *= amplitude / max(np.linalg.norm(np.concatenate([z1, z1.conj()])), 1e-12)
    z2 = amplitude * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
    z2 *= amplitude / max(np.linalg.norm(np.concatenate([z2, z2.conj()])), 1e-12)
    y1, y2 = DoubledVector.real_point(z1), DoubledVector.real_point(z2)
    phase = np.exp(-0.5j * symplectic_form(y1, y2))
    y12 = DoubledVector(y1.z1 + y2.z1, y1.z2bar + y2.z2bar)
    defect = weyl(space, y1) @ weyl(space, y2) - phase * weyl(space, y12)
    weyl_res = window_norm(defect, window)
    return [_report("ccr-commutator-subcutoff", worst, tol_comm),
            _report("weyl-relation-window", weyl_res, tol_weyl)]


def task_verify_car(model, rng):
    d = _number(model, "d", 3, integer=True)
    trials = _number(model, "trials", 25, integer=True)
    tol = _tolerance(model, "car", 1e-12)
    worst = acceptance.car_defect(FockSpace("fermi", d), rng, trials)
    return [_report("car-anticommutator", worst, tol)]


def task_bogolubov(model, rng):
    stat = _statistics(model)
    p = decode_matrix(_require(model, "p", list))
    q = decode_matrix(_require(model, "q", list))
    cutoff = _number(model, "cutoff", 12 if stat == "bose" else 0, integer=True)
    blocks = BogolubovBlocks(p, q, stat)
    checks = [_report("block-relations", max(validate_blocks(blocks).values()),
                      _tolerance(model, "blocks", 1e-9))]
    if not checks[0]["pass"]:
        # blocks that break the relations define no Bogolubov map to implement
        return checks
    space = FockSpace(stat, p.shape[0], cutoff)  # a fermionic space ignores the cutoff
    try:
        u = dense(shale_implementer(space, blocks))
    except FermiDegenerateError:
        # Ker p != 0: the closed form fails, the composed route does not
        u = degenerate_implementer(space, blocks)
    z = rng.standard_normal(p.shape[0]) + 1j * rng.standard_normal(p.shape[0])
    y = DoubledVector.real_point(z / np.linalg.norm(z))
    defect = acceptance.intertwining_defect(space, blocks, u, y)
    keep = np.ones(space.dim, dtype=bool)
    if stat == "fermi":
        unit = np.linalg.norm(u.conj().T @ u - np.eye(space.dim), 2)
        checks.append(_report("implementer-unitarity", unit,
                              _tolerance(model, "unitarity", 1e-10)))
        tol_int = _tolerance(model, "intertwining", 1e-10)
    else:
        keep = space.sector_mask(max(2, space.n_max // 5))
        tol_int = _tolerance(model, "intertwining", 1e-7)
    checks.append(_report("intertwining", window_norm(defect, keep), tol_int))
    return checks


def task_gaussian(model, rng):
    stat = _statistics(model)
    c = decode_matrix(_require(model, "c", list))
    cutoff = _number(model, "cutoff", 20 if stat == "bose" else 0, integer=True)
    space = FockSpace(stat, c.shape[0], cutoff)
    om = gaussian_vector(space, c)
    z = rng.standard_normal(c.shape[0]) + 1j * rng.standard_normal(c.shape[0])
    tol_k = _tolerance(model, "kernel", 1e-12 if stat == "fermi" else 1e-8)
    checks = [_report("kernel-condition",
                      np.linalg.norm(acceptance.kernel_defect(space, c, om, z)), tol_k)]
    res = np.linalg.norm(dense(squeezer(space, c)) @ om - space.vacuum())
    tol_r = _tolerance(model, "squeezer", 1e-12 if stat == "fermi" else 1e-6)
    checks.append(_report("squeezer-vacuum", res, tol_r))
    return checks


def task_thermal(model, rng):
    stat = _statistics(model)
    g = decode_matrix(_require(model, "gamma", list))
    h = decode_matrix(model["h"]) if "h" in model else None
    cutoff = _number(model, "single_cutoff", None, integer=True)
    params = ThermalParams(stat, g, h=h)
    rep = DoubledRep(params, single_cutoff=cutoff)
    d = params.d
    worst = 0.0
    for _ in range(5):
        z1 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        z2 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        worst = max(worst, acceptance.two_point_defect(rep, z1, z2))
    tol_tp = _tolerance(model, "two_point", 1e-10 if stat == "fermi" else 1e-6)
    checks = [_report("two-point", worst, tol_tp)]
    if np.linalg.eigvalsh(params.gamma).min() > 1e-12:
        res = acceptance.conjugation_defect(rep, rep.modular_conjugation(), rng, 3)
        checks.append(_report("modular-conjugation", res, _tolerance(model, "conjugation", 1e-10)))
    return checks


def task_kms(model, rng):
    stat = _statistics(model)
    g = decode_matrix(_require(model, "gamma", list))
    h = decode_matrix(_require(model, "h", list))
    beta = _numeric(_require(model, "beta", (int, float)), "beta")
    t = _number(model, "t", 0.0)
    cutoff = _number(model, "single_cutoff", None, integer=True)
    rep = DoubledRep(ThermalParams(stat, g, h=h), single_cutoff=cutoff)
    a_op, b_op = acceptance.kms_operators(rep, rng)
    defect = kms_check(rep, h, beta, a_op, b_op, t=t)
    tol = _tolerance(model, "kms", 1e-8)
    return [_report("kms-defect", defect, tol)]


def task_lattice(model, rng):
    d = _number(model, "d", 2, integer=True)
    n_sub = _number(model, "subspaces", 5, integer=True)
    tol = _tolerance(model, "duality", 1e-8)
    space = FockSpace("fermi", d)
    return [_report(f"duality-{i}", acceptance.duality_defect(space, rng), tol)
            for i in range(n_sub)]


def task_pauli_fierz(model, rng):
    k = decode_matrix(_require(model, "K", list))
    h = decode_matrix(_require(model, "h", list))
    v = decode_matrix(_require(model, "v", list))
    g = decode_matrix(model["gamma"]) if "gamma" in model else None
    cutoff = _number(model, "cutoff", 10, integer=True)
    pf = PauliFierzModel(k, h, v, g, cutoff)
    given = "cutoff_grid" in model
    cutoffs = (tuple(_numeric(n, "cutoff_grid", integer=True)
                     for n in _require(model, "cutoff_grid", list))
               if given else (max(4, cutoff - 4), cutoff))
    # cutoff-improvement compares the first and the last cutoff of the grid;
    # a given grid is checked even where no gamma uses it
    if (given or g is not None) and (
            len(cutoffs) < 2 or any(a >= b for a, b in zip(cutoffs, cutoffs[1:]))):
        raise SchemaError(f"cutoff grid {list(cutoffs)} must increase strictly "
                          "through at least two cutoffs")
    if g is None:
        ham, _ = hamiltonian(pf, cutoff)
        herm = np.linalg.norm(dense(ham - ham.conj().T), 2)
        return [_report("hamiltonian-hermiticity", herm, _tolerance(model, "hermitian", 1e-12))]
    rep = confined_pf_check(pf, cutoffs=cutoffs)
    dev = max(rep["semi"][-1], rep["standard"][-1])
    tol = _tolerance(model, "spectra", 1e-5)
    checks = [_report("confined-spectra", dev, tol, passed=dev <= tol and rep["all_matched"])]
    improving = rep["semi"][-1] <= rep["semi"][0] and rep["standard"][-1] <= rep["standard"][0]
    checks.append(_report("cutoff-improvement", 0.0 if improving else 1.0, 0.5))
    return checks


TASK_RUNNERS = {
    "verify-ccr": task_verify_ccr,
    "verify-car": task_verify_car,
    "bogolubov": task_bogolubov,
    "gaussian": task_gaussian,
    "thermal": task_thermal,
    "kms": task_kms,
    "lattice": task_lattice,
    "pauli-fierz": task_pauli_fierz,
}

TASKS = (*TASK_RUNNERS, "suite")


def load_model(path: str) -> dict:
    try:
        model = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(model, dict):
        raise SchemaError("model file must contain a JSON object")
    version = model.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version}")
    task = _require(model, "task", str)
    if task not in TASKS:
        raise SchemaError(f"unknown task {task!r}; expected one of {TASKS}")
    return model


def _envelope(seed: int, fields: dict) -> dict:
    """The one report shape: fields plus the schema version, the seed and a null timing."""
    return {"schema_version": SCHEMA_VERSION, "seed": seed, "timing": None, **fields}


def serialize_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True, default=float) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "residual", "tolerance", "pass"])
    for check in report["checks"]:
        writer.writerow([check["name"], repr(check["residual"]),
                         repr(check["tolerance"]), check["pass"]])
    return buf.getvalue()


def _exit_codes(command):
    """The one mapping of a command's failures to exit codes, shared by run and
    suite: 3 for a numerical failure; 2 for a schema or domain error (any other
    ValueError) and for a file that cannot be read or written; 4 for any other
    exception, an internal error.  KeyboardInterrupt is not caught."""
    @functools.wraps(command)
    def guarded(*args, **kwargs) -> int:
        try:
            return command(*args, **kwargs)
        # LinAlgError subclasses ValueError, so it is caught first
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        except (ValueError, OSError) as exc:
            print(f"schema error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 4
    return guarded


@_exit_codes
def run(model_path: str, out_path: str | None, fmt: str, seed: int) -> int:
    t0 = time.time()
    model = load_model(model_path)
    if model["task"] == "suite":
        if fmt != "json":
            raise SchemaError("a suite writes one JSON report per check; it has no csv format")
        return suite(model.get("name", "smoke"), out_path or "reports", seed)
    task = model["task"]
    checks = TASK_RUNNERS[task](model, np.random.default_rng(seed))
    passed = all(c["pass"] for c in checks)
    text = serialize_report(_envelope(seed, {"task": task, "checks": checks, "pass": passed}), fmt)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"task {task}: {'pass' if passed else 'FAIL'} "
          f"({time.time() - t0:.2f}s)", file=sys.stderr)
    return 0 if passed else 1


@_exit_codes
def suite(name: str, out_dir: str, seed: int) -> int:
    if name not in ("smoke", "full"):
        raise SchemaError(f"unknown suite {name!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    results = [(check_name, criterion(seed)) for check_name, criterion in acceptance.FULL_BATTERY
               if name == "full" or check_name in acceptance.SMOKE_BATTERY]
    for check_name, rep in results:
        (out / f"{check_name}.json").write_text(
            serialize_report(_envelope(seed, {"suite": name, **rep}), "json"))
        print(f"{check_name}: {'pass' if rep['pass'] else 'FAIL'} "
              f"(residual {rep['residual']:.3e} <= {rep['tolerance']:.1e})", file=sys.stderr)
    summary = [{"name": check_name, "pass": rep["pass"], "residual": rep["residual"],
                "tolerance": rep["tolerance"]} for check_name, rep in results]
    all_pass = all(rep["pass"] for _, rep in results)
    (out / "summary.json").write_text(serialize_report(
        _envelope(seed, {"suite": name, "checks": summary, "pass": all_pass}), "json"))
    print(f"suite {name}: {'pass' if all_pass else 'FAIL'} ({time.time() - t0:.1f}s)",
          file=sys.stderr)
    return 0 if all_pass else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fockforge",
                                     description="run verification tasks on Fock-space models")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a single model file")
    p_run.add_argument("model")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.add_argument("--seed", type=int, default=42)
    p_suite = sub.add_parser("suite", help="run a named battery")
    p_suite.add_argument("name")
    p_suite.add_argument("--out-dir", default="reports")
    p_suite.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.model, args.out, args.format, args.seed)
    return suite(args.name, args.out_dir, args.seed)


if __name__ == "__main__":
    sys.exit(main())
