"""The public surface stays small: every defaulted parameter in the package
is a knob that some caller must need, and every public name is one that a
check runs or a test pins, so a new one shows up here.  docs/coverage.md
maps each paper statement to its gate and must name only what exists, and
each name in a tier-1-only row must appear in a test file the row names.
Sparse operators are densified by one budget-checked route, and every
production exponential runs on numpy's BLAS, never on scipy's."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.sparse

from fockforge import acceptance, cli
from fockforge.bogolubov import metaplectic_pair, random_blocks, shale_implementer
from fockforge.fock import FockSpace, dgamma, gamma
from fockforge.ops import DoubledVector, multi_create, squeezer, weyl
from fockforge.thermal import DoubledRep, ThermalParams, kms_check

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fockforge"
COVERAGE = ROOT / "docs" / "coverage.md"
MAX_DEFAULTED = 13
MAX_PUBLIC = 175


def defaulted_parameters():
    """module.function(parameter) for every parameter with a default, in every def."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            with_default = positional[len(positional) - len(args.defaults):]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            names += [f"{path.stem}.{node.name}({a.arg})" for a in with_default]
    return names


def public_names():
    """module.name for every public top-level def and class, and module.Class.method
    for every public method of a public class."""
    names = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            names.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                names += [f"{path.stem}.{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return names


def test_defaulted_parameter_census():
    names = defaulted_parameters()
    assert len(names) <= MAX_DEFAULTED, "\n".join(names)


def test_public_name_census():
    names = public_names()
    assert len(names) <= MAX_PUBLIC, "\n".join(names)


def callers(name):
    """module.function for every def in the package that calls name, a function or method."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.stem}.{fn.name}" for node in ast.walk(fn)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "attr", getattr(node.func, "id", None)) == name]
    return sorted(found)


def test_densify_census():
    # a sparse operator becomes dense only in linalg.dense, which checks the byte budget
    # first; the other budget checks guard arrays that are allocated dense directly, except
    # fock.gamma's and ops._implementer_matrix's, which keep the refusals of the dense
    # operators: their dense arrays are sector or parity blocks, not a dim x dim matrix
    assert [p.name for p in sorted(PACKAGE.glob("*.py")) if ".toarray(" in p.read_text()] \
        == ["linalg.py"]
    assert callers("_require_dense") == ["acceptance.car_defect", "acceptance.ccr_defect",
                                         "fock.gamma", "lattice.fermionic_duality_check",
                                         "linalg.dense", "ops._implementer_matrix"]


def test_fock_layer_builders_return_csr_arrays():
    # every second-quantized builder of the fock layer, Gamma(p) and the implementers
    # included, is sparse
    rng = np.random.default_rng(3)
    for space in (FockSpace("bose", 2, 4), FockSpace("fermi", 3)):
        d = space.d
        w, v = (rng.standard_normal(d) + 1j * rng.standard_normal(d) for _ in range(2))
        h, p = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2))
        c = 0.3 * (h - space.sign * h.T) / np.linalg.norm(h - space.sign * h.T, 2)
        blocks = random_blocks(d, space.statistics, rng)
        built = [space.creation(1), space.annihilation(1), space.create(w), space.annihilate(w),
                 space.ladder(w, v), dgamma(space, h), gamma(space, p),
                 gamma(space, np.diag(np.diag(p))), multi_create(space, h - space.sign * h.T),
                 squeezer(space, c), shale_implementer(space, blocks),
                 *metaplectic_pair(space, blocks)]
        assert all(isinstance(op, scipy.sparse.csr_array) for op in built), space


def test_one_blas_runtime_census():
    # scipy ships a second OpenBLAS whose thread pool, once woken, slows numpy's kernels;
    # only the two checks whose point is an algorithm independent of eigh call expm,
    # and block_diag is pure numpy
    assert callers("expm") == ["acceptance.criterion_kms", "acceptance.criterion_modular"]
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.module != "scipy.linalg" and not (
                    node.module == "scipy" and "linalg" in [a.name for a in node.names]), path
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                    and ast.unparse(node.value) == "scipy.linalg":
                used.add(node.attr)
    assert used == {"block_diag", "expm"}


def test_production_exponentials_need_no_scipy_expm(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("production code must not call scipy.linalg.expm")

    monkeypatch.setattr(scipy.linalg, "expm", forbidden)
    c = np.array([[0.0, 0.3], [0.3, 0.0]], dtype=complex)
    assert squeezer(FockSpace("bose", 2, 6), c).shape == (28, 28)
    h = np.array([[1.0, 0.2], [0.2, 0.7]], dtype=complex)
    rep = DoubledRep(ThermalParams.gibbs("fermi", h, 1.0))
    e0 = np.eye(2)[0]
    assert kms_check(rep, h, 1.0, rep.annihilate_left(e0), rep.create_left(e0), t=0.3) <= 1e-12
    y = DoubledVector.real_point(np.array([0.2 + 0.1j]))
    w = weyl(FockSpace("bose", 1, 8), y)
    assert np.linalg.norm(w @ w.conj().T - np.eye(9), 2) <= 1e-12


def test_creation_rows_census():
    # a*_k's index arithmetic lives in FockSpace: every builder indexed by occupation
    # reads its row tables, and a*_k itself is a*(e_k), one more read through ladder
    assert callers("creation_rows") == ["fock._gamma_blocks", "fock.dgamma", "fock.ladder",
                                        "ops.multi_create"]


def test_coverage_map_names_what_exists():
    text = COVERAGE.read_text()
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    for dotted in re.findall(r"`(\w+(?:\.\w+)+)`", text):
        module, *attrs = dotted.split(".")
        assert module in modules, dotted
        obj = importlib.import_module(f"fockforge.{module}")
        for attr in attrs:
            assert hasattr(obj, attr), dotted
            obj = getattr(obj, attr)
    criteria = [name for name, _ in acceptance.FULL_BATTERY]
    for name in re.findall(r"criterion-[\w-]*\w", text):
        assert name in criteria, name
    for task, check in re.findall(r"task ([\w-]+): ([\w{}-]+)", text):
        assert task in cli.TASK_RUNNERS, task
        assert f'"{check}"' in inspect.getsource(cli.TASK_RUNNERS[task]), (task, check)
    # a tier-1-only row names the test files that pin it, and each of its names
    # appears in one of them
    for row in re.findall(r"^\|.*tier-1 only: .*$", text, flags=re.MULTILINE):
        _, code, gate = row.strip("|").rsplit("|", 2)
        test_files = re.findall(r"tests/\w+\.py", gate)
        assert test_files and all((ROOT / f).is_file() for f in test_files), row
        source = "".join((ROOT / f).read_text() for f in test_files)
        for dotted in re.findall(r"`(\w+(?:\.\w+)+)`", code):
            assert re.search(rf"\b{dotted.rsplit('.', 1)[-1]}\b", source), (dotted, test_files)
    # every criterion and every task has its row
    assert all(name in text for name in criteria)
    assert all(f"task {task}:" in text for task in cli.TASK_RUNNERS)
