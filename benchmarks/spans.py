"""Span tracer for the benchmark's traced runs (``--trace 1``).

It wraps, from outside the package, the public functions of the
``fockforge`` modules and the ``numpy.linalg`` / ``scipy.linalg`` kernels
that ``fockforge`` calls by attribute.  A span records its layer, the
function, start, end, parent span, the largest matrix dimension among
the call's arguments and result, and the bytes of any new dense array the
call returned.  Spans stay in memory; the runner writes the spans of one
operation out when the run ends.

Self time is a span's duration minus the time its child spans cover, so
the self times of one operation plus ``other.self_s`` (time outside every
span) add up to that operation's wall time.
"""

from __future__ import annotations

import inspect
import sys
import time
import weakref

import numpy as np
import scipy.linalg

import fockforge
from fockforge import (acceptance, bogolubov, cli, fock, lattice, ops, paulifierz,
                       quasifree, thermal)

# (layer, module or class, attribute names).  Public module functions not
# named here fall into the module's default layer below.
EXPLICIT = (
    ("fock.FockSpace", fock.FockSpace, ("__init__", "vacuum", "identity", "number_op", "parity",
                                        "lambda_op", "sector_mask", "sector_projector")),
    ("fock.creation", fock.FockSpace, ("creation", "annihilation")),
    ("fock.create", fock.FockSpace, ("create", "annihilate")),
    ("fock.dgamma", fock, ("dgamma",)),
    ("fock.gamma", fock, ("gamma", "gamma_by_columns")),
    ("ops.multi_create", ops, ("multi_create", "multi_annihilate", "pair_exponential_vacuum")),
    ("ops.squeezer", ops, ("squeezer", "gaussian_vector", "gaussian_normalization")),
    ("thermal.fields", thermal.ThermalParams, ("gibbs",)),
    ("thermal.fields", thermal.DoubledRep, (
        "__init__", "create_left", "annihilate_left", "field_left", "field_right",
        "create_right", "annihilate_right", "weyl_left", "weyl_right", "theta_left",
        "theta_right", "theta_left_field", "theta_right_field", "iota", "pair_embedding",
        "gibbs_expectation")),
    ("thermal.modular", thermal.DoubledRep, (
        "modular_conjugation", "modular_operator", "modular_data", "modular_oracle",
        "left_monomials", "standard_liouvillean", "pair_kernel", "omega_vector", "r_gamma",
        "confined_equivalence_report")),
    ("thermal.modular", thermal, ("tracial_conjugation",)),
    ("thermal.kms", thermal, ("kms_check", "kms_check_density")),
    ("paulifierz.comparison", paulifierz, (
        "semi_comparison_operator", "standard_comparison_operator", "difference_targets")),
    ("paulifierz.dressing", paulifierz, ("pair_squeezer",)),
    ("paulifierz.match", paulifierz, ("matched_spectral_deviation", "confined_pf_check")),
    ("cli.report", cli, ("main", "run", "suite", "load_model", "build_report",
                         "serialize_report", "decode_matrix", "encode_matrix")),
)

DEFAULT_LAYER = (
    ("fock.FockSpace", fock),
    ("ops.field", ops),
    ("thermal.fields", thermal),
    ("bogolubov.implementer", bogolubov),
    ("lattice.duality", lattice),
    ("quasifree.reduce", quasifree),
    ("paulifierz.liouvillean", paulifierz),
    ("criteria", acceptance),
    ("criteria", cli),
)

# kernel name -> (namespace, attribute); eigvalsh counts as eigh
KERNELS = (
    ("eigh", np.linalg, "eigh"),
    ("eigh", np.linalg, "eigvalsh"),
    ("expm", scipy.linalg, "expm"),
    ("logm", scipy.linalg, "logm"),
    ("svd", np.linalg, "svd"),
    ("lstsq", np.linalg, "lstsq"),
    ("norm2", np.linalg, "norm"),
)
KERNEL_NAMES = ("eigh", "expm", "logm", "svd", "lstsq", "norm2")

LAYERS = (
    "fock.FockSpace", "fock.creation", "fock.create", "fock.dgamma", "fock.gamma",
    "ops.multi_create", "ops.squeezer", "ops.field",
    "thermal.fields", "thermal.modular", "thermal.kms",
    "bogolubov.implementer", "lattice.duality", "quasifree.reduce",
    "paulifierz.liouvillean", "paulifierz.comparison", "paulifierz.dressing", "paulifierz.match",
    "criteria", "cli.report",
)

# span record fields; N3 is set on kernel spans only
LAYER, FUNC, START, END, PARENT, DIM, NBYTES, N3 = range(8)


def _dim(obj) -> int:
    if isinstance(obj, np.ndarray):
        return max(obj.shape[-2:]) if obj.ndim >= 2 else 0
    dim = getattr(obj, "dim", None)
    if isinstance(dim, int):
        return dim
    space = getattr(obj, "space", None)
    return space.dim if isinstance(getattr(space, "dim", None), int) else 0


def _kernel_work(a) -> int:
    """n^3 for an n x n argument, m n min(m, n) for m x n, times any batch."""
    a = np.asarray(a)
    if a.ndim < 2:
        return 0
    m, n = a.shape[-2:]
    return int(np.prod(a.shape[:-2], dtype=np.int64)) * m * n * min(m, n)


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []
        self._stack = []
        self._seen = {}  # id -> weakref of dense outputs already counted

    # -- recording ---------------------------------------------------------

    def begin(self):
        self.spans = []
        self._stack = []
        self.active = True

    def end(self):
        self.active = False
        return self.spans

    def _open(self, layer, func, dim=0, n3=0):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([layer, func, time.perf_counter(), 0.0, parent, dim, 0, n3])

    def _close(self):
        span = self.spans[self._stack.pop()]
        span[END] = time.perf_counter()
        return span

    def _new_bytes(self, out) -> int:
        if isinstance(out, tuple):
            return sum(self._new_bytes(x) for x in out)
        if not isinstance(out, np.ndarray) or out.ndim < 2:
            return 0
        key = id(out)
        ref = self._seen.get(key)
        if ref is not None and ref() is out:
            return 0
        self._seen[key] = weakref.ref(out, lambda _, k=key: self._seen.pop(k, None))
        return out.nbytes

    # -- wrapping ----------------------------------------------------------

    def _layer_wrapper(self, layer, fn):
        func = fn.__qualname__

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._open(layer, func)
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                span = self._close()
                span[NBYTES] = self._new_bytes(out)
                span[DIM] = max([_dim(out)] + [_dim(a) for a in args])

        traced.__wrapped__ = fn
        return traced

    def _kernel_wrapper(self, kernel, fn):
        layer = f"kernel.{kernel}"

        def traced(*args, **kwargs):
            if not self.active or not args or not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith("fockforge"):
                return fn(*args, **kwargs)
            if kernel == "norm2":
                ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
                if ord_ != 2 or np.ndim(args[0]) != 2:
                    return fn(*args, **kwargs)
            a = np.asarray(args[0])
            self._open(layer, fn.__name__, _dim(a), _kernel_work(a))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Replace every traced callable in place, including names other
        fockforge modules imported with ``from .x import y``."""
        originals = {}
        for layer, owner, names in EXPLICIT:
            for name in names:
                if name in vars(owner):
                    originals[(owner, name)] = layer
        for layer, module in DEFAULT_LAYER:
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and (module, name) not in originals):
                    originals[(module, name)] = layer
        wrappers = {}  # id of an original function -> its wrapper, which keeps it alive
        for (owner, name), layer in originals.items():
            raw = vars(owner)[name]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self._layer_wrapper(layer, fn)
            setattr(owner, name, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
            wrappers[id(fn)] = wrapper
        for kernel, namespace, name in KERNELS:
            setattr(namespace, name, self._kernel_wrapper(kernel, getattr(namespace, name)))

        def swap(obj):
            return wrappers.get(id(obj), obj)

        # rebind `from .fock import gamma`-style aliases and the dispatch tables
        # (cli.TASK_RUNNERS, acceptance.FULL_BATTERY) in every module
        for module in (fockforge, acceptance, bogolubov, cli, fock, lattice, ops, paulifierz,
                       quasifree, thermal):
            for name, obj in list(vars(module).items()):
                if name.startswith("__"):
                    continue
                if isinstance(obj, dict):
                    obj.update({k: swap(v) for k, v in obj.items()})
                elif isinstance(obj, list):
                    obj[:] = [tuple(map(swap, x)) if isinstance(x, tuple) else x for x in obj]
                elif swap(obj) is not obj:
                    setattr(module, name, swap(obj))


def summarize(spans, wall_s: float) -> dict:
    """Per-layer metrics of one operation from its spans."""
    self_s = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            self_s[s[PARENT]] -= s[END] - s[START]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for k in KERNEL_NAMES:
        out.update({f"kernel.{k}.calls": 0, f"kernel.{k}.self_s": 0.0, f"kernel.{k}.n3": 0})
    fock_dim = 0
    fock_bytes = 0
    for s, own in zip(spans, self_s):
        layer = s[LAYER]
        if layer.startswith("kernel."):
            out[f"{layer}.calls"] += 1
            out[f"{layer}.n3"] += s[N3]
        elif layer.startswith("fock."):
            fock_dim = max(fock_dim, s[DIM])
            fock_bytes += s[NBYTES]
        out[f"{layer}.self_s"] += own
    out["fock.max_dim"] = fock_dim
    out["fock.dense_out_mb"] = fock_bytes / 1e6
    out["other.self_s"] = wall_s - sum(self_s)
    return out


def span_records(spans):
    """Spans as JSON-ready dicts, times relative to the first span."""
    t0 = spans[0][START] if spans else 0.0
    return [{"layer": s[LAYER], "func": s[FUNC], "start": s[START] - t0, "end": s[END] - t0,
             "parent": s[PARENT], "dim": s[DIM], "new_bytes": s[NBYTES], "n3": s[N3]}
            for s in spans]
