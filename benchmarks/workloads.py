"""The benchmark workloads.

Each workload makes its inputs from a seed in ``__init__`` (set-up),
runs one complete operation in ``op`` (timed) and verifies that
operation's outputs in ``check`` (not timed).  ``check`` returns a list of
problems; an empty list means the outputs are correct.  The checks are
computed apart from the program: closed forms, algebraic identities and
an independently built Hamiltonian, never stored copies of earlier output.

``small=True`` gives the smallest sizes at which every check still
applies; the self-test uses them, and so does the set-up warm-up except
where a smaller size exercises the same code.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.special

from fockforge import acceptance, cli, fock, ops, paulifierz, thermal

ROOT = Path(__file__).resolve().parent.parent
ALG_TOL = 1e-10  # relative tolerance of identities that hold algebraically


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _herm(rng, d):
    a = _cplx(rng, d, d)
    return (a + a.conj().T) / 2


def _rel(got, want) -> float:
    return float(np.max(np.abs(got - want)) / max(1.0, float(np.max(np.abs(want)))))


def _adj(a, x):
    """a* x without materialising the adjoint of a."""
    return (a.T @ x.conj()).conj()


def _expected_dim(statistics, d, n_max) -> int:
    return 2 ** d if statistics == "fermi" else math.comb(n_max + d, d)


class Workload:
    @classmethod
    def warm_up(cls, seed: int):
        """One untimed operation at small sizes: loads lazy libraries, starts BLAS threads."""
        cls(seed, small=True).op()

    def report_bytes(self, out) -> int:
        """Size of the command-line reports one operation wrote."""
        return 0


class ConfinedSpectra(Workload):
    """Criterion 10: confined Pauli-Fierz spectra on the acceptance model.

    The inputs are the fixed acceptance spin-boson model; the seed does not
    change them.
    """

    @classmethod
    def warm_up(cls, seed: int):
        # the checks need cutoffs of 8 and up; the warm-up only needs the code paths
        paulifierz.confined_pf_check(paulifierz.spin_boson(cutoff=3), cutoffs=(2, 3))

    def __init__(self, seed: int, small: bool = False):
        self.cutoffs = (8, 10) if small else (8, 10, 12, 14)
        self.gate = 1e-3 if small else 1e-5  # deviation allowed at the top cutoff
        self.coupling = 0.1
        self.model = paulifierz.spin_boson(coupling=self.coupling, gamma_value=0.25, cutoff=14)
        levels = self._levels(reference_cutoff=30)
        self.targets = [(f"E{i}-{j}", levels[i] - j) for i in range(3) for j in range(3)]

    def _levels(self, reference_cutoff):
        """Spin-boson spectrum from its own ladder matrices (splitting 1, omega 1)."""
        n = reference_cutoff + 1
        a = np.diag(np.sqrt(np.arange(1.0, n)), 1)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        ham = (np.kron(np.diag([0.5, -0.5]), np.eye(n)) + np.kron(np.eye(2), a.T @ a)
               + self.coupling * np.kron(sx, a + a.T))
        return np.linalg.eigvalsh(ham)

    def op(self):
        return paulifierz.confined_pf_check(self.model, cutoffs=self.cutoffs)

    def check(self, rep) -> list:
        problems = []
        got = paulifierz.difference_targets(self.model)
        if [n for n, _ in got] != [n for n, _ in self.targets]:
            problems.append(f"target names {[n for n, _ in got]}")
        elif max(abs(g - w) for (_, g), (_, w) in zip(got, self.targets)) > 1e-10:
            problems.append("difference targets disagree with the independent spectrum")
        for family in ("semi", "standard"):
            devs = rep[family]
            if devs[-1] > self.gate:
                problems.append(f"{family} deviation {devs[-1]:.3e} > {self.gate:.0e}")
            if not all(a > b for a, b in zip(devs, devs[1:])):
                problems.append(f"{family} deviation not falling over {self.cutoffs}: {devs}")
            for n, detail in zip(self.cutoffs, rep[f"{family}_detail"]):
                if detail["unmatched"]:
                    problems.append(f"{family} cutoff {n} unmatched {detail['unmatched']}")
        return problems


class OperatorBuild(Workload):
    """Operator construction on fresh Fock spaces plus thermal two-point values."""

    SPACES = (("bose", 1, 32), ("bose", 2, 28), ("bose", 4, 10), ("fermi", 8, None))
    SMALL_SPACES = (("bose", 1, 4), ("bose", 2, 3), ("fermi", 3, None))
    KERNEL_NORM = 0.35  # spectral norm of the pair kernel c

    def __init__(self, seed: int, small: bool = False):
        rng = np.random.default_rng(seed)
        self.cases = [self._inputs(rng, *spec)
                      for spec in (self.SMALL_SPACES if small else self.SPACES)]
        # criterion-06 thermal two-point evaluation; single cutoff 5 gives dim 1001
        self.single_cutoff = 1 if small else 5
        w, v = np.linalg.eigh(_herm(rng, 2))
        energies = 0.5 + (w - w.min()) / max(w.max() - w.min(), 1e-12)  # spectrum in [0.5, 1.5]
        self.h2 = (v * energies) @ v.conj().T
        self.beta = float(rng.uniform(0.5, 2.0))
        self.rho = (v / np.expm1(self.beta * energies)) @ v.conj().T
        self.pairs = [(_cplx(rng, 2), _cplx(rng, 2)) for _ in range(4)]

    def _inputs(self, rng, statistics, d, n_max):
        c = _cplx(rng, d, d)
        c = c + c.T if statistics == "bose" else c - c.T
        c_norm = np.linalg.norm(c, 2)
        c = self.KERNEL_NORM * c / c_norm if c_norm > 0 else c
        a = 1j * _herm(rng, d)
        a /= max(np.linalg.norm(a, 2), 1e-12)
        b = _herm(rng, d)
        a += 0.05 * b / max(np.linalg.norm(b, 2), 1e-12)
        dim = _expected_dim(statistics, d, n_max)
        return {"spec": (statistics, d, n_max), "w": _cplx(rng, d), "h": _herm(rng, d),
                "p": scipy.linalg.expm(a),  # invertible, non-diagonal for d > 1
                "q": np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, d)) * rng.uniform(0.9, 1.1, d)),
                "c": c, "x": _cplx(rng, dim, 2)}

    def op(self):
        built = []
        for case in self.cases:
            space = fock.FockSpace(*case["spec"])
            built.append({
                "space": space,
                "creation": [space.creation(k) for k in range(space.d)],
                "create": space.create(case["w"]),
                "dgamma": fock.dgamma(space, case["h"]),
                "gamma": fock.gamma(space, case["p"]),
                "multi": ops.multi_create(space, case["c"]),
                "squeezer": ops.squeezer(space, case["c"]),
            })
        rep = thermal.DoubledRep(thermal.ThermalParams.gibbs("bose", self.h2, self.beta),
                                 single_cutoff=self.single_cutoff)
        vac = rep.space.vacuum()
        values = [(np.vdot(vac, rep.annihilate_left(z1) @ (rep.create_left(z2) @ vac)),
                   np.vdot(vac, rep.create_left(z1) @ (rep.annihilate_left(z2) @ vac)))
                  for z1, z2 in self.pairs]
        return built, values

    def check(self, result) -> list:
        built, values = result
        problems = []
        # consume the outputs so that the checks never hold more than the operation did
        for case in self.cases:
            problems += [f"{case['spec']}: {p}" for p in self._check_space(case, built.pop(0))]
        for (z1, z2), (got1, got2) in zip(self.pairs, values):
            scale = (1.0 + np.linalg.norm(self.rho, 2)) * np.linalg.norm(z1) * np.linalg.norm(z2)
            want1 = np.vdot(z1, z2 + self.rho @ z2)
            want2 = np.vdot(z2, self.rho @ z1)
            if max(abs(got1 - want1), abs(got2 - want2)) > ALG_TOL * scale:
                problems.append(f"two-point ({got1}, {got2}) != closed form ({want1}, {want2})")
        return problems

    def _check_space(self, case, out) -> list:
        statistics, d, n_max = case["spec"]
        space, a = out["space"], out["creation"]
        problems = []
        if space.dim != _expected_dim(statistics, d, n_max):
            return [f"dimension {space.dim}"]
        numbers = np.array([sum(occ) for occ in space.basis])
        one = [space.index[tuple(int(j == k) for j in range(d))] for k in range(d)]
        x = case["x"]
        fermi = statistics == "fermi"
        if not fermi:
            x = x * (numbers < n_max)[:, None]  # CCR holds exactly below the top sector
        sign = 1.0 if fermi else -1.0
        worst = 0.0
        for j in range(d):
            for k in range(d):
                got = _adj(a[j], a[k] @ x) + sign * (a[k] @ _adj(a[j], x))
                worst = max(worst, _rel(got, (j == k) * x))
        if worst > ALG_TOL:
            problems.append(f"(anti)commutator defect {worst:.2e}")
        x = case["x"]
        ax = [ak @ x for ak in a]
        if _rel(out.pop("create") @ x, sum(wk * y for wk, y in zip(case["w"], ax))) > ALG_TOL:
            problems.append("create(w) != sum w_k a*_k")
        pair = sum(case["c"][j, k] * (a[j] @ ax[k]) for j in range(d) for k in range(d))
        multi = out.pop("multi")
        if _rel(multi @ x, pair) > ALG_TOL:
            problems.append("multi_create(c) != sum c_jk a*_j a*_k")
        problems += self._check_squeezer(space, case["c"], multi, out.pop("squeezer"), numbers)
        del multi, pair, ax
        dg = out.pop("dgamma")
        if _rel(dg[np.ix_(one, one)], case["h"]) > ALG_TOL:
            problems.append("one-particle block of dgamma(h) != h")
        lowered = [_adj(ak, x) for ak in a]
        want = sum(case["h"][j, k] * (a[j] @ lowered[k]) for j in range(d) for k in range(d))
        if _rel(dg @ x, want) > ALG_TOL:
            problems.append("dgamma(h) != sum h_jk a*_j a_k")
        del dg, lowered, want
        g = out.pop("gamma")
        if _rel(g[np.ix_(one, one)], case["p"]) > ALG_TOL:
            problems.append("one-particle block of gamma(p) != p")
        q = np.diag(case["q"])
        gamma_q = np.array([math.prod(complex(q[k]) ** n for k, n in enumerate(occ))
                            for occ in space.basis])
        lhs = g @ (gamma_q[:, None] * x)
        del g
        res = _rel(lhs, fock.gamma(space, case["p"] @ case["q"]) @ x)
        if res > ALG_TOL:
            problems.append(f"Gamma(p) Gamma(q) != Gamma(pq): {res:.2e}")
        return problems

    def _check_squeezer(self, space, c, multi, r, numbers) -> list:
        """R maps the Gaussian vector exp(a*(c)/2) Omega, normalised, to the vacuum.

        The truncated bosonic Gaussian vector misses the weight ``tail`` of the
        sectors above the cutoff, so R can miss the vacuum by about
        sqrt(tail); the check allows twice that.
        """
        cc = c @ c.conj().T
        eye = np.eye(space.d)
        if space.is_fermi:
            norm, tail = np.linalg.det(eye + cc).real ** -0.25, 0.0
        else:
            norm, tail = np.linalg.det(eye - cc).real ** 0.25, self._tail(c, space.n_max)
        omega = np.zeros(space.dim, dtype=complex)
        omega[numbers == 0] = norm
        term = omega.copy()
        for k in range(1, space.n_max // 2 + 1):
            term = multi @ term / (2 * k)
            omega += term
        problems = []
        if abs(np.vdot(omega, omega).real - (1.0 - tail)) > ALG_TOL:
            problems.append(f"Gaussian vector norm^2 {np.vdot(omega, omega).real} != 1 - {tail}")
        res = np.linalg.norm(r @ omega - (numbers == 0))
        if res > 2.0 * math.sqrt(tail) + ALG_TOL:
            problems.append(f"squeezer misses the vacuum by {res:.2e}, tail {tail:.2e}")
        return problems

    @staticmethod
    def _tail(c, n_max) -> float:
        """Weight of the bosonic Gaussian vector above total number n_max.

        In the Takagi basis of c the vector is a product of one-mode squeezed
        vacua; mode i holds 2n quanta with weight sqrt(1-s_i^2) C(2n,n) (s_i/2)^(2n).
        The weights above the cutoff are summed directly, since 1 - (weight
        below) loses tails under 1e-16.  The distribution is carried 400 quanta
        past the cutoff; with |c| = 0.35 each further pair weighs less than
        0.13 times the one before, so the rest is negligible.
        """
        top = n_max + 400
        dist = np.zeros(top + 1)
        dist[0] = 1.0
        for s in np.linalg.svd(c, compute_uv=False):
            n = np.arange(top // 2 + 1)
            single = np.zeros(top + 1)
            log_w = (0.5 * math.log1p(-s ** 2) + scipy.special.gammaln(2 * n + 1)
                     - 2 * scipy.special.gammaln(n + 1) + 2 * n * math.log(max(s, 1e-300) / 2))
            single[::2] = np.exp(log_w)
            dist = np.convolve(dist, single)[: top + 1]
        return float(dist[n_max + 1:].sum())


class SmallChecks(Workload):
    """The small acceptance criteria plus in-process ``fockforge run`` of the
    small sample models."""

    SKIP = ("criterion-06", "criterion-10")
    MODELS = ("bose_squeeze", "fermi_gaussian", "fermi_rotation", "kms_gibbs", "kms_mismatch")
    SMALL_CRITERIA = ("criterion-02", "criterion-05", "criterion-08")
    REJECTED = {"kms_mismatch": 1}  # the mismatch witness must fail with exit 1
    # spaces whose dimension and (for fermions) CAR are checked
    SPACES = tuple(("fermi", d, None) for d in range(1, 7)) + (
        ("bose", 1, 20), ("bose", 2, 8), ("bose", 3, 6))

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.criteria = [n for n, _ in acceptance.FULL_BATTERY if n not in self.SKIP
                         and (not small or n in self.SMALL_CRITERIA)]
        self.models = [(m, ROOT / "docs" / "models" / f"{m}.json")
                       for m in (self.MODELS[-2:] if small else self.MODELS)]
        self.reference = None  # the first operation's report bytes

    def op(self):
        reports = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # as `fockforge suite` does
            battery = dict(acceptance.FULL_BATTERY)  # looked up per call, as the tracer wraps it
            for name in self.criteria:
                reports[name] = battery[name](self.seed)
            for name, path in self.models:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["run", str(path), "--seed", str(self.seed)])
                reports[name] = (code, out.getvalue())
        return reports

    def report_bytes(self, reports) -> int:
        return sum(len(reports[name][1].encode()) for name, _ in self.models)

    def check(self, reports) -> list:
        problems = []
        texts = {}
        for name in self.criteria:
            if not reports[name]["pass"]:
                problems.append(f"{name} failed: residual {reports[name]['residual']}")
            texts[name] = json.dumps(reports[name], indent=2, sort_keys=True, default=float)
        for name, _ in self.models:
            code, text = reports[name]
            want = self.REJECTED.get(name, 0)
            if code != want or json.loads(text)["pass"] != (want == 0):
                problems.append(f"fockforge run {name}: exit {code}, expected {want}")
            texts[name] = text
        if self.reference is None:
            self.reference = texts
        elif texts != self.reference:
            changed = sorted(k for k in texts if texts[k] != self.reference[k])
            problems.append(f"reports differ from the first repetition: {changed}")
        for statistics, d, n_max in self.SPACES:
            space = fock.FockSpace(statistics, d, n_max)
            if space.dim != _expected_dim(statistics, d, n_max):
                problems.append(f"dim of {space} != {_expected_dim(statistics, d, n_max)}")
            elif statistics == "fermi":
                eye = np.eye(space.dim)
                worst = max(np.max(np.abs(space.annihilation(j) @ space.creation(k)
                                          + space.creation(k) @ space.annihilation(j)
                                          - (j == k) * eye))
                            for j in range(d) for k in range(d))
                if worst != 0.0:
                    problems.append(f"CAR defect {worst} on {space}")
        return problems


WORKLOADS = {
    "confined-spectra": ConfinedSpectra,
    "operator-build": OperatorBuild,
    "small-checks": SmallChecks,
}
