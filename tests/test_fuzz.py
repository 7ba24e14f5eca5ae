"""Fuzzed model files: every input to ``fockforge run`` either runs or fails
with a documented exit code (0, 1, 2 or 3), never with a traceback.

A drawn model is well typed for its task, and then up to two of its fields
are dropped or replaced by a value of the wrong JSON type or shape.  Sizes
stay at desk scale: d <= 3, cutoffs <= 8 and matrices <= 3 x 3, with the
doubled and Pauli-Fierz spaces smaller still, since their dimension grows
with the square of the single-sided one.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fockforge import cli  # noqa: E402
from test_cli import encode_matrix  # noqa: E402

PAIR = st.lists(st.floats(-1.5, 1.5), min_size=2, max_size=2)
# values of the wrong JSON type or shape for any field
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 3), st.floats(-2.0, 2.0),
    st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2),
    st.lists(st.lists(PAIR, min_size=1, max_size=3), max_size=3),  # ragged or empty rows
    st.lists(st.lists(st.lists(st.floats(-1.0, 1.0), max_size=3), max_size=2), max_size=2))

SHAPES = {
    "dense": lambda m: m,
    "hermitian": lambda m: (m + m.conj().T) / 2,
    "symmetric": lambda m: (m + m.T) / 2,
    "antisymmetric": lambda m: (m - m.T) / 2,
    "diagonal": lambda m: np.diag(np.diag(m).real),
}


@st.composite
def matrix(draw, n, shapes=tuple(SHAPES), scale=1.0, shift=0.0):
    """An encoded n x n matrix scale * S(m) + shift, m with entries in [-1.5, 1.5]."""
    m = np.array(draw(st.lists(PAIR, min_size=n * n, max_size=n * n)))
    m = (m[:, 0] + 1j * m[:, 1]).reshape(n, n)
    return encode_matrix(scale * SHAPES[draw(st.sampled_from(shapes))](m)
                         + shift * np.eye(n))


def occupation(high):
    """A diagonal 1 x 1 .. 2 x 2 density-like matrix with entries in [0, high]."""
    return st.lists(st.floats(0.0, high), min_size=1, max_size=2).map(
        lambda xs: encode_matrix(np.diag(xs)))


STATISTICS = st.sampled_from(["bose", "fermi"])
SIZE = st.integers(1, 3)


@st.composite
def bogolubov(draw):
    n = draw(SIZE)
    return {"statistics": draw(STATISTICS), "cutoff": draw(st.integers(0, 8)),
            "p": draw(st.one_of(matrix(n), matrix(n, scale=0.2, shift=1.0))),
            "q": draw(matrix(n, scale=0.3))}


@st.composite
def gaussian(draw):
    n = draw(SIZE)
    return {"statistics": draw(STATISTICS), "cutoff": draw(st.integers(0, 8)),
            "c": draw(matrix(n, ("symmetric", "antisymmetric", "dense"), scale=0.4))}


@st.composite
def thermal(draw, kms=False):
    gamma = draw(st.one_of(occupation(0.95), matrix(draw(st.integers(1, 2)), scale=0.5)))
    n = len(gamma)
    model = {"statistics": draw(STATISTICS), "single_cutoff": draw(st.integers(1, 2)),
             "gamma": gamma, "h": draw(matrix(n, ("diagonal", "hermitian"), shift=1.0))}
    if kms:
        model["beta"] = draw(st.floats(-1.0, 3.0))
        model["t"] = draw(st.floats(-1.0, 1.0))
    return model


@st.composite
def pauli_fierz(draw):
    n = draw(st.integers(1, 2))
    model = {"K": draw(matrix(n, ("hermitian", "dense"))),
             "h": [[[draw(st.floats(-0.5, 2.0)), 0.0]]],
             "v": draw(matrix(n, ("hermitian",), scale=0.2)),
             "cutoff": draw(st.integers(0, 6))}
    if draw(st.booleans()):
        model["gamma"] = [[[draw(st.floats(0.0, 0.95)), 0.0]]]
    if draw(st.booleans()):
        model["cutoff_grid"] = draw(st.lists(st.integers(0, 6), min_size=1, max_size=2))
    return model


MODELS = {
    "verify-ccr": st.fixed_dictionaries({"d": SIZE, "cutoff": st.integers(0, 8),
                                         "amplitude": st.floats(-1.0, 1.0)}),
    "verify-car": st.fixed_dictionaries({"d": SIZE, "trials": st.integers(1, 3)}),
    "bogolubov": bogolubov(),
    "gaussian": gaussian(),
    "thermal": thermal(),
    "kms": thermal(kms=True),
    "lattice": st.fixed_dictionaries({"d": SIZE, "subspaces": st.integers(1, 3)}),
    "pauli-fierz": pauli_fierz(),
}
TOLERANCES = st.dictionaries(
    st.sampled_from(["blocks", "intertwining", "kernel", "two_point", "kms", "weyl", "car",
                     "duality", "spectra"]), st.floats(0.0, 1.0), max_size=2)


@st.composite
def models(draw):
    task = draw(st.sampled_from(sorted(MODELS)))
    model = {"schema_version": 1, "task": task, **draw(MODELS[task]),
             "tolerances": draw(TOLERANCES)}
    for key in draw(st.lists(st.sampled_from(sorted(model)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del model[key]
        else:
            model[key] = draw(JUNK)
    return model


@settings(derandomize=True, max_examples=100, deadline=None)
@given(models(), st.integers(0, 3))
def test_fuzzed_models_exit_with_a_documented_code(model, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(model))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(str(path), None, "json", seed)
    assert code in (0, 1, 2, 3), model
    assert "Traceback" not in err.getvalue(), model
    if code in (0, 1):
        assert json.loads(out.getvalue())["pass"] is (code == 0)
