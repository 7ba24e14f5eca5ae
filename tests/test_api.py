"""The public surface stays small: every defaulted parameter in the package
is a knob that some caller must need, so a new one shows up here."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fockforge"
MAX_DEFAULTED = 19


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


def test_defaulted_parameter_census():
    names = defaulted_parameters()
    assert len(names) <= MAX_DEFAULTED, "\n".join(names)
