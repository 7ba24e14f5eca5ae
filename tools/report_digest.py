"""Digest every byte-stable report of fockforge at seed 42 with 2 BLAS threads.

Runs, through ``cli.main`` into a temporary directory, ``suite full``,
``suite smoke`` and ``run`` on each ``docs/models/*.json`` in JSON and in
CSV, and prints one ``sha256  report  exit-code`` line per report.  Two
checkouts produce the same reports when their outputs are identical:

    PYTHONPATH=src python tools/report_digest.py > before.txt
    PYTHONPATH=src python tools/report_digest.py --against before.txt

With ``--against FILE`` it prints only the reports whose line differs from
the saved digest FILE, or that only one side has, and exits 1 if any does.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

# must be set before fockforge, and with it numpy, is imported
os.environ["FOCKFORGE_THREADS"] = "2"

from fockforge import cli  # noqa: E402

MODELS = Path(__file__).resolve().parents[1] / "docs" / "models"
SEED = "42"


def _quiet_main(argv) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def digests(out: Path):
    """(sha256, report name, exit code) for every report, in a fixed order."""
    for name in ("full", "smoke"):
        code = _quiet_main(["suite", name, "--out-dir", str(out / name), "--seed", SEED])
        for path in sorted((out / name).iterdir()):
            yield hashlib.sha256(path.read_bytes()).hexdigest(), f"{name}/{path.name}", code
    for model in sorted(MODELS.glob("*.json")):
        for fmt in ("json", "csv"):
            path = out / f"{model.stem}.{fmt}"
            code = _quiet_main(["run", str(model), "--out", str(path), "--format", fmt,
                                "--seed", SEED])
            yield hashlib.sha256(path.read_bytes()).hexdigest(), f"run/{path.name}", code


def differences(lines, saved) -> list:
    """For each report whose digest line in lines differs from its line in
    saved, or that only one of them has, its line now and its saved line;
    in the order of lines, then of saved."""
    ours, theirs = ({line.split()[1]: line for line in text if line.strip()}
                    for text in (lines, saved))
    return ([f"now   {line}\nsaved {theirs.get(name, '(none)')}"
             for name, line in ours.items() if theirs.get(name) != line]
            + [f"now   (none)\nsaved {line}" for name, line in theirs.items() if name not in ours])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="compare with a saved digest and print only the differences")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"{digest}  {name}  {code}" for digest, name, code in digests(Path(tmp))]
    if args.against is None:
        print("\n".join(lines))
        return 0
    diff = differences(lines, args.against.read_text().splitlines())
    print("\n".join(diff) if diff else f"all {len(lines)} reports match {args.against}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
