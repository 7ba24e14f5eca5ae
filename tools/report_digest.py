"""Digest every byte-stable report of fockforge at seed 42 with 2 BLAS threads.

Runs, through ``cli.main`` into a temporary directory, ``suite full``,
``suite smoke`` and ``run`` on each ``docs/models/*.json`` in JSON and in
CSV, and prints one ``sha256  report  exit-code`` line per report.  Two
checkouts produce the same reports when their outputs are identical:

    PYTHONPATH=src python tools/report_digest.py
"""

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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for digest, name, code in digests(Path(tmp)):
            print(f"{digest}  {name}  {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
