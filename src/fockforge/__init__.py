"""Numerical toolkit for canonical (anti)commutation relations on
truncated Fock spaces: Bogolubov implementers, Gaussian vectors,
thermal doubled representations with their modular data, real-subspace
lattices with fermionic duality, and coupled system-boson Liouvilleans.
"""

import os as _os

# must run before numpy is first imported anywhere in this process
_threads = _os.environ.get("FOCKFORGE_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from . import bogolubov, fock, lattice, linalg, ops, paulifierz, quasifree, thermal  # noqa: E402
from .fock import BOSE, FERMI, FockSpace, dgamma, exp_law, gamma  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "BOSE",
    "FERMI",
    "FockSpace",
    "bogolubov",
    "dgamma",
    "exp_law",
    "fock",
    "gamma",
    "lattice",
    "linalg",
    "ops",
    "paulifierz",
    "quasifree",
    "thermal",
    "__version__",
]
