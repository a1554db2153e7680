"""Exact certification of slope/weight combinatorics on eigenvariety data.

The package certifies, in exact rational arithmetic, the combinatorial
skeleton of a p-adic deformation argument: weak admissibility inequalities
for filtered Frobenius modules, the slope/weight alignment lemma, signed
Weyl-group moves on refinements, a three-step deformation replay forcing
(quasi-)irreducible slope configurations, unramified principal-series
irreducibility predicates, and Hilbert-symbol / transfer-factor sign
computations over Q_p.

Only ``kernels`` and ``scan`` import numpy, and each is imported where it
is first used, so a job that never runs the kernel never loads numpy.
``slopecert.kernels`` and ``slopecert.scan`` import their module on first
access; every other submodule is imported by name.
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name):
    if name in ("kernels", "scan"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
