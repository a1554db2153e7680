"""Exact certification of slope/weight combinatorics on eigenvariety data.

The package certifies, in exact rational arithmetic, the combinatorial
skeleton of a p-adic deformation argument: weak admissibility inequalities
for filtered Frobenius modules, the slope/weight alignment lemma, signed
Weyl-group moves on refinements, a three-step deformation replay forcing
(quasi-)irreducible slope configurations, unramified principal-series
irreducibility predicates, and Hilbert-symbol / transfer-factor sign
computations over Q_p.  Callers import the submodules.
"""

__version__ = "0.1.0"
