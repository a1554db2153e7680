"""Exact certification of slope/weight combinatorics on eigenvariety data.

The package certifies, in exact rational arithmetic, the combinatorial
skeleton of a p-adic deformation argument: weak admissibility inequalities
for filtered Frobenius modules, the slope/weight alignment lemma, signed
Weyl-group moves on refinements, a three-step deformation replay forcing
(quasi-)irreducible slope configurations, unramified principal-series
irreducibility predicates, complex-conjugation trace bookkeeping, and
Hilbert-symbol / transfer-factor sign computations over Q_p.
"""

from .lattice import LocalDatum, Rat, WeightTable, very_regular
from .weyl import SignedPerm, group_order, minus_identity, shift_cycle, weyl_elements
from .cone import cone_find
from .satake import (
    RefinedSlopes,
    change_refinement,
    classicality_general,
    classicality_sp,
    frobenius_slopes,
    hodge_tate_weights,
)
from .admissibility import (
    AlignmentResult,
    PhiModuleDatum,
    SubmoduleCandidate,
    admissible_candidates,
    alignment_check,
    hodge_number,
    newton_above_hodge,
    newton_number,
)
from .principal import (
    UnramChar,
    completely_refinable,
    orbit_size,
    so_irreducible_sufficient,
    sp_irreducible,
)
from .replay import (
    Certificate,
    certify_splittings,
    replay_orthogonal,
    replay_symplectic,
    verify_certificate,
)
from .conj import (
    ArchParam,
    congruence_pin,
    conj_trace_det,
    in_A_Sp,
    nonregular_orthogonal_ok,
    normalization_shift,
    resolve_component_traces,
    so2k_highest_weight,
)
from .symbols import (
    INFINITE_PLACE,
    Place,
    QuadExtElem,
    WaldInstance,
    hilbert,
    hilbert_solvable,
    product_formula,
    sign_char,
    waldspurger_sign_product,
)
from .scan import run_scan

__version__ = "0.1.0"

__all__ = [
    "LocalDatum",
    "Rat",
    "WeightTable",
    "very_regular",
    "SignedPerm",
    "group_order",
    "minus_identity",
    "shift_cycle",
    "weyl_elements",
    "cone_find",
    "RefinedSlopes",
    "change_refinement",
    "classicality_general",
    "classicality_sp",
    "frobenius_slopes",
    "hodge_tate_weights",
    "AlignmentResult",
    "PhiModuleDatum",
    "SubmoduleCandidate",
    "admissible_candidates",
    "alignment_check",
    "hodge_number",
    "newton_above_hodge",
    "newton_number",
    "UnramChar",
    "completely_refinable",
    "orbit_size",
    "so_irreducible_sufficient",
    "sp_irreducible",
    "Certificate",
    "certify_splittings",
    "replay_orthogonal",
    "replay_symplectic",
    "verify_certificate",
    "ArchParam",
    "congruence_pin",
    "conj_trace_det",
    "in_A_Sp",
    "nonregular_orthogonal_ok",
    "normalization_shift",
    "resolve_component_traces",
    "so2k_highest_weight",
    "INFINITE_PLACE",
    "Place",
    "QuadExtElem",
    "WaldInstance",
    "hilbert",
    "hilbert_solvable",
    "product_formula",
    "sign_char",
    "waldspurger_sign_product",
    "run_scan",
    "__version__",
]
