"""Rectangle-based lower bounds for two-party communication problems.

The package has four layers.  `combinatorics` owns the hypergeometric input
distributions over equal-size set pairs and the exact identities relating
them across meet sizes.  `rectangles` supplies weight matrices over input
pairs and exact maximum-weight rectangle search.  `lp_bounds` builds the
rectangle-cover linear programs whose optima lower-bound communication,
solves them two independent ways, and constructs and verifies dual
feasibility certificates.  `protocols` simulates explicit two-party
protocols, composes them through cost-accounted reductions, and bridges
their accepting-leaf rectangles back into the LP world.

Everything numeric is exact rational unless a name says otherwise; floats
appear only in the float-tolerance LP path and the scan heuristics.
"""

from __future__ import annotations

from . import caps
from .combinatorics import (
    InputPair,
    MuParams,
    binom,
    bits,
    check_lemma4,
    enumerate_support,
    identity_sides,
    intersection_ratio,
    mu_prob,
    parse_bits,
    remove_coords,
    sample_mu,
    valid_mu_params,
)
from .errors import (
    CapExceededError,
    ConvergenceError,
    DimensionMismatchError,
    KindMismatchError,
    ParameterRangeError,
    ProtocolContractError,
    RectboundError,
    SupportEmptyError,
)
from .rectangles import (
    DecompositionReport,
    Rectangle,
    WeightMatrix,
    WitnessSet,
    decompose_by_witness,
    enumerate_rectangles,
    max_weight_rectangle,
    max_weight_rectangle_avoiding_disjoint,
    max_weight_rectangle_in_rv,
    mu_mass_of_rectangle,
    rect_weight,
    witness_set,
)
from .truth_tables import FAMILIES, TruthTable, family

__all__ = [
    "caps",
    "InputPair",
    "MuParams",
    "binom",
    "bits",
    "check_lemma4",
    "enumerate_support",
    "identity_sides",
    "intersection_ratio",
    "mu_prob",
    "parse_bits",
    "remove_coords",
    "sample_mu",
    "valid_mu_params",
    "CapExceededError",
    "ConvergenceError",
    "DimensionMismatchError",
    "KindMismatchError",
    "ParameterRangeError",
    "ProtocolContractError",
    "RectboundError",
    "SupportEmptyError",
    "DecompositionReport",
    "Rectangle",
    "WeightMatrix",
    "WitnessSet",
    "decompose_by_witness",
    "enumerate_rectangles",
    "max_weight_rectangle",
    "max_weight_rectangle_avoiding_disjoint",
    "max_weight_rectangle_in_rv",
    "mu_mass_of_rectangle",
    "rect_weight",
    "witness_set",
    "FAMILIES",
    "TruthTable",
    "family",
]
