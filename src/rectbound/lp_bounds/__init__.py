"""Rectangle-cover linear programs, their solvers, certificates, and scans."""

from __future__ import annotations

from .model import (
    CLASS_COVER,
    CLASS_ERROR,
    CLASS_PARTITION,
    FULL_FAMILY,
    LPInstance,
    PairConstraint,
    RectangleFamily,
    apply_ambiguity_variant,
    avoid_disjoint_family,
    build_lovasz_lp,
    build_search_lp,
    build_smooth_lp,
    witness_family,
)
from .solve import LPResult, solve_constraint_generation, solve_full_enumeration
from .certificates import (
    DualCertificate,
    FeasibilityReport,
    build_search_dual_certificate,
    build_smooth_dual_ndisj,
    certificate_from_json,
    certificate_to_json,
    verify_dual_certificate,
)
from .scan import ScanConfig, ScanReport, ScanRow, sampling_lemma_scan, scan_to_csv

__all__ = [
    "CLASS_COVER",
    "CLASS_ERROR",
    "CLASS_PARTITION",
    "FULL_FAMILY",
    "LPInstance",
    "PairConstraint",
    "RectangleFamily",
    "apply_ambiguity_variant",
    "avoid_disjoint_family",
    "build_lovasz_lp",
    "build_search_lp",
    "build_smooth_lp",
    "witness_family",
    "LPResult",
    "solve_constraint_generation",
    "solve_full_enumeration",
    "DualCertificate",
    "FeasibilityReport",
    "build_search_dual_certificate",
    "build_smooth_dual_ndisj",
    "certificate_from_json",
    "certificate_to_json",
    "verify_dual_certificate",
    "ScanConfig",
    "ScanReport",
    "ScanRow",
    "sampling_lemma_scan",
    "scan_to_csv",
]
