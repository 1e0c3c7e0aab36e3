"""Exact combinatorics of zip-datum stratifications: root data, Weyl groups,
strata posets, section multiplicities and rational purity cones."""

from .rootsystem import RootDatum, RootDatumError, build_root_datum, reflect
from .weyl import WeylError, WeylGroup
from .zipdatum import (DimReport, ZipDatum, ZipDatumError, dims, flag_datum,
                       validate_frame, zip_from_cochar)
from .strata import (CoarseStratum, ProjectionError, StrataPoset, Stratum,
                     classify_stratum, closure_leq, coarse_poset, coarse_strata,
                     cross_label, hasse_diagram, project_stratum, zip_strata)
from .sections import (CONVENTION, CharacterVerdict, GlnCertificate, PurityReport,
                       PurityVerdict, SectionCone, SectionVerdict, ampleness,
                       char_section_verdict, character_tests, flag_ampleness,
                       gln_certificate, n_alpha, purity_report, purity_verdict, r_w,
                       section_cone, twist_power)

__version__ = "0.1.0"

__all__ = [
    "RootDatum", "RootDatumError", "build_root_datum", "reflect",
    "WeylError", "WeylGroup",
    "DimReport", "ZipDatum", "ZipDatumError", "dims", "flag_datum",
    "validate_frame", "zip_from_cochar",
    "CoarseStratum", "ProjectionError", "StrataPoset", "Stratum",
    "classify_stratum", "closure_leq", "coarse_poset", "coarse_strata",
    "cross_label", "hasse_diagram", "project_stratum", "zip_strata",
    "CONVENTION", "CharacterVerdict", "GlnCertificate", "PurityReport",
    "PurityVerdict", "SectionCone", "SectionVerdict", "ampleness",
    "char_section_verdict", "character_tests", "flag_ampleness", "gln_certificate",
    "n_alpha", "purity_report", "purity_verdict", "r_w", "section_cone", "twist_power",
]
