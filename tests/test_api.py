import types

import zipstrata


def test_public_names_are_exactly_all():
    # every public name the package binds is listed, and every listed name is bound
    public = {name for name, obj in vars(zipstrata).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == set(zipstrata.__all__)
    assert len(zipstrata.__all__) == len(set(zipstrata.__all__))


def test_all_is_the_pinned_export_list():
    # adding or removing an export is a deliberate edit of this list
    assert zipstrata.__all__ == [
        "RootDatum", "RootDatumError", "build_root_datum", "reflect",
        "WeylError", "WeylGroup",
        "DimReport", "ZipDatum", "ZipDatumError", "dims", "flag_datum",
        "validate_frame", "zip_from_cochar",
        "CoarseStratum", "ProjectionError", "StrataPoset", "Stratum",
        "classify_stratum", "coarse_strata", "hasse_diagram", "project_stratum",
        "zip_strata",
        "CONVENTION", "CharacterVerdict", "GlnCertificate", "PurityReport",
        "PurityVerdict", "SectionCone", "SectionVerdict", "ampleness",
        "char_section_verdict", "character_tests", "flag_ampleness", "gln_certificate",
        "n_alpha", "purity_report", "purity_verdict", "r_w", "section_cone",
    ]
