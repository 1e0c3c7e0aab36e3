import types

import zipstrata


def test_public_names_are_exactly_all():
    # every public name the package binds is listed, and every listed name is bound
    public = {name for name, obj in vars(zipstrata).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert public == set(zipstrata.__all__)
    assert len(zipstrata.__all__) == len(set(zipstrata.__all__))
