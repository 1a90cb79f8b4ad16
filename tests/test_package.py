"""The package surface: what ``foscillator.__all__`` promises can be imported."""

import types

import foscillator


def test_exported_names_are_unique_and_star_importable():
    names = foscillator.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from foscillator import *", namespace)
    assert set(names) <= set(namespace)


def test_every_public_name_is_exported():
    # __all__ repeats the imports above it; a name imported but not listed
    # would be public yet missing from star imports
    public = {name for name, value in vars(foscillator).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(foscillator.__all__)
