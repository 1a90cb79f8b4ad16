"""The package surface: what ``foscillator.__all__`` promises can be imported."""

import foscillator


def test_exported_names_are_unique_and_star_importable():
    names = foscillator.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from foscillator import *", namespace)
    assert set(names) <= set(namespace)
