"""The package surface: each layer's __all__ and the top-level exports agree."""

import importlib
import inspect

import bergman
from bergman import errors

LAYERS = ("weights", "geometry", "measures", "spaces", "criteria")


def layer_all(layer):
    return importlib.import_module(f"bergman.{layer}").__all__


def test_every_layer_name_resolves():
    for layer in LAYERS:
        module = importlib.import_module(f"bergman.{layer}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (layer, missing)


def test_every_top_level_name_is_declared_by_a_layer():
    # the package loads its names lazily, so its namespace is read through
    # dir() and __all__, which list names not yet loaded, not vars()
    declared = set().union(*(layer_all(layer) for layer in LAYERS))
    error_types = {name for name, obj in vars(errors).items()
                   if inspect.isclass(obj) and issubclass(obj, Exception)}
    public = {name for name in dir(bergman)
              if not name.startswith("_") and not inspect.ismodule(getattr(bergman, name))}
    assert sorted(public - declared - error_types) == []
    assert len(bergman.__all__) == len(set(bergman.__all__))
    assert set(bergman.__all__) == declared | error_types


def test_every_layer_name_is_exported_at_the_top():
    for layer in LAYERS:
        missing = [name for name in layer_all(layer) if not hasattr(bergman, name)]
        assert not missing, (layer, missing)
