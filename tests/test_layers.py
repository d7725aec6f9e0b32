"""The import layers of the package: a layer imports only the layers below it.

errors is the floor.  geometry, weights and spaces stand on errors alone,
and measures on geometry and errors.  Imports are read from each module's
source with ast, inside functions too, so a deferred import that points up
a layer counts like one at the top.
"""

import ast
import pathlib

import pytest

import bergman

PACKAGE = pathlib.Path(bergman.__file__).parent

ALLOWED = {
    "errors": set(),
    "geometry": {"errors"},
    "weights": {"errors"},
    "spaces": {"errors"},
    "measures": {"errors", "geometry"},
}


def package_imports(source):
    """The bergman modules that source imports, at any depth of its tree."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:  # from . / from .x
            names = ([f"bergman.{alias.name}" for alias in node.names] if node.module is None
                     else [f"bergman.{node.module}"])
        elif isinstance(node, ast.ImportFrom) and node.module == "bergman":
            names = [f"bergman.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        # a layer by its name; the package itself (import bergman) as "bergman"
        found.update((name.split(".") + [name])[1] for name in names
                     if name.split(".")[0] == "bergman")
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_layer_imports_only_layers_below(module):
    imported = package_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert imported <= ALLOWED[module], sorted(imported - ALLOWED[module])


def test_imports_inside_functions_are_read():
    source = (
        "from . import geometry\n"
        "def f():\n"
        "    from . import criteria\n"
        "    from .weights import RadialWeight\n"
        "    import bergman.spaces\n"
        "    from bergman import config\n"
    )
    assert package_imports(source) == {"geometry", "criteria", "weights", "spaces", "config"}
