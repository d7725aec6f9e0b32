"""Measure the size of a source tree's library: its lines and its settable
parameters.

    python tools/surface.py TREE

Prints the line count of TREE/src/bergman (every .py file), then the
number of settable parameters of TREE's public surface, then each of them
on a line of its own.  A reader that closes the pipe early (`| head -2`)
ends the run quietly, with exit code 0.

A settable parameter is one with a default value, in the signature of a
public function or method (or __init__, dataclass fields included) that
is defined in one of the modules weights, geometry, measures, spaces,
criteria, config and cli.  Each TREE is imported in its own process, so
two trees are compared by two runs.
"""

import importlib
import inspect
import os
import sys

MODULES = ("weights", "geometry", "measures", "spaces", "criteria", "config", "cli")


def line_count(package):
    """Lines of every .py file under package."""
    total = 0
    for root, _, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def surface_functions(module):
    """(qualified name, function) of the module's public functions and of
    the public methods and __init__ of its public classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                if inspect.isfunction(fn) and (not attr.startswith("_") or attr == "__init__"):
                    yield f"{name}.{attr}", fn


def settable_parameters():
    """(qualified function name, parameter name) of every parameter with a
    default value."""
    for short in MODULES:
        module = importlib.import_module(f"bergman.{short}")
        for name, fn in surface_functions(module):
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    yield f"{short}.{name}", param.name


def main(argv):
    if len(argv) != 1:
        sys.exit(__doc__)
    src = os.path.join(os.path.abspath(argv[0]), "src")
    sys.dont_write_bytecode = True  # measure the tree, write nothing into it
    sys.path.insert(0, src)
    print(f"src/bergman lines: {line_count(os.path.join(src, 'bergman'))}")
    params = list(settable_parameters())
    print(f"settable parameters: {len(params)}")
    for where, name in params:
        print(f"  {where}({name})")


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (as `| head -1` does): stop quietly, and
        # point stdout at devnull so the interpreter's last flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
