"""Traced job launcher: `python launcher.py <trace.json> <bergman argv...>`.

Imports bergman, wraps the public functions and methods of each of its
modules in spans, runs `bergman.cli.main(argv)` and writes per-group span
totals to <trace.json>.  Nothing here changes what the program computes: the
wrappers call the originals with the same arguments and return their results.

Wrapping rules: methods are patched on the class that defines them, and a
module function is rebound in every bergman module that imported it by name.
`__init__` (of non-dataclass classes) and `__call__` count as public, since
they are how weights and grids are built and functions and maps evaluated.

A span's self time is its duration minus that of its child spans; the time
the tracer spends on its own bookkeeping is excluded from both.  Counters are
taken from the arguments and results of the outermost span of each group, so
nested calls within one group (FunctionSum -> Polynomial) count once.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import dataclasses  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

np = None  # numpy, bound after bergman is imported so the import is timed

LAYERS = ("cli", "config", "weights", "geometry", "measures", "spaces", "criteria")

# verify_gamma evaluates its kernel on this many basepoints unless given some
# (the |a|-ladder 1 - 2^(-k/2), k = 0..20, in bergman.criteria.verify_gamma).
_GAMMA_LADDER = 21


def _size(x):
    return int(np.size(x))


def _distinct(x):
    return int(np.unique(np.asarray(x, dtype=float)).size)


def _support_size(nu, grid):
    if hasattr(nu, "points"):
        return len(nu.points)
    g = getattr(nu, "grid", None) or grid
    return g.node_count if g is not None else 0


# -- group table --------------------------------------------------------------
# group name -> (qualified names, counter function or None).  A counter gets
# (tracer, frame, args, kwargs, result) for the outermost span of its group.

def _count_tail(tr, fr, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs.get("u", kwargs.get("r", kwargs.get("rho", 1.0)))
    tr.add("weights.tail", gaps=_size(x), distinct=_distinct(x))


def _count_density(tr, fr, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs.get("u", kwargs.get("r"))
    tr.add("weights.density", points=_size(x), distinct=_distinct(x))


def _count_build(tr, fr, args, kwargs, result):
    tr.add("weights.build", calls=1)


def _count_lattice(tr, fr, args, kwargs, result):
    pts = result[0] if isinstance(result, tuple) else result
    tr.add("geometry.lattice", points=_size(pts))


def _count_grid(tr, fr, args, kwargs, result):
    if fr.name.endswith(".__init__"):
        g = args[0]
        tr.add("measures.grid", builds=1, nodes=g.node_count)
        tr.grid_kinds.add((g.levels, g.angular_base, g.radial_subcells))
        for f in tr.stack:  # callers that built a grid, e.g. verify_gamma
            f.grid_nodes = g.node_count


def _count_pd_radial(tr, fr, args, kwargs, result):
    tr.add("measures.pd_radial", centers=_size(result))


def _count_pd_atomic(tr, fr, args, kwargs, result):
    tr.add("measures.pd_atomic", centers=_size(result), atoms=len(args[0].points))


def _count_atoms_csv(tr, fr, args, kwargs, result):
    tr.add("measures.atoms_csv", rows=len(result.points))


def _count_pushforward(tr, fr, args, kwargs, result):
    tr.add("measures.pushforward", atoms=len(result.points))


def _count_eval(tr, fr, args, kwargs, result):
    tr.add("spaces.eval", points=_size(result))


def _count_selfmap(tr, fr, args, kwargs, result):
    tr.add("spaces.selfmap", points=_size(result))


def _count_norm(tr, fr, args, kwargs, result):
    if fr.name.endswith(".bergman_norm"):
        grid = args[3] if len(args) > 3 else kwargs["grid"]
        tr.add("spaces.norm", nodes=grid.node_count)


def _count_berezin(tr, fr, args, kwargs, result):
    nu = args[4] if len(args) > 4 else kwargs["nu"]
    support = _support_size(nu, kwargs.get("grid"))
    tr.add("criteria.berezin", kernel_evals=len(result.samples) * support)


def _count_verify_gamma(tr, fr, args, kwargs, result):
    grid = args[4] if len(args) > 4 else kwargs.get("grid")
    nodes = grid.node_count if grid is not None else fr.grid_nodes
    basepoints = args[3] if len(args) > 3 else kwargs.get("basepoints")
    ladder = _GAMMA_LADDER if basepoints is None else _size(basepoints)
    tr.add("criteria.verify_gamma", kernel_evals=ladder * nodes)
    if tr.open_groups.get("weights.gamma_for"):
        tr.add("weights.gamma_for", verify_calls=1)


def _count_calls(tr, fr, args, kwargs, result):
    tr.add(fr.group, calls=1)


_RW = "weights.RadialWeight."
_SPACES_FNS = ("AnalyticFunction", "Polynomial", "ConformalPower", "FunctionSum")
_MAPS = ("SelfMap", "Identity", "Scale", "PowerMap", "Moebius", "MapComposition")
_MEASURES = ("DiscMeasure", "RadialDensityMeasure", "CallableDensityMeasure",
             "AtomicMeasure")

GROUPS = {
    "weights.tail": ([_RW + m for m in (
        "tail_integral", "tail_integral_at_gap", "tail_density",
        "tail_density_at_gap", "carleson_mass", "carleson_mass_at_gap",
        "tent_mass", "disc_mass")], _count_tail),
    "weights.density": ([_RW + "density", _RW + "density_at_gap"], _count_density),
    "weights.build": ([_RW + "__init__"], _count_build),
    "weights.classify": (["weights.classify", "weights.gamma_exponent",
                          _RW + "moment"], None),
    "weights.gamma_for": (["weights.gamma_for"], None),
    "geometry.lattice": (["geometry.probe_lattice", "geometry.r_lattice"],
                         _count_lattice),
    "geometry.pseudo_disc": (["geometry.pseudo_disc", "geometry.rho",
                              "geometry.PseudoDisc.contains",
                              "geometry.PseudoDisc.polar_sample"], None),
    "measures.grid": (["measures.QuadratureGrid.__init__", "measures.radial_rings"],
                      _count_grid),
    "measures.pd_radial": (["measures.RadialDensityMeasure.pseudo_disc_masses"],
                           _count_pd_radial),
    "measures.pd_atomic": (["measures.AtomicMeasure.pseudo_disc_masses"],
                           _count_pd_atomic),
    "measures.atoms_csv": (["measures.AtomicMeasure.from_csv"], _count_atoms_csv),
    "measures.pushforward": (["measures.pushforward"], _count_pushforward),
    "measures.support_nodes": ([f"measures.{c}.support_nodes" for c in _MEASURES],
                               None),
    "spaces.eval": (["spaces.AnalyticFunction.__call__", "spaces.deriv_eval"]
                    + [f"spaces.{c}.eval_deriv" for c in _SPACES_FNS], _count_eval),
    "spaces.selfmap": ([f"spaces.{c}.{m}" for c in _MAPS
                        for m in ("__call__", "deriv")], _count_selfmap),
    "spaces.norm": (["spaces.bergman_norm", "spaces.norm_against_measure",
                     "spaces.hardy_means"], _count_norm),
    "criteria.berezin": (["criteria.berezin_criterion"], _count_berezin),
    "criteria.verify_gamma": (["criteria.verify_gamma"], _count_verify_gamma),
    "criteria.derivative_bound": (["criteria.derivative_bound_sup"], _count_calls),
    "criteria.norm_equiv": (["criteria.norm_equivalence_ratios"], None),
    "criteria.embedding": (["criteria.embedding_sup_criterion",
                            "criteria.embedding_ls_criterion",
                            "criteria.op_pushforward_criterion"], None),
    "criteria.hinf": (["criteria.hinf_criterion"], None),
}
_GROUP_OF = {name: (group, counter)
             for group, (names, counter) in GROUPS.items() for name in names}


# -- tracer -------------------------------------------------------------------

class _Frame:
    __slots__ = ("name", "group", "layer", "child", "grid_nodes")

    def __init__(self, name, group, layer):
        self.name, self.group, self.layer = name, group, layer
        self.child = 0.0
        self.grid_nodes = 0


class Tracer:
    """In-memory span totals for one process."""

    def __init__(self):
        self.stack = []
        self.open_groups = defaultdict(int)
        self.overhead = 0.0  # bookkeeping time, excluded from every span
        self.covered = 0.0  # time inside outermost spans of non-cli layers
        self.self_s = defaultdict(float)
        self.counts = defaultdict(lambda: defaultdict(int))
        self.grid_kinds = set()

    def add(self, group, **counts):
        for k, v in counts.items():
            self.counts[group][k] += v

    def call(self, name, group, counter, layer, fn, args, kwargs):
        t0 = time.perf_counter()
        frame = _Frame(name, group, layer)
        outermost = self.open_groups[group] == 0
        noncli_root = layer != "cli" and not any(f.layer != "cli" for f in self.stack)
        self.stack.append(frame)
        self.open_groups[group] += 1
        t1 = time.perf_counter()
        self.overhead += t1 - t0
        ovh_body = self.overhead
        try:
            result = fn(*args, **kwargs)
        finally:
            t2 = time.perf_counter()
            self.stack.pop()
            self.open_groups[group] -= 1
            net = (t2 - t1) - (self.overhead - ovh_body)
            self.self_s[group] += net - frame.child
            if self.stack:
                self.stack[-1].child += net
            if noncli_root:
                self.covered += net
        if outermost and counter is not None:
            counter(self, frame, args, kwargs, result)
        self.overhead += time.perf_counter() - t2
        return result


def _wrap(tracer, fn, name, layer):
    group, counter = _GROUP_OF.get(name, (f"{layer}.other", None))
    if layer in ("cli", "config"):
        group = layer

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, group, counter, layer, fn, args, kwargs)

    return wrapper


def _public(attr):
    return not attr.startswith("_") or attr in ("__init__", "__call__")


def install(tracer, package="bergman"):
    """Wrap every public function and method of the package's layer modules."""
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    all_modules = [importlib.import_module(package), *modules.values()]
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                wrapped = _wrap(tracer, obj, f"{layer}.{attr}", layer)
                for other in all_modules:
                    if getattr(other, attr, None) is obj:
                        setattr(other, attr, wrapped)
            elif inspect.isclass(obj):
                _wrap_class(tracer, obj, layer)


def _wrap_class(tracer, cls, layer):
    for attr, member in list(vars(cls).items()):
        if not _public(attr):
            continue
        if attr == "__init__" and dataclasses.is_dataclass(cls):
            continue
        name = f"{layer}.{cls.__qualname__}.{attr}"
        if isinstance(member, (classmethod, staticmethod)):
            kind = type(member)
            setattr(cls, attr, kind(_wrap(tracer, member.__func__, name, layer)))
        elif inspect.isfunction(member):
            setattr(cls, attr, _wrap(tracer, member, name, layer))


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    global np
    t0 = time.perf_counter()
    import bergman.cli
    import_s = time.perf_counter() - t0
    import numpy as np
    tracer = Tracer()
    t0 = time.perf_counter()
    install(tracer)
    tracer.overhead += time.perf_counter() - t0
    code = 1
    try:
        code = bergman.cli.main(argv)
    finally:
        wall = time.perf_counter() - _T_START
        summary = {
            "import_s": import_s,
            "wall_s": wall,
            "tracer_s": tracer.overhead,
            "covered_s": import_s + tracer.covered,
            "self_s": dict(tracer.self_s),
            "counts": {g: dict(c) for g, c in tracer.counts.items()},
            "grid_kinds": len(tracer.grid_kinds),
            "module": os.path.dirname(bergman.cli.__file__),
        }
        with open(trace_out, "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
