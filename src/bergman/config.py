"""Experiment configuration: JSON schema ingestion and object resolution.

A config file is a single JSON object with a versioned "schema" field.  The
pieces a command needs are resolved lazily: classify-weight only requires
"weight", criterion runs additionally require exponents and (depending on
the criterion) a measure, a target weight, or an operator.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .measures import AtomicMeasure, QuadratureGrid, RadialDensityMeasure
from .spaces import (
    ConformalPower,
    Identity,
    MapComposition,
    Moebius,
    OperatorSpec,
    Polynomial,
    PowerMap,
    Scale,
)
from .weights import RadialWeight

SCHEMA_VERSION = 1


def _number(value, where):
    """A config value as a finite float; JSON booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number (got {value!r})", field=where)
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{where} must be finite (got {value!r})", field=where)
    return value


def _integer(value, where):
    """A config value as an int; integral floats such as 3.0 are accepted."""
    value = _number(value, where)
    if not value.is_integer():
        raise ConfigError(f"{where} must be an integer (got {value!r})", field=where)
    return int(value)


def _list_of(value, where):
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a list (got {value!r})", field=where)
    return value


def _complex_of(value, where):
    try:
        re, im = value
    except (TypeError, ValueError):
        raise ConfigError(f"expected [re, im] pair at {where}", field=where)
    return complex(_number(re, where), _number(im, where))


def parse_weight(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("weight spec must be an object with a 'kind'", field="weight")
    kind = spec["kind"]
    try:
        if kind == "power":
            return RadialWeight.power(_number(spec["alpha"], "weight.alpha"))
        if kind == "log_power":
            return RadialWeight.log_power(_number(spec["alpha"], "weight.alpha"),
                                          _number(spec["b"], "weight.b"))
        if kind == "table":
            r, w = spec["r"], spec["w"]
            if not (isinstance(r, list) and isinstance(w, list)):
                raise ConfigError("table weight needs r and w lists", field="weight")
            return RadialWeight.from_table([_number(x, "weight.r") for x in r],
                                           [_number(x, "weight.w") for x in w])
    except KeyError as exc:
        raise ConfigError(f"weight spec missing {exc}", field="weight")
    raise ConfigError(f"unknown weight kind {kind!r}", field="weight")


def parse_function(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("function spec must be an object with a 'kind'", field="function")
    kind = spec["kind"]
    try:
        if kind == "poly":
            coeffs = _list_of(spec["coeffs"], "function.coeffs")
            return Polynomial([_complex_of(c, "function.coeffs") for c in coeffs])
        if kind == "conformal_power":
            try:
                scale = complex(spec.get("scale", 1.0))
            except (TypeError, ValueError):
                raise ConfigError("function.scale must be a number",
                                  field="function.scale")
            return ConformalPower(
                _complex_of(spec["a"], "function.a"),
                _number(spec["gamma"], "function.gamma"),
                scale,
            )
    except KeyError as exc:
        raise ConfigError(f"function spec missing {exc}", field="function")
    raise ConfigError(f"unknown function kind {kind!r}", field="function")


def parse_selfmap(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("self-map spec must be an object with a 'kind'", field="phi")
    kind = spec["kind"]
    try:
        if kind == "identity":
            return Identity()
        if kind == "scale":
            return Scale(_number(spec["r"], "phi.r"))
        if kind == "power":
            return PowerMap(_integer(spec["k"], "phi.k"))
        if kind == "moebius":
            return Moebius(_complex_of(spec["c"], "phi.c"))
        if kind == "composition":
            return MapComposition([parse_selfmap(m) for m in _list_of(spec["maps"], "phi")])
    except KeyError as exc:
        raise ConfigError(f"self-map spec missing {exc}", field="phi")
    raise ConfigError(f"unknown self-map kind {kind!r}", field="phi")


def parse_measure(spec, make_grid):
    """The measure of a spec; make_grid() supplies the grid of a density kind
    and is not called for an atom cloud."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("measure spec must be an object with a 'kind'", field="measure")
    kind = spec["kind"]
    try:
        if kind == "power_density":
            return RadialDensityMeasure.from_power(_number(spec["beta"], "measure.beta"),
                                                   make_grid())
        if kind == "weight_density":
            return RadialDensityMeasure.from_weight(parse_weight(spec["weight"]),
                                                    make_grid())
        if kind == "atoms_csv":
            path = spec["path"]
            # open() would take an int (or a bool) as a file descriptor and
            # raise ValueError on a NUL byte
            if not isinstance(path, str) or "\0" in path:
                raise ConfigError(f"measure.path must be a file name (got {path!r})",
                                  field="measure.path")
            return AtomicMeasure.from_csv(path)
    except KeyError as exc:
        raise ConfigError(f"measure spec missing {exc}", field="measure")
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read atoms csv: {exc}", field="measure")
    raise ConfigError(f"unknown measure kind {kind!r}", field="measure")


def parse_operator(spec):
    if not isinstance(spec, dict):
        raise ConfigError("operator spec must be an object", field="operator")
    phi = parse_selfmap(spec.get("phi", {"kind": "identity"}))
    u = parse_function(spec.get("u", {"kind": "poly", "coeffs": [[1.0, 0.0]]}))
    n = _integer(spec.get("n", 0), "operator.n")
    if n < 0:
        raise ConfigError("operator n must be nonnegative", field="operator.n")
    return OperatorSpec(phi, u, n)


@dataclass
class ExperimentConfig:
    """Validated configuration with raw specs kept for the report echo."""

    raw: dict
    seed: int
    p: float
    q: float
    n: int
    grid_level: int
    lattice_r: float
    gamma: float | None

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict) or not raw:
            raise ConfigError("config must be a non-empty JSON object")
        schema = raw.get("schema")
        if schema != SCHEMA_VERSION:
            raise ConfigError(
                f"config schema must be {SCHEMA_VERSION} (got {schema!r})", field="schema"
            )
        operator = raw.get("operator", {})
        if not isinstance(operator, dict):
            raise ConfigError("operator spec must be an object", field="operator")
        seed = _integer(raw.get("seed", 0), "seed")
        p = _number(raw.get("p", 2.0), "p")
        q = _number(raw.get("q", 2.0), "q")
        operator_n = _integer(operator.get("n", 0), "operator.n")
        cfg = cls(
            raw=raw, seed=seed, p=p, q=q,
            n=_integer(raw["n"], "n") if "n" in raw else operator_n,
            grid_level=_integer(raw.get("grid_level", 9), "grid_level"),
            lattice_r=_number(raw.get("lattice_r", 0.3), "lattice_r"),
            gamma=None if raw.get("gamma") is None else _number(raw["gamma"], "gamma"),
        )
        if cfg.p <= 0 or cfg.q <= 0:
            raise ConfigError("exponents p, q must be positive", field="p")
        if cfg.seed < 0:
            raise ConfigError("seed must be nonnegative", field="seed")
        if not (0.0 < cfg.lattice_r < 1.0):
            raise ConfigError("lattice_r must lie in (0, 1)", field="lattice_r")
        if raw.get("carleson_convention", "standard") != "standard":
            raise ConfigError("carleson_convention must be standard",
                              field="carleson_convention")
        if not (1 <= cfg.grid_level <= 24):
            raise ConfigError("grid_level must lie in 1..24", field="grid_level")
        return cfg

    @classmethod
    def load(cls, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
        return cls.from_dict(raw)

    def grid(self, level=None):
        """A new quadrature grid of a level (default grid_level)."""
        return QuadratureGrid(self.grid_level if level is None else level)

    def require(self, key):
        if key not in self.raw:
            raise ConfigError(f"config needs a {key!r} section", field=key)
        return self.raw[key]

    def weight(self):
        return parse_weight(self.require("weight"))

    def target_weight(self):
        return parse_weight(self.require("target_weight"))

    def measure(self):
        return parse_measure(self.require("measure"), self.grid)

    def operator(self):
        return parse_operator(self.require("operator"))

    def function(self):
        return parse_function(self.require("function"))

    def rng(self):
        return np.random.default_rng(self.seed)
