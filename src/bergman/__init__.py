"""Numerical toolkit for weighted Bergman spaces on the unit disc.

Computes the objects behind Carleson-type embedding theorems for doubling
radial weights and the boundedness/compactness criteria for generalized
weighted composition operators u * (f^{(n)} o phi), and verifies the
two-sided equivalences empirically at desk scale.

The names below load with their layer on first use (PEP 562), so
`import bergman` alone imports no numpy: `python -m bergman` relies on that
to fix BLAS threading before numpy starts (see `bergman.__main__`).
"""

import importlib

# exported name -> the layer module that defines it
_EXPORTS = {
    **dict.fromkeys((
        "BergmanError", "ConfigError", "DegenerateBasepointError", "DomainError",
        "IntegrabilityError", "ResourceLimitError", "SelfMapViolationError",
        "UnboundedNormError"), "errors"),
    **dict.fromkeys((
        "PseudoDisc", "probe_lattice", "pseudo_disc", "r_lattice", "rho"), "geometry"),
    **dict.fromkeys((
        "RadialWeight", "WeightClassReport", "classify", "gamma_exponent"), "weights"),
    **dict.fromkeys((
        "AtomicMeasure", "DiscMeasure", "QuadratureGrid", "RadialDensityMeasure",
        "pushforward"), "measures"),
    **dict.fromkeys((
        "AnalyticFunction", "ConformalPower", "Identity", "MapComposition", "Moebius",
        "OperatorSpec", "Polynomial", "PowerMap", "Scale", "SelfMap", "apply_operator",
        "bergman_norm", "norm_against_measure", "test_function"), "spaces"),
    **dict.fromkeys((
        "CriterionReport", "berezin_criterion", "derivative_bound_sup",
        "embedding_ls_criterion", "embedding_sup_criterion", "hinf_criterion",
        "norm_equivalence_ratios", "op_pushforward_criterion",
        "operator_norm_lower_bound", "verify_gamma"), "criteria"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    """Load an exported name, or a layer module, on first use."""
    if name in _EXPORTS.values():
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
