"""Numerical toolkit for weighted Bergman spaces on the unit disc.

Computes the objects behind Carleson-type embedding theorems for doubling
radial weights and the boundedness/compactness criteria for generalized
weighted composition operators u * (f^{(n)} o phi), and verifies the
two-sided equivalences empirically at desk scale.
"""

from .errors import (
    BergmanError,
    ConfigError,
    DegenerateBasepointError,
    DomainError,
    IntegrabilityError,
    ResourceLimitError,
    SelfMapViolationError,
    UnboundedNormError,
)
from .geometry import (
    PseudoDisc,
    probe_lattice,
    pseudo_disc,
    r_lattice,
    rho,
)
from .weights import (
    GammaResult,
    RadialWeight,
    WeightClassReport,
    classify,
    gamma_exponent,
    gamma_for,
)
from .measures import (
    AtomicMeasure,
    DiscMeasure,
    QuadratureGrid,
    RadialDensityMeasure,
    pushforward,
)
from .spaces import (
    AnalyticFunction,
    ConformalPower,
    Identity,
    MapComposition,
    Moebius,
    OperatorSpec,
    Polynomial,
    PowerMap,
    Scale,
    SelfMap,
    apply_operator,
    bergman_norm,
    norm_against_measure,
    test_function,
)
from .criteria import (
    CriterionReport,
    berezin_criterion,
    derivative_bound_sup,
    embedding_ls_criterion,
    embedding_sup_criterion,
    hinf_criterion,
    norm_equivalence_ratios,
    op_pushforward_criterion,
    operator_norm_lower_bound,
    verify_gamma,
)

__version__ = "0.1.0"
