"""Toolkit for measuring regularity of set-valued mappings and certifying
descent-type and R-class algorithm runs on a catalog of closed-form operators."""

from types import ModuleType as _ModuleType

from .geometry import (
    DimensionMismatchError,
    PointSet,
    Region,
    Window,
    as_point,
    excess,
    sample_window,
)
from .setmap import (
    DcSplit,
    MissingOracleError,
    OperatorEntry,
    ProxOracle,
    SetValuedMap,
    WindowRequiredError,
    invert,
    pointwise,
)
from .catalog import CatalogError, catalog_listing, catalog_lookup, catalog_names
from .analysis import (
    CalmnessResult,
    GraphTestResult,
    HolderFit,
    InverseLipschitzResult,
    LojFit,
    ModulusCurve,
    PlkConfig,
    PlkResult,
    calmness_estimate,
    certify_inverse_lipschitz,
    check_plk_exponent,
    closed_graph_test,
    estimate_modulus,
    fit_holder,
    lojasiewicz_fit,
)
from .solvers import (
    IterateTrace,
    StopRule,
    make_synthetic_trace,
    run_dca,
    run_gdm,
    run_ppa,
    run_qpower_prox,
    run_shifted_ppa,
)
from .certify import (
    Certificate,
    DistanceVerdict,
    check_h1,
    check_h2,
    check_h3,
    check_h4,
    check_rclass,
    distance_trace,
)

# the public names are the ones imported above, in their order: listing them again would be a second copy
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
