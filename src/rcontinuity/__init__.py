"""Toolkit for measuring regularity of set-valued mappings and certifying
descent-type and R-class algorithm runs on a catalog of closed-form operators.

A public name loads the module that defines it on first use (PEP 562), so
``import rcontinuity`` loads no submodule, and a run loads only the modules
its stages use."""

import sys

#: Each public name and the module that defines it, in the order of ``__all__``
#: (``StopRule`` keeps its place among the solver names; the core defines it).
_OWNERS = {name: module for module, names in (
    ("geometry", "DimensionMismatchError PointSet Region Window as_point excess sample_window"),
    ("setmap", "DcSplit MissingOracleError OperatorEntry ProxOracle SetValuedMap WindowRequiredError pointwise"),
    ("catalog", "CatalogError catalog_listing catalog_lookup catalog_names"),
    ("analysis", "CalmnessResult GraphTestResult HolderFit InverseLipschitzResult LojFit ModulusCurve PlkConfig "
                 "PlkResult calmness_estimate certify_inverse_lipschitz check_plk_exponent closed_graph_test "
                 "estimate_modulus fit_holder lojasiewicz_fit"),
    ("solvers", "IterateTrace"),
    ("setmap", "StopRule"),
    ("solvers", "make_synthetic_trace run_dca run_gdm run_ppa run_qpower_prox run_shifted_ppa"),
    ("certify", "Certificate DistanceVerdict check_h1 check_h2 check_h3 check_h4 check_rclass distance_trace"),
) for name in names.split()}
#: The modules that define public names, reachable as attributes after ``import rcontinuity``.
_MODULES = set(_OWNERS.values())

__all__ = list(_OWNERS)

__version__ = "0.1.0"


def _load(module: str):
    """The submodule ``module``, imported by ``__import__``, which ``python -X importtime``
    times (``importlib.import_module`` bypasses it)."""
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __getattr__(name: str):
    if name in _MODULES:
        return _load(name)
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_load(_OWNERS[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_OWNERS, *_MODULES})
