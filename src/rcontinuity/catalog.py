"""Operator catalog: closed-form mappings with known solution sets.

Each entry hand-codes its forward values, inverse, subgradients, prox rule,
and calculus data.  No symbolic or automatic differentiation happens here;
if a formula is not registered, the corresponding oracle is simply absent.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from .geometry import Region
from .setmap import DcSplit, OperatorEntry, ProxOracle, SetValuedMap

#: Sample count for continuum-valued branches (intervals, half-lines).
_INTERVAL_RESOLUTION = 257


class CatalogError(KeyError):
    """Unknown catalog entry name."""


def _rows(*vals) -> np.ndarray:
    return np.array([[float(v)] for v in vals])


def _interval_rows(lo: float, hi: float, n: int = _INTERVAL_RESOLUTION) -> np.ndarray:
    if hi < lo:
        return np.empty((0, 1))
    if hi == lo:
        return _rows(lo)
    return np.linspace(lo, hi, n).reshape(-1, 1)


def _window_interval(window, default_lo, default_hi):
    """Clip a 1-d interval to a 1-d window (box or ball)."""
    lo, hi = default_lo, default_hi
    if window is not None:
        c = float(window.center[0])
        e = float(window.extent[0])
        lo, hi = max(lo, c - e), min(hi, c + e)
    return lo, hi


# --- rm1: A(0) = {0}, A(x) = {x, 1/x} otherwise ------------------------------

def _rm1() -> OperatorEntry:
    def ev(x, window):
        v = float(x[0])
        if v == 0.0:
            return _rows(0.0)
        return _rows(v, 1.0 / v)

    def vdist(x, y):
        v = float(x[0])
        w = float(y[0])
        if v == 0.0:
            return abs(w)
        return min(abs(w - v), abs(w - 1.0 / v))

    fwd = SetValuedMap(
        name="rm1",
        dim_in=1,
        dim_out=1,
        evaluator=ev,
        window_required=True,
        value_dist=vdist,
    )
    return OperatorEntry(
        name="rm1",
        forward=fwd,
        solution_set=Region.from_points([[0.0]]),
        description="window-restricted Lipschitz behavior, unbounded without a window",
        monotone=False,
    )


# --- flat-exp: f(x) = exp(-1/x^2), f(0) = 0 ----------------------------------

def _flat_exp_f(x) -> float:
    v = float(np.asarray(x).reshape(-1)[0])
    if v == 0.0:
        return 0.0
    return float(np.exp(-1.0 / (v * v)))


def _flat_exp_grad(x) -> np.ndarray:
    v = float(np.asarray(x).reshape(-1)[0])
    if v == 0.0:
        return np.array([0.0])
    return np.array([2.0 * np.exp(-1.0 / (v * v)) / v ** 3])


def _flat_exp() -> OperatorEntry:
    def ev(x, window):
        return _rows(_flat_exp_f(x))

    def inv_ev(y, window):
        w = float(y[0])
        if w == 0.0:
            return _rows(0.0)
        if 0.0 < w < 1.0:
            r = math.sqrt(-1.0 / math.log(w))
            return _rows(-r, r)
        return np.empty((0, 1))

    fwd = SetValuedMap("flat-exp", 1, 1, ev)
    inv = SetValuedMap("flat-exp-inverse", 1, 1, inv_ev)
    return OperatorEntry(
        name="flat-exp",
        forward=fwd,
        solution_set=Region.from_points([[0.0]]),
        description="smooth non-analytic function, flat to all orders at 0",
        inverse=inv,
        subgrad=SetValuedMap("flat-exp-grad", 1, 1, lambda x, w: _flat_exp_grad(x).reshape(1, 1)),
        subgrad_witness=_flat_exp_grad,
        f=_flat_exp_f,
        grad=_flat_exp_grad,
        jac=lambda x: _flat_exp_grad(x).reshape(1, 1),
        monotone=False,
        inf_f=0.0,
    )


# --- square: f(x) = x^2 -------------------------------------------------------

def _square() -> OperatorEntry:
    def ev(x, window):
        return _rows(float(x[0]) ** 2)

    def inv_ev(y, window):
        w = float(y[0])
        if w < 0.0:
            return np.empty((0, 1))
        if w == 0.0:
            return _rows(0.0)
        r = math.sqrt(w)
        return _rows(-r, r)

    grad = lambda x: np.array([2.0 * float(x[0])])
    return OperatorEntry(
        name="square",
        forward=SetValuedMap("square", 1, 1, ev),
        solution_set=Region.from_points([[0.0]]),
        description="scalar quadratic equation map",
        inverse=SetValuedMap("square-inverse", 1, 1, inv_ev),
        subgrad=SetValuedMap("square-grad", 1, 1, lambda x, w: grad(x).reshape(1, 1)),
        subgrad_witness=grad,
        grad_inverse=SetValuedMap("square-grad-inverse", 1, 1, lambda y, w: _rows(float(y[0]) / 2.0)),
        f=lambda x: float(x[0]) ** 2,
        grad=grad,
        jac=lambda x: np.array([[2.0 * float(x[0])]]),
        monotone=False,
        inf_f=0.0,
    )


# --- double-well: f(x) = x^2 (x-1)^2, S = {0, 1} ------------------------------

def _dw_f(x) -> float:
    v = float(np.asarray(x).reshape(-1)[0])
    return (v * (v - 1.0)) ** 2


def _dw_grad(x) -> np.ndarray:
    v = float(np.asarray(x).reshape(-1)[0])
    return np.array([2.0 * v * (v - 1.0) * (2.0 * v - 1.0)])


def _double_well() -> OperatorEntry:
    def ev(x, window):
        return _rows(_dw_f(x))

    def inv_ev(y, window):
        w = float(y[0])
        if w < 0.0:
            return np.empty((0, 1))
        if w == 0.0:
            return _rows(0.0, 1.0)
        s = math.sqrt(w)
        roots = []
        # x(x-1) = +s  and  x(x-1) = -s
        roots += [(1.0 + math.sqrt(1.0 + 4.0 * s)) / 2.0, (1.0 - math.sqrt(1.0 + 4.0 * s)) / 2.0]
        if 1.0 - 4.0 * s >= 0.0:
            roots += [(1.0 + math.sqrt(1.0 - 4.0 * s)) / 2.0, (1.0 - math.sqrt(1.0 - 4.0 * s)) / 2.0]
        return _rows(*roots)

    return OperatorEntry(
        name="double-well",
        forward=SetValuedMap("double-well", 1, 1, ev),
        solution_set=Region.from_points([[0.0], [1.0]]),
        description="quartic with two zeros",
        inverse=SetValuedMap("double-well-inverse", 1, 1, inv_ev),
        subgrad=SetValuedMap("double-well-grad", 1, 1, lambda x, w: _dw_grad(x).reshape(1, 1)),
        subgrad_witness=_dw_grad,
        f=_dw_f,
        grad=_dw_grad,
        jac=lambda x: _dw_grad(x).reshape(1, 1),
        monotone=False,
        inf_f=0.0,
    )


# --- abs-subdiff: A(x) = subdifferential of |x| -------------------------------

def _abs_subdiff() -> OperatorEntry:
    def ev(x, window):
        v = float(x[0])
        if v > 0.0:
            return _rows(1.0)
        if v < 0.0:
            return _rows(-1.0)
        lo, hi = _window_interval(window, -1.0, 1.0)
        return _interval_rows(lo, hi)

    def vdist(x, y):
        v = float(x[0])
        w = float(y[0])
        if v > 0.0:
            return abs(w - 1.0)
        if v < 0.0:
            return abs(w + 1.0)
        return max(abs(w) - 1.0, 0.0)

    def inv_ev(y, window):
        w = float(y[0])
        if abs(w) > 1.0:
            return np.empty((0, 1))
        if abs(w) < 1.0:
            return _rows(0.0)
        if w == 1.0:
            lo, hi = _window_interval(window, 0.0, math.inf)
            return _interval_rows(lo, hi)
        lo, hi = _window_interval(window, -math.inf, 0.0)
        return _interval_rows(lo, hi)

    def inv_vdist(y, x):
        w = float(y[0])
        v = float(x[0])
        if abs(w) > 1.0:
            return math.inf
        if abs(w) < 1.0:
            return abs(v)
        if w == 1.0:
            return max(-v, 0.0)
        return max(v, 0.0)

    def shrink(gamma, y):
        v = float(np.asarray(y).reshape(-1)[0])
        return np.array([math.copysign(max(abs(v) - gamma, 0.0), v)])

    fwd = SetValuedMap(
        "abs-subdiff", 1, 1, ev,
        resolution=_INTERVAL_RESOLUTION, value_dist=vdist,
    )
    return OperatorEntry(
        name="abs-subdiff",
        forward=fwd,
        solution_set=Region.from_points([[0.0]]),
        description="subdifferential of the absolute value; prox is the soft threshold",
        inverse=SetValuedMap(
            "abs-subdiff-inverse", 1, 1, inv_ev,
            window_required=True, resolution=_INTERVAL_RESOLUTION, value_dist=inv_vdist,
        ),
        prox=ProxOracle(shrink, note="soft threshold, all gamma > 0"),
        subgrad=fwd,
        subgrad_witness=lambda x: np.array([math.copysign(1.0, float(x[0]))]) if float(x[0]) != 0 else np.array([0.0]),
        f=lambda x: abs(float(x[0])),
        monotone=True,
        inf_f=0.0,
    )


# --- quad: f(x) = x^2 / 2, A(x) = x (1-d identity gradient) -------------------

def _quad() -> OperatorEntry:
    def ev(x, window):
        return _rows(float(x[0]))

    fwd = SetValuedMap("quad", 1, 1, ev)
    return OperatorEntry(
        name="quad",
        forward=fwd,
        solution_set=Region.from_points([[0.0]]),
        description="gradient map of x^2/2 with a linear resolvent",
        inverse=SetValuedMap("quad-inverse", 1, 1, lambda y, w: _rows(float(y[0]))),
        prox=ProxOracle(lambda gamma, y: np.asarray(y, dtype=float) / (1.0 + gamma)),
        subgrad=fwd,
        subgrad_witness=lambda x: np.array([float(x[0])]),
        grad_inverse=SetValuedMap("quad-grad-inverse", 1, 1, lambda y, w: _rows(float(y[0]))),
        f=lambda x: 0.5 * float(x[0]) ** 2,
        grad=lambda x: np.array([float(x[0])]),
        jac=lambda x: np.array([[1.0]]),
        quad_form=(np.array([[1.0]]), np.array([0.0])),
        monotone=True,
        inf_f=0.0,
    )


# --- quad2: 2-d SPD quadratic -------------------------------------------------

_QUAD2_Q = np.array([[2.0, 0.5], [0.5, 1.0]])
_QUAD2_B = np.array([1.0, -0.5])
_QUAD2_SOL = np.linalg.solve(_QUAD2_Q, _QUAD2_B)


def _quad2() -> OperatorEntry:
    Q, b = _QUAD2_Q, _QUAD2_B

    def ev(x, window):
        return (Q @ x - b).reshape(1, 2)

    def prox_rule(gamma, y):
        return np.linalg.solve(np.eye(2) + gamma * Q, np.asarray(y, dtype=float) + gamma * b)

    fwd = SetValuedMap("quad2", 2, 2, ev)
    fval = lambda x: float(0.5 * x @ Q @ x - b @ x)
    return OperatorEntry(
        name="quad2",
        forward=fwd,
        solution_set=Region.from_points([_QUAD2_SOL]),
        description="two-dimensional SPD quadratic",
        inverse=SetValuedMap("quad2-inverse", 2, 2, lambda y, w: np.linalg.solve(Q, y + b).reshape(1, 2)),
        prox=ProxOracle(prox_rule),
        subgrad=fwd,
        subgrad_witness=lambda x: Q @ x - b,
        grad_inverse=SetValuedMap("quad2-grad-inverse", 2, 2, lambda y, w: np.linalg.solve(Q, y + b).reshape(1, 2)),
        f=fval,
        grad=lambda x: Q @ x - b,
        jac=lambda x: Q.copy(),
        quad_form=(Q, b),
        monotone=True,
        inf_f=float(-0.5 * _QUAD2_B @ _QUAD2_SOL),
    )


# --- linear-neg: A(x) = -2x (not monotone) ------------------------------------

def _linear_neg() -> OperatorEntry:
    def ev(x, window):
        return _rows(-2.0 * float(x[0]))

    def prox_rule(gamma, y):
        return np.asarray(y, dtype=float) / (1.0 - 2.0 * gamma)

    fwd = SetValuedMap("linear-neg", 1, 1, ev)
    return OperatorEntry(
        name="linear-neg",
        forward=fwd,
        solution_set=Region.from_points([[0.0]]),
        description="nonmonotone linear map; resolvent single-valued away from gamma = 1/2",
        inverse=SetValuedMap("linear-neg-inverse", 1, 1, lambda y, w: _rows(-0.5 * float(y[0]))),
        prox=ProxOracle(
            prox_rule,
            valid_gamma=lambda g: g > 0 and abs(g - 0.5) > 1e-12,
            note="single-valued for gamma != 1/2",
        ),
        subgrad=fwd,
        subgrad_witness=lambda x: np.array([-2.0 * float(x[0])]),
        f=lambda x: -float(x[0]) ** 2,
        grad=lambda x: np.array([-2.0 * float(x[0])]),
        jac=lambda x: np.array([[-2.0]]),
        monotone=False,
    )


# --- dc-quad: g = x^2/2, h = x^2/4, f = g - h = x^2/4 --------------------------

def _dc_quad() -> OperatorEntry:
    def ev(x, window):
        return _rows(0.5 * float(x[0]))

    fwd = SetValuedMap("dc-quad", 1, 1, ev)
    return OperatorEntry(
        name="dc-quad",
        forward=fwd,
        solution_set=Region.from_points([[0.0]]),
        description="difference of two quadratics",
        inverse=SetValuedMap("dc-quad-inverse", 1, 1, lambda y, w: _rows(2.0 * float(y[0]))),
        prox=ProxOracle(lambda gamma, y: np.asarray(y, dtype=float) / (1.0 + 0.5 * gamma)),
        subgrad=fwd,
        subgrad_witness=lambda x: np.array([0.5 * float(x[0])]),
        grad_inverse=SetValuedMap("dc-quad-grad-inverse", 1, 1, lambda y, w: _rows(2.0 * float(y[0]))),
        f=lambda x: 0.25 * float(x[0]) ** 2,
        grad=lambda x: np.array([0.5 * float(x[0])]),
        jac=lambda x: np.array([[0.5]]),
        quad_form=(np.array([[0.5]]), np.array([0.0])),
        dc=DcSplit(
            g_prox=ProxOracle(lambda gamma, y: np.asarray(y, dtype=float) / (1.0 + gamma)),
            h_grad=lambda x: 0.5 * np.asarray(x, dtype=float),
        ),
        monotone=True,
        inf_f=0.0,
    )


_BUILDERS = {
    "rm1": _rm1,
    "flat-exp": _flat_exp,
    "square": _square,
    "double-well": _double_well,
    "abs-subdiff": _abs_subdiff,
    "quad": _quad,
    "quad2": _quad2,
    "linear-neg": _linear_neg,
    "dc-quad": _dc_quad,
}

_CATALOG: Dict[str, OperatorEntry] = {name: build() for name, build in sorted(_BUILDERS.items())}


def catalog_names() -> List[str]:
    return sorted(_CATALOG)


def catalog_lookup(name: str) -> OperatorEntry:
    """Return the registered entry for ``name``; unknown names raise."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise CatalogError(
            f"unknown operator {name!r}; available: {', '.join(catalog_names())}"
        ) from None


def catalog_listing() -> List[dict]:
    """Machine-readable catalog summary, sorted by name."""
    out = []
    for name in catalog_names():
        entry = _CATALOG[name]
        out.append(
            {
                "name": name,
                "description": entry.description,
                "dim_in": entry.dim_in,
                "dim_out": entry.dim_out,
                "window_required": entry.forward.window_required,
                "monotone": entry.monotone,
                "oracles": entry.oracle_flags(),
            }
        )
    return out
