"""Operator catalog: closed-form mappings with known solution sets.

Each entry hand-codes its forward values, inverse, subgradients, prox rule,
and calculus data.  No symbolic or automatic differentiation happens here;
if a formula is not registered, the corresponding oracle is simply absent.

Map evaluators are row-wise (see :mod:`rcontinuity.setmap`): each takes all
rows at once and returns its branches as ``(values, rows)`` parts, which
``SetValuedMap.eval_rows`` orders by row.  The arithmetic is the per-point
arithmetic, element by element, so every value is the one a per-point
formula gives; where numpy rounds differently from Python's scalar ``**``
and ``math.log``, the scalar functions are applied per element.
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


def _branches(*parts):
    """Stack 1-d branch parts ``(values, rows)`` into ``(points, owner)``;
    within a row, values keep the order of the parts."""
    values = np.concatenate([np.asarray(v, dtype=float) for v, _ in parts])
    rows = np.concatenate([r for _, r in parts])
    return values.reshape(-1, 1), rows


def _column(values):
    """One value per row."""
    return _branches((values, np.arange(len(values))))


def _each(values: np.ndarray, rows: np.ndarray):
    """The same values for every row in ``rows``, as a branch part."""
    return np.tile(values, rows.size), np.repeat(rows, values.size)


def _pow(values: np.ndarray, exponent: float) -> np.ndarray:
    """Python's float ``**`` per element: numpy's power rounds differently."""
    return np.array([v ** exponent for v in values.tolist()], dtype=float)


def _interval(lo: float, hi: float, n: int = _INTERVAL_RESOLUTION) -> np.ndarray:
    if hi < lo:
        return np.empty(0)
    if hi == lo:
        return np.array([lo])
    return np.linspace(lo, hi, n)


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
    def ev(X, window):
        v = X[:, 0]
        nz = np.flatnonzero(v != 0.0)
        with np.errstate(over="ignore"):
            far = 1.0 / v[nz]
        # A(0) = {0}, also at v = -0.0
        return _branches((np.where(v == 0.0, 0.0, v), np.arange(v.size)), (far, nz))

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
    if v * v == 0.0:  # the limit 0, also where v * v underflows
        return 0.0
    return float(np.exp(-1.0 / (v * v)))


def _flat_exp_grad(x) -> np.ndarray:
    v = float(np.asarray(x).reshape(-1)[0])
    if v ** 3 == 0.0:  # the limit 0, also where v ** 3 underflows
        return np.array([0.0])
    return np.array([2.0 * np.exp(-1.0 / (v * v)) / v ** 3])


def _flat_exp() -> OperatorEntry:
    def ev(X, window):
        v = X[:, 0]
        with np.errstate(divide="ignore", over="ignore"):  # exp(-inf) = 0 at v = 0
            return _column(np.exp(-1.0 / (v * v)))

    def grad_ev(X, window):
        v = X[:, 0]
        cube = _pow(v, 3)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            g = 2.0 * np.exp(-1.0 / (v * v)) / cube
        # the limit 0 where v ** 3 is 0 (v = 0, or its cube underflows)
        return _column(np.where(cube == 0.0, 0.0, g))

    def inv_ev(Y, window):
        w = Y[:, 0]
        zero = np.flatnonzero(w == 0.0)
        inside = np.flatnonzero((0.0 < w) & (w < 1.0))
        r = np.sqrt(-1.0 / np.array([math.log(t) for t in w[inside].tolist()], dtype=float))
        return _branches((np.zeros(zero.size), zero), (-r, inside), (r, inside))

    fwd = SetValuedMap("flat-exp", 1, 1, ev)
    inv = SetValuedMap("flat-exp-inverse", 1, 1, inv_ev)
    return OperatorEntry(
        name="flat-exp",
        forward=fwd,
        solution_set=Region.from_points([[0.0]]),
        description="smooth non-analytic function, flat to all orders at 0",
        inverse=inv,
        subgrad=SetValuedMap("flat-exp-grad", 1, 1, grad_ev),
        f=_flat_exp_f,
        grad=_flat_exp_grad,
        jac=lambda x: _flat_exp_grad(x).reshape(1, 1),
        monotone=False,
        inf_f=0.0,
    )


# --- square: f(x) = x^2 -------------------------------------------------------

def _square() -> OperatorEntry:
    def ev(X, window):
        return _column(_pow(X[:, 0], 2))

    def inv_ev(Y, window):
        w = Y[:, 0]
        zero = np.flatnonzero(w == 0.0)
        pos = np.flatnonzero(w > 0.0)
        r = np.sqrt(w[pos])
        return _branches((np.zeros(zero.size), zero), (-r, pos), (r, pos))

    return OperatorEntry(
        name="square",
        forward=SetValuedMap("square", 1, 1, ev),
        solution_set=Region.from_points([[0.0]]),
        description="scalar quadratic equation map",
        inverse=SetValuedMap("square-inverse", 1, 1, inv_ev),
        subgrad=SetValuedMap("square-grad", 1, 1, lambda X, w: _column(2.0 * X[:, 0])),
        grad_inverse=SetValuedMap("square-grad-inverse", 1, 1, lambda Y, w: _column(Y[:, 0] / 2.0)),
        f=lambda x: float(x[0]) ** 2,
        grad=lambda x: np.array([2.0 * float(x[0])]),
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
    def ev(X, window):
        v = X[:, 0]
        return _column(_pow(v * (v - 1.0), 2))

    def grad_ev(X, window):
        v = X[:, 0]
        return _column(2.0 * v * (v - 1.0) * (2.0 * v - 1.0))

    def inv_ev(Y, window):
        w = Y[:, 0]
        zero = np.flatnonzero(w == 0.0)
        pos = np.flatnonzero(w > 0.0)
        s = np.sqrt(w[pos])
        # x(x-1) = +s for every s > 0, and x(x-1) = -s while 1 - 4s >= 0
        outer = np.sqrt(1.0 + 4.0 * s)
        near = (1.0 - 4.0 * s) >= 0.0
        inner, inner_rows = np.sqrt(1.0 - 4.0 * s[near]), pos[near]
        return _branches(
            (np.zeros(zero.size), zero), (np.ones(zero.size), zero),
            ((1.0 + outer) / 2.0, pos), ((1.0 - outer) / 2.0, pos),
            ((1.0 + inner) / 2.0, inner_rows), ((1.0 - inner) / 2.0, inner_rows),
        )

    return OperatorEntry(
        name="double-well",
        forward=SetValuedMap("double-well", 1, 1, ev),
        solution_set=Region.from_points([[0.0], [1.0]]),
        description="quartic with two zeros",
        inverse=SetValuedMap("double-well-inverse", 1, 1, inv_ev),
        subgrad=SetValuedMap("double-well-grad", 1, 1, grad_ev),
        f=_dw_f,
        grad=_dw_grad,
        jac=lambda x: _dw_grad(x).reshape(1, 1),
        monotone=False,
        inf_f=0.0,
    )


# --- abs-subdiff: A(x) = subdifferential of |x| -------------------------------

def _abs_subdiff() -> OperatorEntry:
    def ev(X, window):
        v = X[:, 0]
        pos, neg, zero = np.flatnonzero(v > 0.0), np.flatnonzero(v < 0.0), np.flatnonzero(v == 0.0)
        return _branches((np.ones(pos.size), pos), (np.full(neg.size, -1.0), neg),
                         _each(_interval(*_window_interval(window, -1.0, 1.0)), zero))

    def vdist(x, y):
        v = float(x[0])
        w = float(y[0])
        if v > 0.0:
            return abs(w - 1.0)
        if v < 0.0:
            return abs(w + 1.0)
        return max(abs(w) - 1.0, 0.0)

    def inv_ev(Y, window):
        w = Y[:, 0]
        inside = np.flatnonzero(np.abs(w) < 1.0)
        up = _interval(*_window_interval(window, 0.0, math.inf))
        down = _interval(*_window_interval(window, -math.inf, 0.0))
        return _branches((np.zeros(inside.size), inside),
                         _each(up, np.flatnonzero(w == 1.0)), _each(down, np.flatnonzero(w == -1.0)))

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

    fwd = SetValuedMap("abs-subdiff", 1, 1, ev, value_dist=vdist)
    return OperatorEntry(
        name="abs-subdiff",
        forward=fwd,
        solution_set=Region.from_points([[0.0]]),
        description="subdifferential of the absolute value; prox is the soft threshold",
        inverse=SetValuedMap(
            "abs-subdiff-inverse", 1, 1, inv_ev,
            window_required=True, value_dist=inv_vdist,
        ),
        prox=ProxOracle(shrink, note="soft threshold, all gamma > 0"),
        subgrad=fwd,
        f=lambda x: abs(float(x[0])),
        monotone=True,
        inf_f=0.0,
    )


# --- quad: f(x) = x^2 / 2, A(x) = x (1-d identity gradient) -------------------

def _identity(X, window):
    return _column(X[:, 0])


def _quad() -> OperatorEntry:
    fwd = SetValuedMap("quad", 1, 1, _identity)
    return OperatorEntry(
        name="quad",
        forward=fwd,
        solution_set=Region.from_points([[0.0]]),
        description="gradient map of x^2/2 with a linear resolvent",
        inverse=SetValuedMap("quad-inverse", 1, 1, _identity),
        prox=ProxOracle(lambda gamma, y: np.asarray(y, dtype=float) / (1.0 + gamma)),
        subgrad=fwd,
        grad_inverse=SetValuedMap("quad-grad-inverse", 1, 1, _identity),
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

    def ev(X, window):
        return X @ Q.T - b, np.arange(X.shape[0])

    def inv_ev(Y, window):
        # a stacked solve, one 2x2 system per row: one solve with all rows as
        # right-hand sides rounds differently in the last bit
        n = Y.shape[0]
        return np.linalg.solve(np.broadcast_to(Q, (n, 2, 2)), (Y + b)[..., None])[..., 0], np.arange(n)

    def prox_rule(gamma, y):
        return np.linalg.solve(np.eye(2) + gamma * Q, np.asarray(y, dtype=float) + gamma * b)

    fwd = SetValuedMap("quad2", 2, 2, ev)
    fval = lambda x: float(0.5 * x @ Q @ x - b @ x)
    return OperatorEntry(
        name="quad2",
        forward=fwd,
        solution_set=Region.from_points([_QUAD2_SOL]),
        description="two-dimensional SPD quadratic",
        inverse=SetValuedMap("quad2-inverse", 2, 2, inv_ev),
        prox=ProxOracle(prox_rule),
        subgrad=fwd,
        grad_inverse=SetValuedMap("quad2-grad-inverse", 2, 2, inv_ev),
        f=fval,
        grad=lambda x: Q @ x - b,
        jac=lambda x: Q.copy(),
        quad_form=(Q, b),
        monotone=True,
        inf_f=float(-0.5 * _QUAD2_B @ _QUAD2_SOL),
    )


# --- linear-neg: A(x) = -2x (not monotone) ------------------------------------

def _linear_neg() -> OperatorEntry:
    def ev(X, window):
        return _column(-2.0 * X[:, 0])

    def prox_rule(gamma, y):
        return np.asarray(y, dtype=float) / (1.0 - 2.0 * gamma)

    fwd = SetValuedMap("linear-neg", 1, 1, ev)
    return OperatorEntry(
        name="linear-neg",
        forward=fwd,
        solution_set=Region.from_points([[0.0]]),
        description="nonmonotone linear map; resolvent single-valued away from gamma = 1/2",
        inverse=SetValuedMap("linear-neg-inverse", 1, 1, lambda Y, w: _column(-0.5 * Y[:, 0])),
        prox=ProxOracle(
            prox_rule,
            valid_gamma=lambda g: g > 0 and abs(g - 0.5) > 1e-12,
            note="single-valued for gamma != 1/2",
        ),
        subgrad=fwd,
        f=lambda x: -float(x[0]) ** 2,
        grad=lambda x: np.array([-2.0 * float(x[0])]),
        jac=lambda x: np.array([[-2.0]]),
        monotone=False,
    )


# --- dc-quad: g = x^2/2, h = x^2/4, f = g - h = x^2/4 --------------------------

def _dc_quad() -> OperatorEntry:
    def ev(X, window):
        return _column(0.5 * X[:, 0])

    def inv_ev(Y, window):
        return _column(2.0 * Y[:, 0])

    fwd = SetValuedMap("dc-quad", 1, 1, ev)
    return OperatorEntry(
        name="dc-quad",
        forward=fwd,
        solution_set=Region.from_points([[0.0]]),
        description="difference of two quadratics",
        inverse=SetValuedMap("dc-quad-inverse", 1, 1, inv_ev),
        prox=ProxOracle(lambda gamma, y: np.asarray(y, dtype=float) / (1.0 + 0.5 * gamma)),
        subgrad=fwd,
        grad_inverse=SetValuedMap("dc-quad-grad-inverse", 1, 1, inv_ev),
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
