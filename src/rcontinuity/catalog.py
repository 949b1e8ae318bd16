"""Operator catalog: closed-form mappings with known solution sets.

Each entry hand-codes its forward values, inverse, subgradients, resolvent,
and calculus data.  No symbolic or automatic differentiation happens here;
if a formula is not registered, the corresponding oracle is simply absent.

Map evaluators are row-wise (see :mod:`rcontinuity.setmap`): each takes all
rows at once and returns its branches as ``(values, rows)`` parts, which
``SetValuedMap.eval_rows`` orders by row.  The arithmetic is the per-point
arithmetic, element by element, so every value is the one a per-point
formula gives; where numpy rounds differently from Python's scalar ``**``
and ``math.log``, the scalar functions are applied per element.

Each 1-d closed form of ``flat-exp``, ``square``, ``double-well`` and the
linear maps is written once, as a function of one coordinate that gives the
same bits on a Python float and on a numpy column.  Two adapters derive the
rest from it: :func:`_lift`, the column lift, makes the single-valued
row-wise map (``forward``, ``subgrad``), and :func:`_scalar` makes the ``f``,
``grad`` and ``jac`` oracles, each a :class:`~rcontinuity.setmap.ScalarForm`
that carries the form itself (the qpower subproblem's view) and its column
(the grids' view).  :func:`_pow` is the one place that applies
Python's ``**``.  The three functions are made by :func:`_smooth`, and the
linear maps ``quad``, ``dc-quad`` and ``linear-neg`` by :func:`_linear`.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np
# np.linalg.solve's LAPACK gufunc, which the quad2 resolvent calls per step without
# solve's costlier argument handling, for the same bits.  I + γQ is SPD for γ > 0, so
# solve's singular-matrix error cannot occur; a successful solve clears the FP flags.
from numpy.linalg import _umath_linalg

from .geometry import Region
from .setmap import DcSplit, OperatorEntry, ProxOracle, RowForm, ScalarForm, SetValuedMap

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


def _each(values: np.ndarray, rows: np.ndarray):
    """The same values for every row in ``rows``, as a branch part."""
    return np.tile(values, rows.size), np.repeat(rows, values.size)


def _pow(v, exponent: float):
    """Python's float ``**`` on a float, and per element on an array (numpy's
    power rounds differently), with the IEEE limit where ``**`` overflows."""
    if type(v) is not float:
        return np.array([_pow(t, exponent) for t in v.tolist()], dtype=float)
    try:
        return v ** exponent
    except OverflowError:  # Python raises where IEEE arithmetic gives +-inf
        with np.errstate(over="ignore"):
            return float(np.power(v, exponent))


def _divide(c: float) -> ScalarForm:
    """The 1-d linear resolvent ``y -> y / c``, ``c`` computed once per γ."""
    return ScalarForm(lambda t: t / c, (1,))


def _lift(name: str, form) -> SetValuedMap:
    """The column lift: the single-valued map ``x -> {form(x[0])}``, row-wise."""
    column = ScalarForm(form).rows
    return SetValuedMap(name, 1, 1, lambda X, window: (column(X), np.arange(X.shape[0])))


def _scalar(f, grad) -> dict:
    """The ``f``, ``grad`` and ``jac`` oracles of a 1-d entry from its closed
    forms ``f`` and ``grad``."""
    return {"f": ScalarForm(f), "grad": ScalarForm(grad, (1,)), "jac": ScalarForm(grad, (1, 1))}


def _smooth(name: str, f, grad, inverse, zeros, description: str, **extra) -> OperatorEntry:
    """A 1-d function ``f >= 0`` vanishing exactly on ``zeros``: the map
    ``x -> {f(x)}`` with ``inverse`` as its row-wise inverse evaluator, the
    derivative ``grad`` as ``subgrad``, and the scalar view of both."""
    return OperatorEntry(
        name=name,
        forward=_lift(name, f),
        solution_set=Region(zeros),
        description=description,
        inverse=SetValuedMap(f"{name}-inverse", 1, 1, inverse),
        subgrad=_lift(f"{name}-grad", grad),
        **_scalar(f, grad),
        inf_f=0.0,
        **extra,
    )


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

    def vdist(X, Y):
        # min(|w - v|, |w - 1/v|), Python's min; at v = 0, 1/v is +-inf and
        # the minimum is |w|, the distance to A(0) = {0}
        v, w = X[:, 0], Y[:, 0]
        with np.errstate(divide="ignore", over="ignore"):
            near, far = np.abs(w - v), np.abs(w - 1.0 / v)
        return np.where(far < near, far, near)

    return OperatorEntry(
        name="rm1",
        forward=SetValuedMap("rm1", 1, 1, ev, window_required=True, value_dist=vdist),
        solution_set=Region([[0.0]]),
        description="window-restricted Lipschitz behavior, unbounded without a window",
        monotone=False,
    )


# --- flat-exp: f(x) = exp(-1/x^2), f(0) = 0 ----------------------------------

def _flat_exp_f(v):
    # exp(-1/v^2), and its limit 0 where v * v is 0 (v = 0, or its square
    # underflows): there the divisor is 1 (vv + True) and the factor 0
    vv = v * v
    return np.exp(-1.0 / (vv + (vv == 0.0))) * (vv != 0.0)


def _flat_exp_grad(v):
    # f(v) / v ** 3 tends to 0; where v ** 3 is 0 (v = 0, or its cube
    # underflows) f(v) is 0 as well, so dividing by 1 there gives that limit
    cube = _pow(v, 3)
    return 2.0 * _flat_exp_f(v) / (cube + (cube == 0.0))


def _flat_exp() -> OperatorEntry:
    def inv_ev(Y, window):
        w = Y[:, 0]
        zero = np.flatnonzero(w == 0.0)
        inside = np.flatnonzero((0.0 < w) & (w < 1.0))
        r = np.sqrt(-1.0 / np.array([math.log(t) for t in w[inside].tolist()], dtype=float))
        return _branches((np.zeros(zero.size), zero), (-r, inside), (r, inside))

    return _smooth("flat-exp", _flat_exp_f, _flat_exp_grad, inv_ev, [[0.0]],
                   "smooth non-analytic function, flat to all orders at 0")


# --- square: f(x) = x^2 -------------------------------------------------------

def _square() -> OperatorEntry:
    def inv_ev(Y, window):
        w = Y[:, 0]
        zero = np.flatnonzero(w == 0.0)
        pos = np.flatnonzero(w > 0.0)
        r = np.sqrt(w[pos])
        return _branches((np.zeros(zero.size), zero), (-r, pos), (r, pos))

    return _smooth("square", lambda v: _pow(v, 2), lambda v: 2.0 * v, inv_ev, [[0.0]],
                   "scalar quadratic equation map",
                   grad_inverse=_lift("square-grad-inverse", lambda w: w / 2.0))


# --- double-well: f(x) = x^2 (x-1)^2, S = {0, 1} ------------------------------

def _dw_f(v):
    return _pow(v * (v - 1.0), 2)


def _dw_grad(v):
    return 2.0 * v * (v - 1.0) * (2.0 * v - 1.0)


def _double_well() -> OperatorEntry:
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

    return _smooth("double-well", _dw_f, _dw_grad, inv_ev, [[0.0], [1.0]], "quartic with two zeros")


# --- abs-subdiff: A(x) = subdifferential of |x| -------------------------------

def _abs_subdiff() -> OperatorEntry:
    def ev(X, window):
        v = X[:, 0]
        pos, neg, zero = np.flatnonzero(v > 0.0), np.flatnonzero(v < 0.0), np.flatnonzero(v == 0.0)
        return _branches((np.ones(pos.size), pos), (np.full(neg.size, -1.0), neg),
                         _each(_interval(*_window_interval(window, -1.0, 1.0)), zero))

    def vdist(X, Y):
        v, w = X[:, 0], Y[:, 0]
        gap = np.abs(w) - 1.0  # to [-1, 1], Python's max(gap, 0.0)
        return np.select([v > 0.0, v < 0.0], [np.abs(w - 1.0), np.abs(w + 1.0)], np.where(0.0 > gap, 0.0, gap))

    def inv_ev(Y, window):
        w = Y[:, 0]
        inside = np.flatnonzero(np.abs(w) < 1.0)
        up = _interval(*_window_interval(window, 0.0, math.inf))
        down = _interval(*_window_interval(window, -math.inf, 0.0))
        return _branches((np.zeros(inside.size), inside),
                         _each(up, np.flatnonzero(w == 1.0)), _each(down, np.flatnonzero(w == -1.0)))

    def inv_vdist(Y, X):
        w, v = Y[:, 0], X[:, 0]
        # to [0, inf) at w = 1, (-inf, 0] at w = -1: Python's max(-v, 0.0), max(v, 0.0)
        edge = np.where(w == 1.0, -v, v)
        return np.select([np.abs(w) > 1.0, np.abs(w) < 1.0], [np.inf, np.abs(v)], np.where(0.0 > edge, 0.0, edge))

    def shrink(gamma):
        return ScalarForm(lambda v: math.copysign(max(abs(v) - gamma, 0.0), v), (1,))

    fwd = SetValuedMap("abs-subdiff", 1, 1, ev, value_dist=vdist)
    return OperatorEntry(
        name="abs-subdiff",
        forward=fwd,
        solution_set=Region([[0.0]]),
        description="subdifferential of the absolute value; prox is the soft threshold",
        inverse=SetValuedMap(
            "abs-subdiff-inverse", 1, 1, inv_ev,
            window_required=True, value_dist=inv_vdist,
        ),
        prox=ProxOracle(shrink, note="soft threshold, all gamma > 0"),
        subgrad=fwd,
        f=ScalarForm(abs),
        monotone=True,
        inf_f=0.0,
    )


# --- linear maps: A(x) = a x, the gradient of f(x) = a x^2 / 2 ---------------

def _linear(name: str, a: float, description: str, **extra) -> OperatorEntry:
    """``A(x) = a x`` with its inverse ``y / a``, resolvent ``y / (1 + γa)`` and
    Jacobian ``[[a]]``.  For ``a > 0`` it is monotone, the quadratic form
    ``(a, 0)`` with ``inf f = 0``, and its inverse is also ``grad_inverse``;
    for ``a < 0`` the resolvent is single-valued only for ``γ != -1/a``."""
    half = 0.5 * a

    def grad(v):
        return a * v

    fwd = _lift(name, grad)
    inv = _lift(f"{name}-inverse", lambda w: w / a)
    prox = ProxOracle(lambda gamma: _divide(1.0 + gamma * a))
    if a < 0:
        prox = ProxOracle(prox.resolvent, valid_gamma=lambda g: g > 0 and abs(g + 1.0 / a) > 1e-12,
                          note=f"single-valued for gamma != 1/{-a:g}")
    else:
        extra.update(grad_inverse=inv, quad_form=(np.array([[a]]), np.array([0.0])), inf_f=0.0)

    # a v^2 / 2, per value as _pow is; only where the square overflows and the
    # product does not is it (half * v) * v, whose last bit differs elsewhere
    def f(v):
        if type(v) is not float:
            return np.array([f(t) for t in v.tolist()], dtype=float)
        value = half * _pow(v, 2)
        return (half * v) * v if math.isinf(value) and math.isfinite(v) else value

    oracles = _scalar(f, grad)
    oracles["jac"] = lambda x: np.array([[a]])  # the Jacobian of A, constant
    return OperatorEntry(
        name=name,
        forward=fwd,
        solution_set=Region([[0.0]]),
        description=description,
        inverse=inv,
        prox=prox,
        subgrad=fwd,
        **oracles,
        monotone=a > 0,
        **extra,
    )


# --- quad2: 2-d SPD quadratic -------------------------------------------------

_QUAD2_Q = np.array([[2.0, 0.5], [0.5, 1.0]])
_QUAD2_B = np.array([1.0, -0.5])
_QUAD2_SOL = np.linalg.solve(_QUAD2_Q, _QUAD2_B)


def _quad2() -> OperatorEntry:
    Q, b = _QUAD2_Q, _QUAD2_B

    def ev(X, window):
        with np.errstate(over="ignore"):
            return X @ Q.T - b, np.arange(X.shape[0])

    def inv_ev(Y, window):
        # a stacked solve, one 2x2 system per row: one solve with all rows as
        # right-hand sides rounds differently in the last bit
        n = Y.shape[0]
        return np.linalg.solve(np.broadcast_to(Q, (n, 2, 2)), (Y + b)[..., None])[..., 0], np.arange(n)

    def prox_resolvent(gamma):
        M, shift = np.eye(2) + gamma * Q, gamma * b
        return lambda y: _umath_linalg.solve1(M, y + shift)  # float64 operands: its "dd->d" loop

    def f_rows(X):
        # 0.5 * x @ Q @ x - b @ x per row: a stacked matmul runs, per row, the
        # kernels of the single products (gemv, then dot), so its bits are theirs
        col = X[:, :, None]
        return ((0.5 * X)[:, None, :] @ Q @ col)[:, 0, 0] - (b @ col)[:, 0]

    fwd = SetValuedMap("quad2", 2, 2, ev)
    inv = SetValuedMap("quad2-inverse", 2, 2, inv_ev)
    return OperatorEntry(
        name="quad2",
        forward=fwd,
        solution_set=Region([_QUAD2_SOL]),
        description="two-dimensional SPD quadratic",
        inverse=inv,
        prox=ProxOracle(prox_resolvent),
        subgrad=fwd,
        grad_inverse=inv,
        f=RowForm(f_rows),
        grad=lambda x: Q @ x - b,
        jac=lambda x: Q.copy(),
        quad_form=(Q, b),
        monotone=True,
        inf_f=float(-0.5 * _QUAD2_B @ _QUAD2_SOL),
    )


_BUILDERS = {
    "rm1": _rm1,
    "flat-exp": _flat_exp,
    "square": _square,
    "double-well": _double_well,
    "abs-subdiff": _abs_subdiff,
    "quad": lambda: _linear("quad", 1.0, "gradient map of x^2/2 with a linear resolvent"),
    "quad2": _quad2,
    "linear-neg": lambda: _linear(
        "linear-neg", -2.0, "nonmonotone linear map; resolvent single-valued away from gamma = 1/2"),
    # g = x^2/2, h = x^2/4, f = g - h = x^2/4
    "dc-quad": lambda: _linear("dc-quad", 0.5, "difference of two quadratics", dc=DcSplit(
        g_prox=ProxOracle(lambda gamma: _divide(1.0 + gamma)),
        h_grad=ScalarForm(lambda t: 0.5 * t, (1,)),
    )),
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
                "oracles": {
                    "inverse": entry.inverse is not None,
                    "prox": entry.prox is not None,
                    "subgrad": entry.subgrad is not None,
                    "grad_inverse": entry.grad_inverse is not None,
                    "smooth": entry.f is not None and entry.grad is not None,
                    "jacobian": entry.jac is not None,
                    "dc": entry.dc is not None,
                    "quad_form": entry.quad_form is not None,
                },
            }
        )
    return out
