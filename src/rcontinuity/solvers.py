"""Iterative solvers with fully instrumented traces.

Every runner records the iterates, step norms, first-order witnesses with
their explicit iterate index, and the vanishing sequence value paired with
each witness, so the certificate checks never have to guess an index
convention.  Runs are strictly sequential; distinct runs are independent.

Each runner's contract is stated once: :data:`ALGORITHMS` is the table of
runners, parameters, witness conventions and oracles, and :func:`check` holds
every range, oracle and step-condition rule.  Each runner calls ``check``
first, and the CLI validates a config by calling the same ``check``.

The step loop is lean on purpose.  :func:`_iterate` is the one loop, and
each runner writes its step once, in operations that Python floats and numpy
arrays share; only the oracle views and the norm are picked, once per run:

- a 1-d run whose step oracles all have float views (:func:`_views`) carries
  a Python float and :func:`_norm1`, any other run an array and :func:`_norm`
  (numpy's ``norm`` fast path); both match that ``norm`` bit for bit where
  it is finite, as ``+ - * /`` and ``sqrt`` round correctly on both;
- resolvents are bound and the start point validated once per run; then the
  array loop checks only that each step keeps the iterate's shape, and the
  finiteness rule turns a non-finite step (an overflowing gradient, resolvent
  or DCA input) into divergence, without an overflow warning;
- a value the previous step computed at ``x_{k+1}`` (DCA's ``∇h``, the
  shifted-PPA ledger's ``||x_{k+1} - xbar||``) is reused when the driver
  passes that same object back as ``x_k``, never recomputed;
- the 1-d power-penalty subproblem runs on floats: :func:`_fminbound` is
  scipy's bounded Brent minimizer bit for bit, and only its polish calls scipy.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .geometry import _norm, _norm1, _norm_rows, as_point
from .setmap import OperatorEntry, ParamError, ScalarForm


def _views(entry: OperatorEntry, *oracles) -> Tuple[bool, list]:
    """``(scalar, views)``: in 1-d, where every oracle is a :class:`ScalarForm` of shape
    ``(1,)``, ``t -> float(form(t))`` (a form takes Python floats); else arrays."""
    if entry.dim_in == 1 and all(isinstance(o, ScalarForm) and o.shape == (1,) for o in oracles):
        return True, [lambda t, form=o.form: float(form(t)) for o in oracles]
    return False, [lambda x, o=o: np.asarray(o(x), dtype=float) for o in oracles]


@dataclass(frozen=True)
class StopRule:
    """Step-size stopping with an iteration cap and a divergence guard."""

    step_tol: float = 1e-10
    max_iter: int = 100_000
    divergence_guard: float = 1e12

    def __post_init__(self):
        if not self.max_iter >= 1:
            raise ParamError("max_iter", "max_iter must be >= 1")
        for name in ("step_tol", "divergence_guard"):
            if not getattr(self, name) > 0:
                raise ParamError(name, f"{name} must be positive")


@dataclass
class IterateTrace:
    """Per-iteration record of a solver run: ``(n, dim)`` iterates, ``(m, dim)``
    witness points and 1-d columns, coerced from raw sequences on construction.

    ``witness_indices[i]`` is the iterate index that ``witness_points[i]``
    belongs to; ``xi_values[i]`` is the vanishing-sequence value paired with
    that witness.  ``witness_side`` records whether witnesses are attached to
    the upcoming iterate ("next") or the current one ("current").
    """

    algorithm: str
    iterates: np.ndarray
    step_norms: np.ndarray
    stop: StopRule
    termination: str  # "tolerance" | "max_iter" | "divergence"
    f_values: Optional[np.ndarray] = None
    witness_indices: np.ndarray = field(default_factory=list)
    witness_points: np.ndarray = field(default_factory=list)
    xi_values: np.ndarray = field(default_factory=list)
    witness_side: Optional[str] = None  # "next" | "current"
    witness_map: Optional[str] = None  # "forward" | "subgrad"
    fejer_ledger: Optional[np.ndarray] = None
    witness_norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.iterates = np.asarray(self.iterates, dtype=float).reshape(len(self.iterates), -1)
        self.step_norms = np.asarray(self.step_norms, dtype=float)
        self.witness_indices = np.asarray(self.witness_indices, dtype=int)
        self.witness_points = np.asarray(self.witness_points, dtype=float).reshape(len(self.witness_points), self.dim)
        self.xi_values = np.asarray(self.xi_values, dtype=float)
        self.f_values = None if self.f_values is None else np.asarray(self.f_values, dtype=float)
        self.fejer_ledger = None if self.fejer_ledger is None else np.asarray(self.fejer_ledger, dtype=float)
        if not (np.isfinite(self.iterates).all() and np.isfinite(self.witness_points).all()):
            raise ValueError("iterate and witness coordinates must be finite")
        if len(self.step_norms) != len(self.iterates) - 1:
            raise ValueError("step_norms must be one shorter than iterates")
        if not (len(self.witness_indices) == len(self.witness_points) == len(self.xi_values)):
            raise ValueError("witness bookkeeping lists must run in parallel")
        if self.f_values is not None and len(self.f_values) != len(self.iterates):
            raise ValueError("f_values must align with iterates")
        self.witness_norms = _norm_rows(self.witness_points)

    def __len__(self) -> int:
        return len(self.iterates)

    @property
    def dim(self) -> int:
        return self.iterates.shape[1]

    @property
    def diverged(self) -> bool:
        return self.termination == "divergence"


def _iterate(entry: OperatorEntry, x0, stop: StopRule, step: Callable, algorithm: str,
             ledger: Optional[Callable] = None, scalar: bool = False) -> IterateTrace:
    """The loop every runner shares: ``x_{k+1}, w = step(x_k)``.

    ``x0`` is validated once.  The point is a Python float where ``scalar``,
    else an array, and then each step must return ``x_{k+1}`` in ``x_k``'s
    shape (else ``ValueError``); that is the one check per step.  ``x_{k+1}``
    is passed back to ``step`` as the same object, so a step may reuse what it
    computed there.  Each step records the iterate, its step norm Δ_k, and the
    witness ``w`` at index k+1 or k (the algorithm's ``witness_side``), paired
    with xi = Δ_k.  A step with a non-finite Δ_k is not recorded and ends the
    run as divergence; otherwise it stops on the divergence guard, then on the
    step tolerance, then on ``max_iter``.  ``ledger(x_k, x_{k+1}, Δ_k)``, when
    given, adds one value per step to the trace's ``fejer_ledger``.
    """
    x = as_point(x0, entry.dim_in)
    shape = x.shape
    x, norm = (float(x[0]), _norm1) if scalar else (x, _norm)
    guard, tol = stop.divergence_guard, stop.step_tol
    iterates = [x]
    steps: List[float] = []
    w_pts: list = []
    entries: Optional[List[float]] = None if ledger is None else []
    termination = "max_iter"
    # one scope per run: an overflow on the array path is a handled non-finite step, not a warning
    with np.errstate(over="ignore"):
        for _ in range(stop.max_iter):
            xn, w = step(x)
            if not scalar and xn.shape != shape:
                raise ValueError(f"{algorithm} step returned shape {xn.shape}, expected {shape}")
            delta = norm(xn - x)
            if not math.isfinite(delta):
                termination = "divergence"
                break
            if ledger is not None:
                entries.append(ledger(x, xn, delta))
            iterates.append(xn)
            steps.append(delta)
            w_pts.append(w)
            x = xn
            if norm(xn) > guard:
                termination = "divergence"
                break
            if delta <= tol:
                termination = "tolerance"
                break
        spec = ALGORITHMS[algorithm]
        first = 1 if spec.witness_side == "next" else 0
        iterates = np.array(iterates).reshape(len(iterates), -1)
        return IterateTrace(
            algorithm=algorithm,
            iterates=iterates,
            step_norms=steps,
            stop=stop,
            termination=termination,
            f_values=None if entry.f is None else entry.f_values(iterates),
            witness_indices=range(first, first + len(steps)),
            witness_points=w_pts,
            xi_values=steps,
            witness_side=spec.witness_side,
            witness_map=spec.witness_map,
            fejer_ledger=entries,
        )


def _proximal_step(entry: OperatorEntry, gamma: float):
    """``(scalar, step)``: the resolvent step ``x -> (J_{γA}(x), (x - J_{γA}(x)) / γ)``
    on the resolvent bound once, and the point type of its view."""
    scalar, (resolvent,) = _views(entry, entry.prox.bind(gamma))

    def step(x):
        xn = resolvent(x)
        return xn, (x - xn) / gamma

    return scalar, step


def run_ppa(entry: OperatorEntry, gamma: float, x0, stop: StopRule = StopRule()) -> IterateTrace:
    """Proximal point iteration ``x_{k+1} = J_{γA}(x_k)``.

    The witness at index k+1 is ``(x_k - x_{k+1}) / γ``, which lies in
    ``A(x_{k+1})`` by the resolvent identity; its paired vanishing value is
    the step norm just taken.
    """
    check("ppa", entry, gamma=gamma)
    scalar, step = _proximal_step(entry, gamma)
    return _iterate(entry, x0, stop, step, "ppa", scalar=scalar)


def run_gdm(entry: OperatorEntry, step: float, x0, stop: StopRule = StopRule()) -> IterateTrace:
    """Fixed-step gradient descent with gradient witnesses at the current point."""
    check("gdm", entry, step=step)
    scalar, (grad,) = _views(entry, entry.grad)
    step = float(step)  # so that a float x stays a Python float

    # not as_point: an overflow must reach _iterate, which ends the run as divergence
    def descend(x):
        g = grad(x)
        return x - step * g, g

    return _iterate(entry, x0, stop, descend, "gdm", scalar=scalar)


#: The constants of scipy's bounded Brent minimizer: ``sqrt(2.2e-16)`` and the
#: golden-section fraction ``(3 - sqrt(5)) / 2``, both correctly rounded; the
#: qpower subproblem's ``xatol``; and scipy's default ``maxiter``, the cap on
#: evaluations of the objective.
_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_XATOL = 1e-12
_MAXFUN = 500


def _unit(v: float) -> float:
    """scipy's ``np.sign(v) + (v == 0)``: -1.0 below 0, 1.0 at or above 0, NaN at NaN."""
    return -1.0 if v < 0.0 else 1.0 if v >= 0.0 else v


def _fminbound(func: Callable[[float], float], a: float, b: float) -> float:
    """The ``x`` of ``scipy.optimize.minimize_scalar(func, bounds=(a, b),
    method="bounded", options={"xatol": 1e-12})``, bit for bit: Brent's bounded
    minimizer (Brent 1973, ``fminbound``), a line-for-line port of scipy
    1.17.1's ``_minimize_scalar_bounded`` on Python floats.

    scipy's numpy scalars round as Python floats do; only their calls cost more.
    ``max(abs(rat), tol1)`` keeps ``np.maximum``'s NaN where ``rat`` is NaN
    (``tol1`` is NaN only once ``xf`` is, which ends the loop first), and
    :func:`_unit` is scipy's ``np.sign(v) + (v == 0)``.  ``func`` is evaluated
    at most ``_MAXFUN`` times.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("Optimization bounds must be finite scalars.")
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _unit(xm - xf)
            else:
                golden = True
        if golden:  # a golden-section step
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        x = xf + _unit(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return xf


def _qpower_subproblem(entry: OperatorEntry, gamma: float, q: float) -> Tuple[bool, Callable]:
    """``(scalar, c -> argmin f(x) + γ ||x - c||**q)``: closed form on arrays
    for quadratics with q = 2, bracketed scalar minimization in 1-d otherwise.

    The scalar minimization takes and returns Python floats: :func:`_fminbound`,
    then a stationarity polish where the entry has ``grad``.  ``f`` and ``grad`` are
    the closed forms of the entry's :class:`ScalarForm` oracles, else its
    oracles on a one-element array.  Only the polish's ``brentq`` needs ``scipy.optimize``,
    which is imported here, once per run."""
    if entry.quad_form is not None and q == 2.0:
        Q, b = np.atleast_2d(entry.quad_form[0]), np.atleast_1d(entry.quad_form[1])
        M, g2 = Q + 2.0 * gamma * np.eye(Q.shape[0]), 2.0 * gamma
        return False, lambda center: np.linalg.solve(M, b + g2 * center)
    from scipy.optimize import brentq

    gamma, q = float(gamma), float(q)  # so that the bracket and the penalty are Python floats
    f = entry.f.form if isinstance(entry.f, ScalarForm) else lambda t: entry.f(np.array([t]))
    grad = entry.grad.form if isinstance(entry.grad, ScalarForm) else (
        None if entry.grad is None else lambda t: entry.grad(np.array([t]))[0])

    def solve(c: float) -> float:
        if entry.inf_f is not None:
            span = ((f(c) - entry.inf_f) / gamma) ** (1.0 / q) + 1e-6
        else:
            span = 10.0 * (1.0 + abs(c))
        if not math.isfinite(span):  # f(c) overflowed: a non-finite step, which ends the run as divergence
            return span

        def objective(t: float) -> float:
            try:
                pen = abs(t - c) ** q
            except OverflowError:  # inf, as on the numpy scalars that scipy passed
                pen = math.inf
            return f(t) + gamma * pen

        t = float(_fminbound(objective, c - span, c + span))
        if grad is not None:
            t = _polish_stationarity(grad, gamma, q, c, t, span, brentq)
        return t

    return True, solve


def _polish_stationarity(grad, gamma: float, q: float, c: float, t: float, span: float, brentq) -> float:
    """Sharpen the bounded minimizer by bracketing the stationarity equation
    ``f'(t) + γ q |t - c|**(q-1) sign(t - c) = 0`` with ``brentq``; falls back
    to the unpolished point when no sign change brackets it.  ``grad`` is the
    scalar derivative ``t -> f'(t)``."""

    def slope(u: float) -> float:
        try:
            pen = gamma * q * abs(u - c) ** (q - 1.0) * math.copysign(1.0, u - c) if u != c else 0.0
        except OverflowError:  # +-inf, as the objective reads an overflowing penalty
            pen = math.copysign(math.inf, u - c)
        return float(grad(u)) + pen

    h = 1e-9 * (1.0 + abs(c))
    while h <= span:
        a, b = t - h, t + h
        fa, fb = slope(a), slope(b)
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if fa * fb < 0.0:
            return float(brentq(slope, a, b, xtol=1e-15, rtol=1e-15))
        h *= 8.0
    return t


def run_qpower_prox(
    entry: OperatorEntry, gamma: float, q: float, x0, stop: StopRule = StopRule()
) -> IterateTrace:
    """Power-penalty proximal iteration with exponent q.

    The stationarity witness at index k+1 is
    ``-γ q ||Δ||**(q-2) (x_{k+1} - x_k)``, of norm ``γ q Δ**(q-1)``; a zero
    step gives the zero witness.  A step whose witness overflows is returned
    as a non-finite step, which ends the run as divergence.
    """
    check("qpower", entry, gamma=gamma, q=q)
    scalar, subproblem = _qpower_subproblem(entry, gamma, q)
    norm, zero = (_norm1, 0.0) if scalar else (_norm, np.zeros(entry.dim_in))

    def step(x):
        xn = subproblem(x)
        delta = norm(xn - x)
        if not delta > 0:
            return xn, zero
        try:
            scale = -gamma * q * delta ** (q - 2.0)
        except OverflowError:
            scale = -math.inf
        if math.isinf(scale * delta):  # the witness norm overflows
            return x + math.inf, None
        return xn, scale * (xn - x)

    return _iterate(entry, x0, stop, step, "qpower", scalar=scalar)


def run_dca(entry: OperatorEntry, gamma: float, x0, stop: StopRule = StopRule()) -> IterateTrace:
    """Difference-of-convex iteration ``x_{k+1} = J_{γ∂g}(x_k + γ∇h(x_k))``.

    The witness at index k+1 is
    ``∇h(x_k) - ∇h(x_{k+1}) - (x_{k+1} - x_k)/γ``, a first-order residual of
    the combined objective at the new iterate.  ``∇h`` is evaluated once per
    iterate: step k's ``∇h(x_{k+1})`` is step k+1's ``∇h(x_k)``.
    """
    check("dca", entry, gamma=gamma)
    scalar, (resolvent, h_grad) = _views(entry, entry.dc.g_prox.bind(gamma), entry.dc.h_grad)
    gamma = float(gamma)  # so that a float x stays a Python float

    last_xn = last_hn = None  # the previous step's x_{k+1} and ∇h(x_{k+1})

    # not as_point: an overflow must reach _iterate, which ends the run as divergence
    def step(x):
        nonlocal last_xn, last_hn
        hx = last_hn if x is last_xn else h_grad(x)
        xn = resolvent(x + gamma * hx)
        last_xn, last_hn = xn, h_grad(xn)
        return xn, hx - last_hn - (xn - x) / gamma

    return _iterate(entry, x0, stop, step, "dca", scalar=scalar)


def run_shifted_ppa(
    entry: OperatorEntry,
    kappa: float,
    gamma: float,
    x0,
    stop: StopRule = StopRule(),
    step_condition: str = "derived",
) -> IterateTrace:
    """Proximal point iteration under a shifted-monotonicity assumption.

    The per-step ledger records
    ``||x_{k+1} - xbar||^2 - ||x_k - xbar||^2 + (1 - 2 kappa / gamma) Δ_k^2``
    for ``xbar`` the solution nearest ``x0``; it is nonpositive exactly when
    the contraction argument goes through.  ``step_condition`` names the range
    of ``gamma`` that :func:`check` admits.
    """
    check("shifted-ppa", entry, kappa=kappa, gamma=gamma, step_condition=step_condition)
    scalar, step = _proximal_step(entry, gamma)
    xb = entry.solution_set.project(x0)
    norm, xb = (_norm1, float(xb[0])) if scalar else (_norm, xb)
    coeff = 1.0 - 2.0 * kappa / gamma

    last_xn = last_dist = None  # the previous step's x_{k+1} and ||x_{k+1} - xbar||

    # Python's float squares: the same bits as numpy's norm(...) ** 2, but
    # OverflowError past 1.3e154.  Where a square or the entry overflows, the
    # entry is recomputed scaled by the largest of the three norms, so it is
    # finite wherever its true value is.
    def ledger(x, xn, delta):
        nonlocal last_xn, last_dist
        b = last_dist if x is last_xn else norm(x - xb)
        a = last_dist = norm(xn - xb)
        last_xn = xn
        try:
            value = a ** 2 - b ** 2 + coeff * delta ** 2
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            m = max(a, b, delta)
            value = m * (m * ((a / m) ** 2 - (b / m) ** 2 + coeff * (delta / m) ** 2))
        return value

    return _iterate(entry, x0, stop, step, "shifted-ppa", ledger, scalar)


class _Algorithm(NamedTuple):
    runner: str  # the function of this module that runs it, looked up by name at run time
    params: Dict[str, inspect.Parameter]  # the runner's own, besides entry, x0 and stop
    witness_side: str  # "next" | "current"
    witness_map: str  # "forward" | "subgrad"
    oracle: Optional[str]  # the entry field it cannot run without


def _algorithm(run, witness_side: str, witness_map: str, oracle: Optional[str] = None) -> _Algorithm:
    params = {k: p for k, p in inspect.signature(run).parameters.items() if k not in ("entry", "x0", "stop")}
    return _Algorithm(run.__name__, params, witness_side, witness_map, oracle)


#: Every algorithm by name: its runner, parameters, witness convention and oracle.
ALGORITHMS = {
    "ppa": _algorithm(run_ppa, "next", "forward", "prox"),
    "gdm": _algorithm(run_gdm, "current", "subgrad", "grad"),
    "qpower": _algorithm(run_qpower_prox, "next", "subgrad"),
    "dca": _algorithm(run_dca, "next", "subgrad", "dc"),
    "shifted-ppa": _algorithm(run_shifted_ppa, "next", "forward", "prox"),
}


def check(name: str, entry: OperatorEntry, **params) -> None:
    """Raise unless algorithm ``name`` can run on ``entry`` with ``params``,
    its runner's parameters: ``MissingOracleError`` for an oracle the entry
    lacks, else ``ParamError`` naming the first parameter out of range.

    ``shifted-ppa``'s ``"derived"`` step condition is the range where its
    ledger inequality is valid; under ``"reciprocal"`` the ledger is still
    recorded, so a divergence there shows in the diagnostics.
    """
    spec = ALGORITHMS[name]
    if spec.oracle is not None:
        entry.need(spec.oracle)
    for key, bound in (("gamma", 0), ("step", 0), ("kappa", 0), ("q", 1)):
        if key in params and not params[key] > bound:
            raise ParamError(key, f"{key} must exceed {bound}")
    gamma = params.get("gamma")
    resolvent = entry.prox if spec.oracle == "prox" else entry.dc.g_prox if spec.oracle == "dc" else None
    if resolvent is not None and not resolvent.valid_gamma(gamma):
        raise ParamError("gamma", f"gamma={gamma} outside the resolvent's range ({resolvent.note})")
    if name == "qpower" and (entry.quad_form is None or params["q"] != 2.0):  # no closed form
        if entry.dim_in != 1:
            raise ParamError("q" if entry.quad_form is not None else "name",
                             "power-penalty subproblems are 1-d only, except on quadratics with q = 2")
        entry.need("f")
    if name == "shifted-ppa":
        kappa, rule = params["kappa"], params["step_condition"]
        if rule not in ("derived", "reciprocal"):
            raise ParamError("step_condition", "step_condition must be 'derived' or 'reciprocal'")
        if rule == "derived" and not gamma > 2.0 * kappa:
            raise ParamError("gamma", "derived step condition requires gamma > 2 * kappa")
        if rule == "reciprocal" and not gamma < 1.0 / (2.0 * kappa):
            raise ParamError("gamma", "reciprocal step condition requires gamma < 1 / (2 * kappa)")


def make_synthetic_trace(
    iterates: List,
    witnesses: List[tuple],
    xi_values: List[float],
    f_values: Optional[List[float]] = None,
    stop: StopRule = StopRule(step_tol=1e-2),
    algorithm: str = "synthetic",
) -> IterateTrace:
    """Assemble a trace from raw sequences, mainly for tests and examples."""
    xs = np.asarray(iterates, dtype=float).reshape(len(iterates), -1)
    return IterateTrace(
        algorithm=algorithm,
        iterates=xs,
        step_norms=_norm_rows(np.diff(xs, axis=0)),
        stop=stop,
        termination="max_iter",
        f_values=f_values,
        witness_indices=[k for k, _ in witnesses],
        witness_points=[w for _, w in witnesses],
        xi_values=xi_values,
    )
