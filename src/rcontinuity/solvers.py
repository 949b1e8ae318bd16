"""Iterative solvers with fully instrumented traces.

Every runner records the iterates, step norms, first-order witnesses with
their explicit iterate index, and the vanishing sequence value paired with
each witness, so the certificate checks never have to guess an index
convention.  Runs are strictly sequential; distinct runs are independent.

Each runner's contract is stated once: :data:`ALGORITHMS` is the table of
runners, parameters, witness conventions and oracles, and :func:`check` holds
every range (a resolvent's γ range by ``ProxOracle.bind``), oracle and step-condition
rule.  Each runner calls ``check`` first, and the CLI validates a config by calling it.

The step loop is lean on purpose.  :func:`_iterate` is the one loop, and
it does only the work that picks the next step: the step, its norm, the
finiteness rule, the divergence guard and the tolerance.  Each runner writes
its step once, as a pure map ``x -> x_next`` in operations that Python floats
and numpy arrays share; only the oracle views and the norm are picked, once
per run:

- a 1-d run whose step oracles all have float views (:func:`_views`) carries
  a Python float and :func:`_norm1`, any other run an array and :func:`_norm`
  (numpy's ``norm`` fast path); both match that ``norm`` bit for bit where
  it is finite, as ``+ - * /`` and ``sqrt`` round correctly on both;
- resolvents are bound and the start point validated once per run; then the
  array loop checks only that each step keeps the iterate's shape, and the
  finiteness rule turns a non-finite step (an overflowing gradient, resolvent
  or DCA input) into divergence, without an overflow warning;
- what a trace only records is built once after the loop from the stacked
  iterates and step norms: every runner's witnesses (with oracles taken by
  :func:`~rcontinuity.setmap.oracle_rows`) and the shifted-PPA Fejér ledger,
  with the bits the per-step forms had;
- the 1-d power-penalty subproblem runs on floats and imports nothing:
  :func:`_fminbound` and :func:`_brentq` are scipy's bounded Brent minimizer
  and Brent zero finder, bit for bit.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .geometry import _norm, _norm1, _norm_rows, _pow, as_point
from .setmap import OperatorEntry, ParamError, ScalarForm, StopRule, oracle_rows


def _views(entry: OperatorEntry, *oracles) -> Tuple[bool, list]:
    """``(scalar, views)``: in 1-d, where every oracle is a :class:`ScalarForm` of shape
    ``(1,)``, ``t -> float(form(t))`` (a form takes Python floats); else arrays."""
    if entry.dim_in == 1 and all(isinstance(o, ScalarForm) and o.shape == (1,) for o in oracles):
        return True, [lambda t, form=o.form: float(form(t)) for o in oracles]
    return False, [lambda x, o=o: np.asarray(o(x), dtype=float) for o in oracles]


@dataclass(eq=False, repr=False)
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
    fejer_ledger: Optional[np.ndarray] = None
    witness_norms: np.ndarray = field(init=False)

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
             witnesses: Callable, scalar: bool = False) -> IterateTrace:
    """The loop every runner shares: ``x_{k+1} = step(x_k)``.

    ``x0`` is validated once.  The point is a Python float where ``scalar``,
    else an array, and then each step must return ``x_{k+1}`` in ``x_k``'s
    shape (else ``ValueError``); that is the one check per step.  Each step
    records the iterate and its step norm Δ_k.  A step with a non-finite Δ_k
    is not recorded and ends the run as divergence; otherwise it stops on the
    divergence guard, then on the step tolerance, then on ``max_iter``.  After
    the loop, ``witnesses(X, steps)`` builds the ``len(X) - 1`` witnesses from
    the stacked iterates ``X`` and the step norms, the k-th at index k+1 or k
    (the algorithm's ``witness_side``) and paired with xi = Δ_k.
    """
    x = as_point(x0, entry.dim_in)
    shape = x.shape
    x, norm = (float(x[0]), _norm1) if scalar else (x, _norm)
    guard, tol = stop.divergence_guard, stop.step_tol
    iterates = [x]
    steps: List[float] = []
    termination = "max_iter"
    # one scope per run: an overflow on the array path is a handled non-finite step, not a warning
    with np.errstate(over="ignore"):
        for _ in range(stop.max_iter):
            xn = step(x)
            if not scalar and xn.shape != shape:
                raise ValueError(f"{algorithm} step returned shape {xn.shape}, expected {shape}")
            delta = norm(xn - x)
            if not math.isfinite(delta):
                termination = "divergence"
                break
            iterates.append(xn)
            steps.append(delta)
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
            f_values=None if entry.f is None else oracle_rows(entry.f, iterates),
            witness_indices=range(first, first + len(steps)),
            witness_points=witnesses(iterates, steps),
            xi_values=steps,
            witness_side=spec.witness_side,
        )


def _proximal(entry: OperatorEntry, gamma: float) -> Tuple[bool, Callable, Callable]:
    """``(scalar, resolvent, witnesses)``: the step ``x -> J_{γA}(x)`` on the
    resolvent bound once, the point type of its view, and the witnesses
    ``(x_k - x_{k+1}) / γ`` of the stacked iterates, which have the per-step
    form's bits (elementwise ``-`` and ``/`` round alike on floats and arrays)."""
    scalar, (resolvent,) = _views(entry, entry.prox.bind(gamma))
    return scalar, resolvent, lambda X, _: (X[:-1] - X[1:]) / gamma


def run_ppa(entry: OperatorEntry, gamma: float, x0, stop: StopRule = StopRule()) -> IterateTrace:
    """Proximal point iteration ``x_{k+1} = J_{γA}(x_k)``.

    The witness at index k+1 is ``(x_k - x_{k+1}) / γ``, which lies in
    ``A(x_{k+1})`` by the resolvent identity; its paired vanishing value is
    the step norm just taken.
    """
    check("ppa", entry, gamma=gamma)
    scalar, resolvent, witnesses = _proximal(entry, gamma)
    return _iterate(entry, x0, stop, resolvent, "ppa", witnesses, scalar)


def run_gdm(entry: OperatorEntry, step: float, x0, stop: StopRule = StopRule()) -> IterateTrace:
    """Fixed-step gradient descent with gradient witnesses at the current point."""
    check("gdm", entry, step=step)
    scalar, (grad,) = _views(entry, entry.grad)
    step = float(step)  # so that a float x stays a Python float
    # not as_point: an overflow must reach _iterate, which ends the run as divergence
    return _iterate(entry, x0, stop, lambda x: x - step * grad(x), "gdm",
                    lambda X, _: oracle_rows(entry.grad, X[:-1]), scalar)


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


#: The polish's ``brentq`` settings: ``xtol = rtol`` and scipy's default ``maxiter``.
_ROOT_TOL = 1e-15
_ROOT_MAXITER = 100


def _brentq(func: Callable[[float], float], xa: float, xb: float, fa: float, fb: float) -> Tuple[float, bool]:
    """``(x, converged)``: the root of ``func`` bracketed by ``[xa, xb]`` that
    ``scipy.optimize.brentq(func, xa, xb, xtol=1e-15, rtol=1e-15)`` returns, bit
    for bit, or, unconverged after ``_ROOT_MAXITER`` iterations, the last
    iterate (where scipy raises ``RuntimeError``).  A line-for-line port of
    scipy 1.17.1's C ``brentq`` (Brent 1973, ch. 3-4) on Python floats, except
    that the caller passes the end values ``fa = func(xa)`` and ``fb = func(xb)``,
    which scipy evaluates first.

    As in C, signs are compared by sign bit, ``MIN(a, b)`` is
    ``a if a < b else b``, and a division by zero gives a step that fails the
    short-step test (C's ``inf`` or ``NaN``), so it bisects.  Like scipy's
    wrapper, a NaN value (an end value passed in among them) raises
    ``ValueError``, as does a bracket without a sign change."""

    def value(x: float, fx: float) -> float:
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xa, fa), value(xb, fb)
    if fpre == 0.0:
        return xpre, True
    if fcur == 0.0:
        return xcur, True
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_ROOT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_ROOT_TOL + _ROOT_TOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):  # a good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur, func(xcur))
    return xcur, False


def _closed_form(entry: OperatorEntry, q: float) -> bool:
    """Whether the power-penalty subproblem has its closed form: a quadratic entry and q = 2."""
    return entry.quad_form is not None and q == 2.0


def _qpower_subproblem(entry: OperatorEntry, gamma: float, q: float) -> Tuple[bool, Callable]:
    """``(scalar, c -> argmin f(x) + γ ||x - c||**q)``: closed form on arrays
    for quadratics with q = 2, bracketed scalar minimization in 1-d otherwise.

    The scalar minimization takes and returns Python floats: :func:`_fminbound`,
    then a stationarity polish where the entry has ``grad``.  ``f`` and ``grad`` are
    the closed forms of the entry's :class:`ScalarForm` oracles, else its
    oracles on a one-element array."""
    if _closed_form(entry, q):
        Q, b = np.atleast_2d(entry.quad_form[0]), np.atleast_1d(entry.quad_form[1])
        M, g2 = Q + 2.0 * gamma * np.eye(Q.shape[0]), 2.0 * gamma
        return False, lambda center: np.linalg.solve(M, b + g2 * center)
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
            t = _polish_stationarity(grad, gamma, q, c, t, span)
        return t

    return True, solve


def _polish_stationarity(grad, gamma: float, q: float, c: float, t: float, span: float) -> float:
    """Sharpen the bounded minimizer by bracketing the stationarity equation
    ``f'(t) + γ q |t - c|**(q-1) sign(t - c) = 0`` with :func:`_brentq`; falls
    back to the unpolished point when no sign change brackets it or the root
    finder does not converge.  ``grad`` is the scalar derivative ``t -> f'(t)``."""

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
            root, converged = _brentq(slope, a, b, fa, fb)
            return root if converged else t
        h *= 8.0
    return t


def run_qpower_prox(
    entry: OperatorEntry, gamma: float, q: float, x0, stop: StopRule = StopRule()
) -> IterateTrace:
    """Power-penalty proximal iteration with exponent q.

    The stationarity witness at index k+1 is
    ``-γ q ||Δ||**(q-2) (x_{k+1} - x_k)``, of norm ``γ q Δ**(q-1)``; a zero
    step gives the zero witness ``+0.0``.  A step whose witness norm
    overflows is returned as a non-finite step, which ends the run as
    divergence.
    """
    check("qpower", entry, gamma=gamma, q=q)
    scalar, subproblem = _qpower_subproblem(entry, gamma, q)
    norm = _norm1 if scalar else _norm

    def scale(delta: float) -> float:
        """The witness's factor ``-γ q Δ**(q-2)`` of a step of norm Δ > 0, ``-inf`` past the float range."""
        try:
            return -gamma * q * delta ** (q - 2.0)
        except OverflowError:
            return -math.inf

    def step(x):
        xn = subproblem(x)
        delta = norm(xn - x)
        return x + math.inf if delta > 0 and math.isinf(scale(delta) * delta) else xn

    def witnesses(X, steps):
        moved = np.array(steps)[:, None] > 0  # a step whose norm reads 0 has the witness +0.0
        scales = np.array([scale(d) if d > 0 else 0.0 for d in steps])[:, None]
        return np.where(moved, scales * (X[1:] - X[:-1]), 0.0)

    return _iterate(entry, x0, stop, step, "qpower", witnesses, scalar)


def run_dca(entry: OperatorEntry, gamma: float, x0, stop: StopRule = StopRule()) -> IterateTrace:
    """Difference-of-convex iteration ``x_{k+1} = J_{γ∂g}(x_k + γ∇h(x_k))``.

    The witness at index k+1 is
    ``∇h(x_k) - ∇h(x_{k+1}) - (x_{k+1} - x_k)/γ``, a first-order residual of
    the combined objective at the new iterate.  The loop evaluates ``∇h`` once
    per step, at ``x_k``; the witnesses take it once more, at every iterate
    in one call after the loop.
    """
    check("dca", entry, gamma=gamma)
    scalar, (resolvent, h_grad) = _views(entry, entry.dc.g_prox.bind(gamma), entry.dc.h_grad)
    gamma = float(gamma)  # so that a float x stays a Python float

    def witnesses(X, _):
        H = oracle_rows(entry.dc.h_grad, X)
        return H[:-1] - H[1:] - (X[1:] - X[:-1]) / gamma

    # not as_point: an overflow must reach _iterate, which ends the run as divergence
    return _iterate(entry, x0, stop, lambda x: resolvent(x + gamma * h_grad(x)), "dca", witnesses, scalar)


def run_shifted_ppa(
    entry: OperatorEntry,
    kappa: float,
    gamma: float,
    x0,
    stop: StopRule = StopRule(),
    step_condition: str = "derived",
) -> IterateTrace:
    """Proximal point iteration under a shifted-monotonicity assumption.

    The ledger records, per step,
    ``||x_{k+1} - xbar||^2 - ||x_k - xbar||^2 + (1 - 2 kappa / gamma) Δ_k^2``
    for ``xbar`` the solution nearest ``x0``; it is nonpositive exactly when
    the contraction argument goes through.  It is built once after the loop,
    from the distances of the stacked iterates to ``xbar`` (:func:`_norm_rows`,
    the per-step norm's bits).  ``step_condition`` names the range
    of ``gamma`` that :func:`check` admits.
    """
    check("shifted-ppa", entry, kappa=kappa, gamma=gamma, step_condition=step_condition)
    scalar, resolvent, witnesses = _proximal(entry, gamma)
    xb = entry.solution_set.project(x0)
    trace = _iterate(entry, x0, stop, resolvent, "shifted-ppa", witnesses, scalar)
    with np.errstate(over="ignore"):  # a distance past the float range reads inf, as the per-step norm did
        dist = _norm_rows(trace.iterates - xb)
    trace.fejer_ledger = _fejer_ledger(dist, trace.step_norms, 1.0 - 2.0 * kappa / gamma)
    return trace


def _fejer_ledger(dist: np.ndarray, steps: np.ndarray, coeff: float) -> np.ndarray:
    """``a**2 - b**2 + coeff * Δ_k**2`` per step, for ``a, b`` the distances
    ``||x_{k+1} - xbar||`` and ``||x_k - xbar||`` in ``dist`` and ``Δ_k`` in ``steps``.

    The squares are Python's ``**`` on floats, by :func:`_pow` (numpy's square
    rounds some of them differently): inf past 1.3e154.  Where a square or the
    entry is not finite, the entry is recomputed on floats, scaled by the
    largest of the three norms, so it is finite wherever its true value is."""
    sq = _pow(dist, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows here is recomputed below
        ledger = sq[1:] - sq[:-1] + coeff * _pow(steps, 2)
    for i in np.flatnonzero(~np.isfinite(ledger)).tolist():
        a, b, delta = float(dist[i + 1]), float(dist[i]), float(steps[i])
        m = max(a, b, delta)
        ledger[i] = m * (m * ((a / m) ** 2 - (b / m) ** 2 + coeff * (delta / m) ** 2))
    return ledger


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
    if spec.oracle in ("prox", "dc"):
        (entry.prox if spec.oracle == "prox" else entry.dc.g_prox).bind(gamma)
    if name == "qpower" and not _closed_form(entry, params["q"]):
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


_SYNTHETIC = "synthetic"


def make_synthetic_trace(
    iterates: List,
    witnesses: List[tuple],
    xi_values: List[float],
    f_values: Optional[List[float]] = None,
    stop: StopRule = StopRule(step_tol=1e-2),
) -> IterateTrace:
    """Assemble a trace of algorithm ``_SYNTHETIC`` from raw sequences, mainly for tests and examples."""
    xs = np.asarray(iterates, dtype=float).reshape(len(iterates), -1)
    return IterateTrace(
        algorithm=_SYNTHETIC,
        iterates=xs,
        step_norms=_norm_rows(np.diff(xs, axis=0)),
        stop=stop,
        termination="max_iter",
        f_values=f_values,
        witness_indices=[k for k, _ in witnesses],
        witness_points=[w for _, w in witnesses],
        xi_values=xi_values,
    )
