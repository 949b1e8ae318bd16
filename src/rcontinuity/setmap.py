"""Set-valued mappings with windowed, row-wise evaluation.

A :class:`SetValuedMap` wraps a deterministic row-wise evaluator
``(X, window) -> (points, owner)``: ``X`` is an ``(n, dim_in)`` array of
arguments, ``points`` an ``(N, dim_out)`` array of values, and ``owner[j]`` the
row of ``X`` that produced ``points[j]``.  :meth:`SetValuedMap.eval_rows` is
the one place that validates the rows and (by :meth:`~SetValuedMap.check_window`)
the window, coerces and checks the values, orders them by owner (stably) and
keeps only those inside the window; :meth:`SetValuedMap.eval` is its one-row
form.  :func:`pointwise` lifts a per-point evaluator
``(x, window) -> points`` into this contract by a loop over the rows.

Maps whose values may be unbounded declare ``window_required`` and refuse
unwindowed evaluation instead of silently truncating.  Maps whose values
contain continua (intervals, half-lines) return a finite sample and may carry
a closed-form ``value_dist`` oracle so that membership tests stay exact.
Membership distances are row-wise: :meth:`SetValuedMap.member_dist_rows`
measures ``d(Y[i], A(X[i]))`` on paired rows, by ``value_dist`` (which takes
paired rows too) where it exists, else by one ``eval_rows`` call.

Maps and operator entries are immutable after construction; evaluation is
reentrant and thread-safe.

The two rules every CLI kind validates, solver or none, live here too, so
that a run without a solver loads neither ``solvers`` nor ``certify``:
:class:`StopRule` (every ``report.json`` echoes its fields) and
:func:`check_distance` (the ``tolerance`` of ``certify.distance_trace``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .geometry import (
    DimensionMismatchError,
    ParamError,
    PointSet,
    Region,
    Window,
    _norms,
    as_point,
    as_rows,
)


class WindowRequiredError(ParamError):
    """Unwindowed evaluation requested on a map with unbounded values."""


class WindowDimensionError(ParamError, DimensionMismatchError):
    """A window whose dimension is not that of the space it restricts."""


class MissingOracleError(ValueError):
    """A closed-form oracle (inverse, prox, gradient, ...) is not registered."""


class ValueOverflowError(ValueError):
    """A map value with an infinite coordinate (and none NaN), as where ``x²``
    overflows: it lies at infinite distance from every finite set."""


Evaluator = Callable[[np.ndarray, Optional[Window]], Tuple[np.ndarray, np.ndarray]]


def pointwise(f: Callable[[np.ndarray, Optional[Window]], object]) -> Evaluator:
    """Lift a per-point evaluator ``(x, window) -> points`` into the row
    contract, calling ``f`` once per row, in row order.

    ``f`` receives one row as a 1-d array and returns that row's values as a
    ``(k, dim_out)`` array; ``k`` may be 0, and a 1-d array is one point.
    """

    def evaluator(X: np.ndarray, window: Optional[Window]):
        blocks = [np.atleast_2d(np.asarray(f(x, window), dtype=float)) for x in X]
        counts = [b.shape[0] if b.size else 0 for b in blocks]
        values = [b for b in blocks if b.size]
        points = np.concatenate(values) if values else np.empty((0, 1))
        return points, np.repeat(np.arange(len(blocks)), counts)

    return evaluator


@dataclass(frozen=True, eq=False, repr=False)
class SetValuedMap:
    """An evaluable mapping ``x -> finite point set``.

    ``evaluator`` is row-wise, ``(X, window) -> (points, owner)`` as the
    module docstring states, and must be deterministic and side-effect free.
    It receives validated rows and may use the window to enumerate
    continuum-valued branches; values outside the window are dropped by
    :meth:`eval_rows`, never by the evaluator's caller.  Wrap a per-point
    formula with :func:`pointwise`.  ``value_dist(X, Y)``, when given, is the
    exact ``d(Y[i], A(X[i]))`` on paired rows, blind to windows.
    """

    name: str
    dim_in: int
    dim_out: int
    evaluator: Evaluator
    window_required: bool = False
    value_dist: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def eval_rows(self, X, window: Optional[Window] = None) -> Tuple[PointSet, np.ndarray]:
        """Evaluate every row of an ``(n, dim_in)`` array at once.

        Returns the values as one :class:`PointSet` and, per value, the index
        of its row.  Values are grouped by row in row order, each row's in its
        evaluator's order, and only values inside ``window`` are kept; a row
        may have none.  A kept value with an infinite coordinate, and none
        NaN, raises :class:`ValueOverflowError`.
        """
        rows = as_rows(X, self.dim_in)
        self.check_window(window)
        raw, owner = self.evaluator(rows, window)
        pts = np.asarray(raw, dtype=float).reshape(-1, self.dim_out)
        owner = np.asarray(owner, dtype=np.intp).reshape(-1)
        if owner.size != pts.shape[0]:
            raise ValueError(f"map {self.name!r} returned {pts.shape[0]} values but {owner.size} owners")
        order = np.argsort(owner, kind="stable")
        pts, owner = pts[order], owner[order]
        if owner.size and (owner[0] < 0 or owner[-1] >= rows.shape[0]):
            raise ValueError(f"map {self.name!r} returned an owner outside its {rows.shape[0]} rows")
        if window is not None:
            keep = window.contains_rows(pts)
            pts, owner = pts[keep], owner[keep]
        try:
            return PointSet(pts), owner
        except ValueError:
            if np.isinf(pts).any() and not np.isnan(pts).any():
                raise ValueOverflowError(f"map {self.name!r} has a value with an infinite coordinate") from None
            raise

    def check_window(self, window: Optional[Window]) -> None:
        """Raise unless ``window`` may restrict this map's values: it is required
        when they are unbounded, and must have the range's dimension."""
        if window is None and self.window_required:
            raise WindowRequiredError("window", f"map {self.name!r} has unbounded values; supply a compact window")
        if window is not None and window.dim != self.dim_out:
            raise WindowDimensionError("window", "window dimension differs from the map's range")

    def eval(self, x, window: Optional[Window] = None) -> PointSet:
        """Evaluate ``A(x)`` or ``A(x) ∩ window``; the result may be empty."""
        return self.eval_rows(as_point(x, self.dim_in)[None], window)[0]

    def member_dist_rows(self, X, Y, window: Optional[Window] = None) -> np.ndarray:
        """``d(Y[i], A(X[i]) ∩ window)`` for paired ``(n, dim_in)`` and ``(n, dim_out)``
        rows, ``inf`` where the value set is empty: ``value_dist`` as is where it
        exists (it ignores ``window``), else one :meth:`eval_rows` call, measured
        per row with the bits of ``PointSet.distance_rows``."""
        X, Y = as_rows(X, self.dim_in), as_rows(Y, self.dim_out)
        if X.shape[0] != Y.shape[0]:
            raise ValueError(f"member_dist_rows needs paired rows, got {X.shape[0]} and {Y.shape[0]}")
        if self.value_dist is not None:
            return self.value_dist(X, Y)
        vals, owner = self.eval_rows(X, window)
        d = np.full(X.shape[0], np.inf)
        np.minimum.at(d, owner, _norms(vals.points - Y[owner]))
        return d

    def member_dist(self, x, y, window: Optional[Window] = None) -> float:
        """Distance from ``y`` to ``A(x)``: the one-row form of :meth:`member_dist_rows`."""
        return float(self.member_dist_rows(as_point(x, self.dim_in)[None], as_point(y, self.dim_out)[None], window)[0])


@dataclass(frozen=True, eq=False, repr=False)
class ProxOracle:
    """Closed-form resolvent ``J_{γA}(y) = (γA + I)^{-1}(y)``: ``resolvent(γ)``
    is ``y -> J_{γA}(y)`` on 1-d float vectors, with what depends on γ alone
    computed once, and in 1-d a :class:`ScalarForm` of shape ``(1,)`` whose
    form is the solvers' float view.  ``valid_gamma`` declares the range of γ
    on which it is single-valued; :meth:`bind` checks it."""

    resolvent: Callable[[float], Callable[[np.ndarray], np.ndarray]]
    valid_gamma: Callable[[float], bool] = lambda gamma: gamma > 0
    note: str = "valid for all gamma > 0"

    def bind(self, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
        """The resolvent ``y -> J_{γA}(y)``, or a ``ParamError`` naming ``gamma`` unless γ > 0 passes
        ``valid_gamma``.  Coordinates are not checked for finiteness, in ``y`` or in the result: an
        overflow in a solver run reaches the solver loop, whose finiteness rule ends it as divergence."""
        if not (gamma > 0 and self.valid_gamma(gamma)):
            raise ParamError("gamma", f"gamma={gamma} outside the resolvent's range ({self.note})")
        return self.resolvent(gamma)

    def resolve(self, gamma: float, y) -> np.ndarray:
        """``J_{γA}(y)`` as a 1-d float vector: ``bind(gamma)(y)``."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return np.atleast_1d(np.asarray(self.bind(gamma)(y), dtype=float))


@dataclass(frozen=True, eq=False, repr=False)
class DcSplit:
    """Convex split ``f = g - h`` with a prox oracle for g and a smooth h; a 1-d
    ``h_grad`` that is a :class:`ScalarForm` of shape ``(1,)`` has a float view."""

    g_prox: ProxOracle
    h_grad: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False, repr=False)
class ScalarForm:
    """A 1-d closed form as the oracle ``x -> form(x[0])``: a float for
    ``shape = ()`` (``f``), else an array of ``shape`` (``(1,)`` for ``grad``,
    ``(1, 1)`` for ``jac``).  ``form`` takes one Python float, and gives the
    same bits per element on the numpy column that :meth:`rows` passes it."""

    form: Callable[[float], float]
    shape: Tuple[int, ...] = ()

    def __call__(self, x):
        v = self.form(float(x[0]))
        if not self.shape:
            return float(v)
        return np.array([v]) if len(self.shape) == 1 else np.array([[v]])

    def rows(self, X: np.ndarray) -> np.ndarray:
        """``form(X[:, 0])`` as an ``(n, *shape)`` array; an overflow gives
        +-inf without a warning, as Python's float ``*`` and ``/`` do."""
        with np.errstate(over="ignore"):
            return self.form(X[:, 0]).reshape(len(X), *self.shape)


@dataclass(frozen=True, eq=False, repr=False)
class RowForm:
    """The oracle ``point`` with a row view: ``rows(X)`` is ``point`` at each row of
    an ``(n, d)`` array, as an ``(n, *shape)`` array with the per-point bits; an
    overflow reads inf or nan without a warning, in both as in :func:`oracle_rows`."""

    rows: Callable[[np.ndarray], np.ndarray]
    point: Callable[[np.ndarray], object]

    def __call__(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            return self.point(x)


def oracle_rows(oracle: Callable[[np.ndarray], object], X: np.ndarray) -> np.ndarray:
    """``oracle`` (an entry's ``f``, ``grad`` or ``jac``, or a DC split's
    ``h_grad``) at each row of an ``(n, dim_in)`` array, as an ``(n, *shape)``
    array: by the ``rows`` of a :class:`ScalarForm` or :class:`RowForm`, else
    row by row, with the per-point call's bits either way."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads inf or nan, without a warning
        if isinstance(oracle, (ScalarForm, RowForm)):
            return oracle.rows(X)
        return np.array([oracle(x) for x in X], dtype=float)


@dataclass(frozen=True, eq=False, repr=False)
class OperatorEntry:
    """A catalog operator: forward map plus whatever closed-form oracles exist.

    ``solution_set`` describes ``S = forward^{-1}(0)`` exactly.  ``subgrad``
    is the first-order map used by descent-style solvers (it equals
    ``forward`` when the entry itself is a subdifferential); ``grad_inverse``
    is its closed-form inverse when registered.  ``quad_form = (Q, b)`` marks
    entries whose objective is ``x'Qx/2 - b'x``, unlocking closed-form
    power-penalty subproblems.  A 1-d entry's ``f``, ``grad`` and ``jac`` may be
    :class:`ScalarForm` oracles, whose float and column views the solvers and
    :func:`oracle_rows` use, and an entry's ``f`` and ``grad`` may be
    :class:`RowForm` oracles, whose row view :func:`oracle_rows` uses; replacing
    an oracle replaces its views with it.
    """

    name: str
    forward: SetValuedMap
    solution_set: Region
    description: str = ""
    inverse: Optional[SetValuedMap] = None
    prox: Optional[ProxOracle] = None
    subgrad: Optional[SetValuedMap] = None
    grad_inverse: Optional[SetValuedMap] = None
    f: Optional[Callable[[np.ndarray], float]] = None
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    jac: Optional[Callable[[np.ndarray], np.ndarray]] = None
    quad_form: Optional[tuple] = None
    dc: Optional[DcSplit] = None
    monotone: bool = False
    inf_f: Optional[float] = None

    @property
    def dim_in(self) -> int:
        return self.forward.dim_in

    @property
    def dim_out(self) -> int:
        return self.forward.dim_out

    def need(self, *names: str) -> None:
        """Raise ``MissingOracleError`` for the first of the oracles ``names`` that is not registered."""
        for name in names:
            if getattr(self, name) is None:
                raise MissingOracleError(f"entry {self.name!r} has no {name} oracle")


@dataclass(frozen=True, eq=False, repr=False)
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


def check_distance(tolerance: float) -> None:
    """Raise ``ParamError`` unless ``certify.distance_trace``, and so the CLI, accepts ``tolerance``."""
    if not tolerance > 0:
        raise ParamError("tolerance", "tolerance must be positive")
