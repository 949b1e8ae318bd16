"""Set-valued mappings with windowed evaluation.

A :class:`SetValuedMap` wraps a deterministic evaluator ``(x, window) ->
points``.  Maps whose values may be unbounded declare ``window_required`` and
refuse unwindowed evaluation instead of silently truncating.  Maps whose
values contain continua (intervals, half-lines) return a finite sample at a
declared resolution and may carry a closed-form ``value_dist`` oracle so that
membership tests stay exact.

Maps and operator entries are immutable after construction; evaluation is
reentrant and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import (
    DimensionMismatchError,
    PointSet,
    Region,
    Window,
    as_point,
    distance_to_set,
)


class WindowRequiredError(ValueError):
    """Unwindowed evaluation requested on a map with unbounded values."""


class MissingOracleError(ValueError):
    """A closed-form oracle (inverse, prox, gradient, ...) is not registered."""


Evaluator = Callable[[np.ndarray, Optional[Window]], np.ndarray]


@dataclass(frozen=True)
class SetValuedMap:
    """An evaluable mapping ``x -> finite point set``.

    ``evaluator`` must be deterministic and side-effect free.  When a window
    is supplied, :meth:`eval` returns exactly the values inside it (the
    evaluator may use the window to enumerate continuum-valued branches).
    """

    name: str
    dim_in: int
    dim_out: int
    evaluator: Evaluator
    window_required: bool = False
    resolution: Optional[int] = None
    value_dist: Optional[Callable[[np.ndarray, np.ndarray], float]] = None

    def eval(self, x, window: Optional[Window] = None) -> PointSet:
        """Evaluate ``A(x)`` or ``A(x) ∩ window``; the result may be empty."""
        p = as_point(x, self.dim_in)
        if window is None and self.window_required:
            raise WindowRequiredError(
                f"map {self.name!r} has unbounded values; supply a compact window"
            )
        if window is not None and window.dim != self.dim_out:
            raise DimensionMismatchError("window dimension differs from the map's range")
        raw = np.asarray(self.evaluator(p, window), dtype=float)
        if raw.size == 0:
            return PointSet.empty(self.dim_out)
        pts = raw.reshape(-1, self.dim_out)
        if window is not None:
            pts = pts[window.contains_rows(pts)]
        return PointSet(pts) if pts.shape[0] else PointSet.empty(self.dim_out)

    def member_dist(self, x, y, window: Optional[Window] = None) -> float:
        """Distance from ``y`` to ``A(x)``; exact when a value_dist oracle exists."""
        if self.value_dist is not None:
            return float(self.value_dist(as_point(x, self.dim_in), as_point(y, self.dim_out)))
        vals = self.eval(x, window)
        if vals.is_empty:
            return float("inf")
        return distance_to_set(y, vals)


@dataclass(frozen=True)
class ProxOracle:
    """Closed-form resolvent ``J_{γA}(y) = (γA + I)^{-1}(y)``.

    ``valid_gamma`` declares the range of γ on which the rule is single-valued.
    """

    rule: Callable[[float, np.ndarray], np.ndarray]
    valid_gamma: Callable[[float], bool] = lambda gamma: gamma > 0
    note: str = "valid for all gamma > 0"

    def resolve(self, gamma: float, y) -> np.ndarray:
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        if not self.valid_gamma(gamma):
            raise ValueError(f"gamma={gamma} outside the oracle's single-valued range ({self.note})")
        return as_point(self.rule(gamma, as_point(y)))


@dataclass(frozen=True)
class DcSplit:
    """Convex split ``f = g - h`` with a prox oracle for g and a smooth h."""

    g_prox: ProxOracle
    h_grad: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class OperatorEntry:
    """A catalog operator: forward map plus whatever closed-form oracles exist.

    ``solution_set`` describes ``S = forward^{-1}(0)`` exactly.  ``subgrad``
    is the first-order map used by descent-style solvers (it equals
    ``forward`` when the entry itself is a subdifferential); ``grad_inverse``
    is its closed-form inverse when registered.  ``quad_form = (Q, b)`` marks
    entries whose objective is ``x'Qx/2 - b'x``, unlocking closed-form
    power-penalty subproblems.
    """

    name: str
    forward: SetValuedMap
    solution_set: Region
    description: str = ""
    inverse: Optional[SetValuedMap] = None
    prox: Optional[ProxOracle] = None
    subgrad: Optional[SetValuedMap] = None
    subgrad_witness: Optional[Callable[[np.ndarray], np.ndarray]] = None
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

    def witness_map(self, which: str) -> SetValuedMap:
        """Resolve a witness-map name recorded on a trace."""
        if which == "forward":
            return self.forward
        if which == "subgrad":
            if self.subgrad is None:
                raise MissingOracleError(f"entry {self.name!r} has no subgradient map")
            return self.subgrad
        raise ValueError(f"unknown witness map {which!r}")

    def oracle_flags(self) -> dict:
        return {
            "inverse": self.inverse is not None,
            "prox": self.prox is not None,
            "subgrad": self.subgrad is not None,
            "grad_inverse": self.grad_inverse is not None,
            "smooth": self.f is not None and self.grad is not None,
            "jacobian": self.jac is not None,
            "dc": self.dc is not None,
            "quad_form": self.quad_form is not None,
        }


def invert(entry: OperatorEntry) -> SetValuedMap:
    """The registered closed-form inverse map of an entry."""
    if entry.inverse is None:
        raise MissingOracleError(f"entry {entry.name!r} has no registered closed-form inverse")
    return entry.inverse
