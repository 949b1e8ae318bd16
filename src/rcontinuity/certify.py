"""Certificates for descent hypotheses and R-class membership along traces,
plus the distance-to-solution verdict.

All checks are pure functions over immutable traces.  A certificate passes
only when every applicable step passes and at least one step was applicable;
empty applicable sets are reported as vacuous, never as passes.

:data:`HYPOTHESES` (checks, request parameters, witness conventions) and
:func:`check` (their rules) state each hypothesis's contract once; the checks
and the CLI both call ``check``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

import numpy as np

from .geometry import Region, _kth_nearest, _norms
from .setmap import OperatorEntry, ParamError

if TYPE_CHECKING:
    from .analysis import ModulusCurve
    from .solvers import IterateTrace

_ATOL = 1e-12


@dataclass(frozen=True)
class Certificate:
    hypothesis: str  # "H1" | "H2" | "H3" | "H4" | "RCLASS"
    params: dict
    step_indices: np.ndarray
    first_violation: Optional[int]
    vacuous: bool
    tail_ok: bool = True
    note: str = ""

    @property
    def passed(self) -> bool:
        return (not self.vacuous) and self.first_violation is None and self.tail_ok

    def to_json_dict(self) -> dict:
        return {
            "hypothesis": self.hypothesis,
            "params": self.params,
            "pass": self.passed,
            "first_violation": self.first_violation,
            "vacuous": self.vacuous,
        }


def _collect(hypothesis, params, indices, oks, vacuous=False, tail_ok=True, note="") -> Certificate:
    indices = np.asarray(indices, dtype=int)
    failed = np.flatnonzero(np.logical_not(oks))
    return Certificate(
        hypothesis=hypothesis,
        params=params,
        step_indices=indices,
        first_violation=int(indices[failed[0]]) if failed.size else None,
        vacuous=vacuous or not indices.size,
        tail_ok=tail_ok,
        note=note,
    )


class _Hypothesis(NamedTuple):
    check: str  # the function of this module that certifies it, looked up by name at call time
    params: Tuple[str, ...]  # the positive parameters a request gives it
    witness_side: Optional[str] = None  # the witness convention it needs: "next" | "current"
    takes_entry: bool = False  # whether the check also takes the operator entry


#: Every hypothesis by name: its check, request parameters and witness convention.
HYPOTHESES = {
    "H1": _Hypothesis("check_h1", ("alpha",)),
    "H2": _Hypothesis("check_h2", ("beta",), "next"),
    "H3": _Hypothesis("check_h3", ("beta",), "current"),
    "H4": _Hypothesis("check_h4", (), takes_entry=True),
    "RCLASS": _Hypothesis("check_rclass", ("alpha", "beta")),
}


def check(hypothesis: str, witness_side: Optional[str], **params) -> None:
    """Raise ``ParamError`` naming the first request parameter that is not
    positive, or ``hypothesis`` when a trace whose witnesses attach to the
    ``witness_side`` iterate (``None``: unknown) has the wrong convention."""
    for key, value in params.items():
        if not value > 0:
            raise ParamError(key, f"{key} must be positive")
    side = HYPOTHESES[hypothesis].witness_side
    if side is not None and witness_side is not None and witness_side != side:
        raise ParamError("hypothesis", f"trace witnesses attach to the {witness_side!r} iterate; "
                                       f"{hypothesis} needs the {side!r} convention")


def check_h1(trace: IterateTrace, alpha: float) -> Certificate:
    """Sufficient decrease: ``f(x_k) - f(x_{k+1}) >= alpha * step_k**2 - _ATOL``."""
    check("H1", trace.witness_side, alpha=alpha)
    if trace.f_values is None:
        raise ValueError("the trace has no recorded function values")
    drops = trace.f_values[:-1] - trace.f_values[1:]
    oks = drops >= alpha * trace.step_norms ** 2 - _ATOL
    return _collect("H1", {"alpha": alpha}, np.arange(len(trace) - 1), oks)


def _relative_error(hypothesis: str, trace: IterateTrace, beta: float) -> Certificate:
    """``||w|| <= beta * step + _ATOL`` for every witness, under the hypothesis's index
    convention: ``"next"`` pairs a witness at k with the step that produced
    iterate k, ``"current"`` with the step leaving iterate k.
    """
    check(hypothesis, trace.witness_side, beta=beta)
    indices = trace.witness_indices
    steps = indices - 1 if HYPOTHESES[hypothesis].witness_side == "next" else indices
    paired = (steps >= 0) & (steps <= len(trace) - 2)  # witnesses without a step are skipped
    oks = trace.witness_norms[paired] <= beta * trace.step_norms[steps[paired]] + _ATOL
    return _collect(hypothesis, {"beta": beta}, indices[paired], oks)


def check_h2(trace: IterateTrace, beta: float) -> Certificate:
    """Relative error with the witness at the new iterate:
    ``||w_{k+1}|| <= beta * step_k``."""
    return _relative_error("H2", trace, beta)


def check_h3(trace: IterateTrace, beta: float) -> Certificate:
    """Relative error with the witness at the current iterate:
    ``||w_k|| <= beta * step_k``."""
    return _relative_error("H3", trace, beta)


_H4_TOL = 1e-8
_H4_CLUSTER_RADIUS = 1e-2
_H4_NEIGHBORHOOD = 10


def check_h4(trace: IterateTrace, entry: OperatorEntry) -> Certificate:
    """Continuity condition at a detected cluster point.

    The cluster is the iterate whose ``_H4_NEIGHBORHOOD``-th-nearest-neighbor radius is
    smallest; none within ``_H4_CLUSTER_RADIUS`` means no cluster point, which fails the
    check.  Along the ``_H4_NEIGHBORHOOD`` iterates nearest the cluster (in index order)
    ``f`` must approach the cluster value, within ``_H4_TOL * (1 + |f(cluster)|)``.
    """
    entry.need("f")
    n = len(trace)
    if n < 20:
        return _collect("H4", {}, [], [], vacuous=True, note="fewer than 20 iterates")
    index_of = np.arange(0, n, math.ceil(n / 2000))  # a stride past 2000: the pairwise scan stays bounded
    pts = trace.iterates[index_of]
    kth = _kth_nearest(pts, min(_H4_NEIGHBORHOOD, len(pts) - 1) - 1)
    best = int(np.argmin(kth))
    if kth[best] > _H4_CLUSTER_RADIUS:
        return _collect("H4", {}, [0], [False], note="no cluster point found")
    xb = pts[best]
    fb = float(entry.f(xb))
    order = np.argsort(_norms(pts - xb))[:_H4_NEIGHBORHOOD]
    sub = np.sort(index_of[order])
    fs = trace.f_values[sub] if trace.f_values is not None else entry.f_values(trace.iterates[sub])
    return _collect("H4", {"cluster": [float(v) for v in xb]}, sub, np.abs(fs - fb) <= _H4_TOL * (1.0 + abs(fb)))


def check_rclass(trace: IterateTrace, alpha: float, beta: float) -> Certificate:
    """R-class membership: ``||w_k|| <= alpha * xi(k)**beta + _ATOL`` with vanishing xi.

    Each witness is tested against its own paired xi value.  The tail check
    requires the last recorded xi values to be nonincreasing and the final one
    to sit below ten times the trace's step tolerance.
    """
    check("RCLASS", trace.witness_side, alpha=alpha, beta=beta)
    oks = trace.witness_norms <= alpha * trace.xi_values ** beta + _ATOL
    tail = trace.xi_values[-10:]
    nonincreasing = (tail[1:] <= tail[:-1] + 1e-15).all()
    tail_ok = bool(nonincreasing and (tail[-1:] <= 10.0 * trace.stop.step_tol).all())  # no xi: vacuous anyway
    note = "" if tail_ok else "xi tail does not vanish"
    return _collect("RCLASS", {"alpha": alpha, "beta": beta}, trace.witness_indices, oks,
                    tail_ok=tail_ok, note=note)


@dataclass(frozen=True)
class DistanceVerdict:
    """Distance-to-solution record with a trailing-window convergence verdict
    and an optional modulus-link audit ``d(x_k, S) <= 1.1 * rho(||w_k||)``."""

    distances: List[float]
    converged: bool
    tolerance: float
    link_checked: int = 0
    link_violations: List[int] = field(default_factory=list)
    link_out_of_range: List[int] = field(default_factory=list)

    @property
    def link_ok(self) -> bool:
        return not self.link_violations

    def to_json_dict(self) -> dict:
        return {
            "converged": self.converged,
            "tolerance": self.tolerance,
            "final_distance": self.distances[-1] if self.distances else None,
            "link_checked": self.link_checked,
            "link_violations": self.link_violations,
            "link_out_of_range": self.link_out_of_range,
        }


def distance_trace(
    trace: IterateTrace,
    s: Region,
    tolerance: float,
    modulus: Optional[ModulusCurve] = None,
) -> DistanceVerdict:
    """Exact distances from iterates to the solution region.

    Converged means the final window of ten distances sits below the
    tolerance.  A trace that stopped on its step tolerance has stalled at its
    final point and continues as a constant sequence, so such a trace is also
    converged when its final distance is below the tolerance.  When a modulus
    curve is supplied, each witnessed iterate is audited against
    ``1.1 * rho(||w||)``; witness norms beyond the curve's largest radius are
    reported out of range rather than failed.  A witness whose index names no
    iterate (outside ``[0, n)``) is skipped and counts in neither.
    """
    check_distance(tolerance)
    distances = s.distance_rows(trace.iterates)
    converged = bool((distances[-10:] < tolerance).all()
                     or (trace.termination == "tolerance" and distances[-1] < tolerance))
    checked = 0
    violations: List[int] = []
    out_of_range: List[int] = []
    if modulus is not None:
        # rho(r): linear between grid radii, rho_hat[0] below them (np.interp clamps), no bound past the last
        paired = (trace.witness_indices >= 0) & (trace.witness_indices < len(distances))
        norms, indices = trace.witness_norms[paired], trace.witness_indices[paired]
        inside = norms <= modulus.radii[-1]
        bounds = np.interp(norms[inside], modulus.radii, modulus.rho_hat)
        failed = distances[indices[inside]] > 1.1 * bounds + _ATOL
        checked = int(inside.sum())
        violations = indices[inside][failed].tolist()
        out_of_range = indices[~inside].tolist()
    return DistanceVerdict(
        distances=distances.tolist(),
        converged=converged,
        tolerance=tolerance,
        link_checked=checked,
        link_violations=violations,
        link_out_of_range=out_of_range,
    )


def check_distance(tolerance: float) -> None:
    """Raise ``ParamError`` unless :func:`distance_trace`, and so the CLI, accepts ``tolerance``."""
    if not tolerance > 0:
        raise ParamError("tolerance", "tolerance must be positive")
