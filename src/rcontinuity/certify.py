"""Certificates for descent hypotheses and R-class membership along traces,
plus the distance-to-solution verdict.

All checks are pure functions over immutable traces.  A certificate passes
only when every applicable step passes and at least one step was applicable;
empty applicable sets are reported as vacuous, never as passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .analysis import ModulusCurve
from .geometry import Region
from .setmap import OperatorEntry
from .solvers import IterateTrace

_ATOL = 1e-12


@dataclass(frozen=True)
class Certificate:
    hypothesis: str  # "H1" | "H2" | "H3" | "H4" | "RCLASS"
    params: dict
    per_step: List[bool]
    step_indices: List[int]
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
    first = None
    for idx, ok in zip(indices, oks):
        if not ok:
            first = idx
            break
    return Certificate(
        hypothesis=hypothesis,
        params=params,
        per_step=list(oks),
        step_indices=list(indices),
        first_violation=first,
        vacuous=vacuous or not indices,
        tail_ok=tail_ok,
        note=note,
    )


def check_h1(trace: IterateTrace, alpha: float, tol: float = _ATOL) -> Certificate:
    """Sufficient decrease: ``f(x_k) - f(x_{k+1}) >= alpha * step_k**2``."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if trace.f_values is None:
        raise ValueError("the trace has no recorded function values")
    indices, oks = [], []
    for k in range(len(trace) - 1):
        drop = trace.f_values[k] - trace.f_values[k + 1]
        indices.append(k)
        oks.append(drop >= alpha * trace.step_norms[k] ** 2 - tol)
    return _collect("H1", {"alpha": alpha}, indices, oks)


def _relative_error(hypothesis: str, side: str, trace: IterateTrace, beta: float, tol: float) -> Certificate:
    """``||w|| <= beta * step`` for every witness, under an index convention.

    ``side="next"`` pairs a witness at k with the step that produced iterate
    k; ``side="current"`` pairs it with the step leaving iterate k.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    if not trace.witness_points:
        raise ValueError("the trace carries no witnesses")
    if trace.witness_side is not None and trace.witness_side != side:
        raise ValueError(
            f"trace witnesses attach to the {trace.witness_side!r} iterate; "
            f"this check needs the {side!r} convention"
        )
    indices, oks = [], []
    for k, w in zip(trace.witness_indices, trace.witness_points):
        step = k - 1 if side == "next" else k
        if 0 <= step <= len(trace) - 2:
            indices.append(k)
            oks.append(float(np.linalg.norm(w)) <= beta * trace.step_norms[step] + tol)
    return _collect(hypothesis, {"beta": beta}, indices, oks)


def check_h2(trace: IterateTrace, beta: float, tol: float = _ATOL) -> Certificate:
    """Relative error with the witness at the new iterate:
    ``||w_{k+1}|| <= beta * step_k``."""
    return _relative_error("H2", "next", trace, beta, tol)


def check_h3(trace: IterateTrace, beta: float, tol: float = _ATOL) -> Certificate:
    """Relative error with the witness at the current iterate:
    ``||w_k|| <= beta * step_k``."""
    return _relative_error("H3", "current", trace, beta, tol)


def check_h4(
    trace: IterateTrace,
    entry: OperatorEntry,
    tol: float = 1e-8,
    cluster_radius: float = 1e-2,
    neighborhood: int = 10,
) -> Certificate:
    """Continuity condition at a detected cluster point.

    The cluster is the iterate whose 10th-nearest-neighbor radius is smallest;
    no iterate with a tight neighborhood means no cluster point, which fails
    the check.  Along the ten iterates nearest the cluster (in index order)
    the function values must approach the cluster value.
    """
    if entry.f is None:
        raise ValueError("H4 needs a scalar function on the entry")
    n = len(trace)
    if n < 20:
        return _collect("H4", {}, [], [], vacuous=True, note="fewer than 20 iterates")
    pts = np.asarray(trace.iterates)
    if n > 2000:  # keep the pairwise scan quadratic in a bounded count
        sel = np.arange(0, n, int(math.ceil(n / 2000)))
        pts = pts[sel]
        index_of = sel
    else:
        index_of = np.arange(n)
    dmat = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(dmat, np.inf)
    kth = np.sort(dmat, axis=1)[:, min(neighborhood, pts.shape[0] - 1) - 1]
    best = int(np.argmin(kth))
    if kth[best] > cluster_radius:
        return _collect("H4", {}, [0], [False], note="no cluster point found")
    xb = pts[best]
    fb = float(entry.f(xb))
    order = np.argsort(np.linalg.norm(pts - xb, axis=1))[:neighborhood]
    sub = np.sort(index_of[order])
    indices, oks = [], []
    for j in sub:
        fj = trace.f_values[j] if trace.f_values is not None else float(entry.f(trace.iterates[j]))
        indices.append(int(j))
        oks.append(abs(fj - fb) <= tol * (1.0 + abs(fb)))
    return _collect("H4", {"cluster": [float(v) for v in xb]}, indices, oks)


def check_rclass(trace: IterateTrace, alpha: float, beta: float, tol: float = _ATOL) -> Certificate:
    """R-class membership: ``||w_k|| <= alpha * xi(k)**beta`` with vanishing xi.

    Each witness is tested against its own paired xi value.  The tail check
    requires the last recorded xi values to be nonincreasing and the final one
    to sit below ten times the trace's step tolerance.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if not trace.xi_values:
        raise ValueError("the trace carries no xi values")
    indices = list(trace.witness_indices)
    oks = [
        float(np.linalg.norm(w)) <= alpha * xi ** beta + tol
        for w, xi in zip(trace.witness_points, trace.xi_values)
    ]
    tail = trace.xi_values[-10:]
    nonincreasing = all(b <= a + 1e-15 for a, b in zip(tail[:-1], tail[1:]))
    tail_ok = nonincreasing and tail[-1] <= 10.0 * trace.stop.step_tol
    note = "" if tail_ok else "xi tail does not vanish"
    return _collect("RCLASS", {"alpha": alpha, "beta": beta}, indices, oks, tail_ok=tail_ok, note=note)


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
    reported out of range rather than failed.
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    distances = s.distance_rows(np.asarray(trace.iterates)).tolist()
    window = distances[-min(10, len(distances)):]
    converged = all(d < tolerance for d in window)
    if trace.termination == "tolerance" and distances[-1] < tolerance:
        converged = True
    checked = 0
    violations: List[int] = []
    out_of_range: List[int] = []
    if modulus is not None:
        for k, w in zip(trace.witness_indices, trace.witness_points):
            r = float(np.linalg.norm(w))
            bound = modulus.rho_at(r)
            if bound is None:
                out_of_range.append(k)
                continue
            checked += 1
            if distances[k] > 1.1 * bound + _ATOL:
                violations.append(k)
    return DistanceVerdict(
        distances=distances,
        converged=converged,
        tolerance=tolerance,
        link_checked=checked,
        link_violations=violations,
        link_out_of_range=out_of_range,
    )
