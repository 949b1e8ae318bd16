"""Job lists of the three benchmark workloads and the checks on their outcomes.

A job is either an experiment config, run through
``cli.ExperimentConfig.from_dict`` and ``cli.run_experiment`` as the CLI does,
or a call of a public estimator that no CLI kind reaches.  The workload seed
sets each config's ``seed`` and every estimator seed; radii, sample counts,
grid sizes and trace lengths are fixed, so a pass does the same work for
every seed.

Each check returns a list of problems; an empty list means the job's outcome
is right.  Tolerances are stated where the check compares with a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

#: Radius grid of every modulus job that does not set its own.
RADII_13 = {"start": 1e-4, "stop": 1e-1, "count": 13}

#: lambda_min of the quad2 matrix [[2, 0.5], [0.5, 1]].
QUAD2_LAMBDA_MIN = (3.0 - math.sqrt(2.0)) / 2.0

_BOX_1D = {"kind": "box", "center": [0.0], "extent": [5.0]}
_README_WINDOW = {"kind": "box", "center": [0.0], "extent": [10.0]}


@dataclass(frozen=True)
class Outcome:
    """What a job produced: its CLI exit code and its verdicts or result."""

    exit_code: int
    verdicts: Optional[dict] = None  # CLI jobs: RunReport.verdicts
    result: object = None  # library jobs: the estimator's return value
    error: str = ""


@dataclass(frozen=True)
class Job:
    name: str
    check: Callable[[Outcome], List[str]]
    config: Optional[Callable[[int], dict]] = None  # CLI jobs
    call: Optional[Callable[[object, int], object]] = None  # library jobs: (rcontinuity, seed)
    expect_exit: int = 0


def _close(label: str, value, expected: float, tol: float) -> List[str]:
    if value is None or not abs(float(value) - expected) <= tol:
        return [f"{label}={value!r}, expected {expected} +- {tol}"]
    return []


def _equal(label: str, value, expected) -> List[str]:
    return [] if value == expected else [f"{label}={value!r}, expected {expected!r}"]


def _holder(theta: Optional[float] = None, L: Optional[float] = None, tol: float = 1e-6,
            degenerate: bool = False):
    def check(o: Outcome) -> List[str]:
        fit = o.verdicts.get("holder_fit", {})
        problems = _equal("holder_fit.divergent", fit.get("divergent"), False)
        problems += _equal("holder_fit.degenerate", fit.get("degenerate"), degenerate)
        if theta is not None:
            problems += _close("theta_hat", fit.get("theta_hat"), theta, tol)
        if L is not None:
            problems += _close("L_hat", fit.get("L_hat"), L, tol)
        return problems
    return check


def _certs(*expected_pass: bool):
    def check(o: Outcome) -> List[str]:
        got = [c["pass"] for c in o.verdicts.get("certificates", [])]
        return _equal("certificate pass flags", got, list(expected_pass))
    return check


def _termination(expected: str):
    return lambda o: _equal("termination", o.verdicts.get("termination"), expected)


def _distance(o: Outcome) -> List[str]:
    dv = o.verdicts.get("distance", {})
    return _equal("distance.converged", dv.get("converged"), True) + \
        _equal("distance.link_ok", not dv.get("link_violations"), True)


def _all(*checks):
    return lambda o: [p for c in checks for p in c(o)]


def _modulus(operator: str, target: str, xbar, samples: int, scheme: str = "grid",
             window: Optional[dict] = None):
    def config(seed: int) -> dict:
        analysis = {"target": target, "xbar": list(xbar), "radii": dict(RADII_13),
                    "samples_per_radius": samples, "scheme": scheme}
        if window is not None:
            analysis["window"] = window
        return {"kind": "modulus", "operator": operator, "seed": seed, "analysis": analysis}
    return config


def _certify(operator: str, algorithm: dict, certificates: List[dict], max_iter: Optional[int] = None):
    def config(seed: int) -> dict:
        cfg = {"kind": "certify", "operator": operator, "seed": seed,
               "algorithm": dict(algorithm), "certificates": [dict(c) for c in certificates]}
        if max_iter is not None:
            cfg["stop"] = {"max_iter": max_iter}
        return cfg
    return config


def _gdm_pipeline(seed: int) -> dict:
    return {
        "kind": "full-pipeline", "operator": "quad", "seed": seed,
        "algorithm": {"name": "gdm", "step": 1e-3, "x0": [1.0]},
        "certificates": [
            {"hypothesis": "H1", "alpha": 1.0},
            {"hypothesis": "H3", "beta": 1001.0},
            {"hypothesis": "H4"},
            {"hypothesis": "RCLASS", "alpha": 1001.0, "beta": 1.0},
        ],
    }


def _readme_pipeline(seed: int) -> dict:
    """The README's pipeline config, at 257 samples per radius."""
    return {
        "kind": "full-pipeline", "operator": "abs-subdiff", "seed": seed,
        "algorithm": {"name": "ppa", "gamma": 0.3, "x0": [1.0]},
        "analysis": {
            "window": dict(_README_WINDOW),
            "radii": {"start": 0.01, "stop": 1.0, "count": 9},
            "samples_per_radius": 257,
        },
        "certificates": [
            {"hypothesis": "H1", "alpha": 1.6666666666666667},
            {"hypothesis": "H2", "beta": 3.3333333333333335},
        ],
        "tolerance": 1e-6,
    }


def _loja(operator: str, center: float, extent: float):
    def config(seed: int) -> dict:
        return {"kind": "lojasiewicz", "operator": operator, "seed": seed,
                "analysis": {"window": {"kind": "box", "center": [center], "extent": [extent]}}}
    return config


def _loja_theta(expected: float, tol: float):
    def check(o: Outcome) -> List[str]:
        fit = o.verdicts.get("lojasiewicz", {})
        return _equal("lojasiewicz.failed", fit.get("failed"), False) + \
            _close("lojasiewicz.theta_hat", fit.get("theta_hat"), expected, tol)
    return check


def _plk_square(seed: int) -> dict:
    return {"kind": "plk", "operator": "square", "seed": seed,
            "analysis": {"xbar": [0.0], "grid_count": 4097,
                         "plk": {"M": 2.0, "q_exp": 0.5, "eta": 1.0, "neighborhood_radius": 1.0}}}


def _closed_graph_abs(rc, seed: int):
    m = rc.catalog.catalog_lookup("abs-subdiff").forward
    return rc.analysis.closed_graph_test(m, [0.0], rc.Window.box([0.0], [2.0]), seed=seed)


def _closed_graph_quad2(rc, seed: int):
    m = rc.catalog.catalog_lookup("quad2").forward
    return rc.analysis.closed_graph_test(m, [0.0, 0.0], rc.Window.box([0.0, 0.0], [10.0, 10.0]),
                                         n_sequences=64, seed=seed)


def _calmness_abs(rc, seed: int):
    m = rc.catalog.catalog_lookup("abs-subdiff").inverse
    return rc.analysis.calmness_estimate(m, [1.0], [0.0], 0.5, 1.0, samples=513, seed=seed)


def _inverse_lipschitz_quad2(rc, seed: int):
    entry = rc.catalog.catalog_lookup("quad2")
    return rc.analysis.certify_inverse_lipschitz(entry, rc.Window.box([0.0, 0.0], [2.0, 2.0]),
                                                 test_samples=2000, seed=seed)


def _graph_passes(o: Outcome) -> List[str]:
    return _equal("closed_graph.verdict", o.result.verdict, "pass")


def _calm_zero(o: Outcome) -> List[str]:
    # A^{-1}(y) = {0} for |y| < 1 lies inside A^{-1}(1) = [0, inf): calm with modulus 0.
    return _equal("calmness.vacuous", o.result.vacuous, False) + \
        _close("calmness.kappa_hat", o.result.kappa_hat, 0.0, 1e-12)


def _inverse_lipschitz_ok(o: Outcome) -> List[str]:
    r = o.result
    return _equal("inverse_lipschitz.verdict", r.verdict, "full-rank") + \
        _equal("inverse_lipschitz.violations", len(r.bound_violations), 0) + \
        _equal("inverse_lipschitz.checked", r.checked, 2000) + \
        _close("inverse_lipschitz.c_hat", r.c_hat, QUAD2_LAMBDA_MIN, 1e-9)


WORKLOADS = {
    # The per-sample eval + excess loop of estimate_modulus, on five maps.
    "modulus-sweep": [
        Job("quad2-inverse", _holder(theta=1.0),
            config=_modulus("quad2", "inverse", [0.0, 0.0], 1024, scheme="halton")),
        Job("square-inverse", _holder(theta=0.5, L=1.0),
            config=_modulus("square", "inverse", [0.0], 1024)),
        Job("double-well-inverse", _holder(),
            config=_modulus("double-well", "inverse", [0.0], 1024)),
        Job("flat-exp-inverse", _holder(),
            config=_modulus("flat-exp", "inverse", [0.0], 1024)),
        Job("rm1-forward", _holder(),
            config=_modulus("rm1", "forward", [1.0], 1024, window=_BOX_1D)),
    ],
    # Long traces: solver loops, certificates, trace CSV and per-iterate distances.
    "long-trace": [
        Job("quad-gdm-pipeline",
            _all(_termination("tolerance"), _certs(True, True, True, True), _distance, _holder(theta=1.0)),
            config=_gdm_pipeline),
        Job("quad2-shifted-ppa",
            _all(_termination("tolerance"), _certs(True, True, True)),
            config=_certify("quad2", {"name": "shifted-ppa", "kappa": 5e-4, "gamma": 0.002, "x0": [2.0, 2.0]},
                            [{"hypothesis": "H1", "alpha": 1.0},
                             {"hypothesis": "H2", "beta": 501.0},
                             {"hypothesis": "RCLASS", "alpha": 501.0, "beta": 1.0}])),
        Job("dc-quad-dca",
            _all(_termination("tolerance"), _certs(True, True, True)),
            config=_certify("dc-quad", {"name": "dca", "gamma": 0.002, "x0": [1.0]},
                            [{"hypothesis": "H1", "alpha": 1.0},
                             {"hypothesis": "H2", "beta": 501.0},
                             {"hypothesis": "RCLASS", "alpha": 501.0, "beta": 1.0}])),
        Job("double-well-qpower",
            _all(_termination("max_iter"), _certs(True, False)),
            config=_certify("double-well", {"name": "qpower", "gamma": 1.0, "q": 1.5, "x0": [2.0]},
                            [{"hypothesis": "H1", "alpha": 0.1},
                             {"hypothesis": "RCLASS", "alpha": 10.0, "beta": 0.5}],
                            max_iter=3000),
            expect_exit=4),
    ],
    # Continuum values and grids: large value sets, Region.distance over grids.
    "continuum-grid": [
        Job("abs-subdiff-pipeline",
            _all(_termination("tolerance"), _certs(True, True), _distance),
            config=_readme_pipeline),
        Job("abs-subdiff-forward", _holder(degenerate=True),
            config=_modulus("abs-subdiff", "forward", [0.0], 257)),
        Job("square-loja", _loja_theta(2.0, 1e-6), config=_loja("square", 0.0, 1.0)),
        Job("double-well-loja", _loja_theta(2.0, 0.1), config=_loja("double-well", 0.5, 2.5)),
        Job("square-plk", lambda o: _equal("plk", o.verdicts.get("plk"), "pass"), config=_plk_square),
        Job("abs-subdiff-closed-graph", _graph_passes, call=_closed_graph_abs),
        Job("quad2-closed-graph", _graph_passes, call=_closed_graph_quad2),
        Job("abs-subdiff-calmness", _calm_zero, call=_calmness_abs),
        Job("quad2-inverse-lipschitz", _inverse_lipschitz_ok, call=_inverse_lipschitz_quad2),
    ],
}
