"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they pass.
"""

import json
import math
import time

import numpy as np
import pytest

from rcontinuity import (
    Region,
    StopRule,
    Window,
    WindowRequiredError,
    catalog_lookup,
    check_h1,
    check_h2,
    check_h3,
    check_rclass,
    closed_graph_test,
    distance_trace,
    estimate_modulus,
    excess,
    fit_holder,
    invert,
    lojasiewicz_fit,
    run_dca,
    run_gdm,
    run_ppa,
    run_qpower_prox,
    run_shifted_ppa,
)
from rcontinuity.cli import ExperimentConfig, run_experiment
from conftest import brute_force_modulus, curves_agree

_SUITE_START = time.perf_counter()

K10 = Window.box([0.0], [10.0])
DECADE = list(np.geomspace(1e-4, 1e-1, 13))
S0 = Region([[0.0]])


def report(n, text):
    print(f"CRITERION {n} PASS: {text}")


def test_criterion_1_holder_exponent_recovery():
    t0 = time.perf_counter()
    curve = estimate_modulus(invert(catalog_lookup("square")), [0.0], None, DECADE,
                             samples_per_radius=64, seed=0)
    fit = fit_holder(curve)
    elapsed = time.perf_counter() - t0
    assert 0.45 <= fit.theta_hat <= 0.55
    assert 0.8 <= fit.L_hat <= 1.2
    assert elapsed < 5.0
    report(1, f"theta_hat={fit.theta_hat:.4f}, L_hat={fit.L_hat:.4f}, {elapsed:.2f}s")


def test_criterion_2_windowed_separation():
    rm1 = catalog_lookup("rm1")
    radii = list(np.geomspace(1e-3, 5e-2, 10))
    curve = estimate_modulus(rm1.forward, [0.0], K10, radii, samples_per_radius=64, seed=0)
    fit = fit_holder(curve)
    assert 0.9 <= fit.theta_hat <= 1.1
    assert fit.L_hat <= 1.1

    with pytest.raises(WindowRequiredError):
        estimate_modulus(rm1.forward, [0.0], None, radii, samples_per_radius=8, seed=0)

    big = Window.box([0.0], [1e6])
    manual = excess(rm1.forward.eval([1e-3], big), rm1.forward.eval([0.0], big))
    assert manual >= 1e3
    report(2, f"theta_hat={fit.theta_hat:.4f}, L_hat={fit.L_hat:.4f}, excess(1e-3)={manual:.0f}")


def test_criterion_3_lojasiewicz_fits():
    sq = lojasiewicz_fit(catalog_lookup("square"), Window.box([0.0], [1.0]), 2001)
    assert not sq.failed
    assert sq.theta_hat == pytest.approx(2.0, abs=1e-6)
    assert sq.c_hat == pytest.approx(1.0, abs=1e-6)

    dw = lojasiewicz_fit(catalog_lookup("double-well"), Window.box([0.5], [2.5]), 2001)
    assert not dw.failed
    assert 1.9 <= dw.theta_hat <= 2.1

    flat = lojasiewicz_fit(catalog_lookup("flat-exp"), Window.box([0.0], [1.0]), 2001)
    assert flat.failed
    report(3, f"square=(2,1), double-well theta={dw.theta_hat:.3f}, flat-exp flagged")


def test_criterion_4_exponent_duality():
    gaps = {}
    # the double-well inverse has a branch point at y = 1/16, so its power
    # law is read off below that scale; the square inverse is exact everywhere
    cases = (
        ("square", 0.0, 1.0, DECADE),
        ("double-well", 0.5, 2.5, list(np.geomspace(1e-4, 1e-2, 13))),
    )
    for name, center, extent, radii in cases:
        entry = catalog_lookup(name)
        loja = lojasiewicz_fit(entry, Window.box([center], [extent]), 2001)
        fit = fit_holder(estimate_modulus(invert(entry), [0.0], K10, radii, 64, seed=0))
        expected = 1.0 / loja.theta_hat
        assert abs(fit.theta_hat - expected) <= 0.1 * expected
        gaps[name] = abs(fit.theta_hat - expected) / expected
    report(4, f"relative gaps: {gaps['square']:.3f} (square), {gaps['double-well']:.3f} (double-well)")


def test_criterion_5_ppa_finite_convergence():
    trace = run_ppa(catalog_lookup("abs-subdiff"), 0.3, [1.0])
    verdict = distance_trace(trace, S0, 1e-6)
    expected = [1.0, 0.7, 0.4, 0.1, 0.0]
    assert len(verdict.distances) >= 5
    for got, want in zip(verdict.distances[:5], expected):
        assert abs(got - want) < 1e-12
    assert all(d == 0.0 for d in verdict.distances[5:])
    dists = verdict.distances
    assert all(b <= a + 1e-15 for a, b in zip(dists[:-1], dists[1:]))  # step-wise contraction
    report(5, "distances 1, 0.7, 0.4, 0.1, 0 exact; monotone at every step")


def test_criterion_6_shifted_step_range_diagnostics():
    entry = catalog_lookup("linear-neg")
    good = run_shifted_ppa(entry, 0.5, 2.0, [1.0])
    assert good.termination == "tolerance"
    assert abs(good.fejer_ledger[0]) < 1e-12

    bad = run_shifted_ppa(entry, 0.5, 0.25, [1.0], step_condition="reciprocal")
    assert bad.diverged
    assert len(bad) <= 50
    report(6, f"gamma=2 ledger[0]={good.fejer_ledger[0]:.1e}; gamma=0.25 diverged in {len(bad) - 1} steps")


def test_criterion_7_dca_contraction():
    trace = run_dca(catalog_lookup("dc-quad"), 1.0, [1.0])
    for k, x in enumerate(trace.iterates):
        assert abs(float(x[0]) - 0.75 ** k) < 1e-12
    verdict = distance_trace(trace, S0, 1e-6)
    assert verdict.converged
    assert verdict.distances[48] <= 1.1e-6
    assert verdict.distances[49] < 1e-6
    report(7, f"x_k = 0.75^k exact; converged, d_48={verdict.distances[48]:.3e}")


def test_criterion_8_certificate_suite():
    ppa = run_ppa(catalog_lookup("abs-subdiff"), 0.3, [1.0])
    assert check_h1(ppa, 1.0 / 0.6).passed  # subproblem alpha = 1 / (2 gamma)
    assert check_h2(ppa, 1.0 / 0.3).passed

    gdm = run_gdm(catalog_lookup("quad"), 0.5, [1.0], StopRule(max_iter=40))
    assert check_h1(gdm, 1.0).passed
    assert check_h3(gdm, 2.0).passed
    failing = check_h3(gdm, 1.5)
    assert not failing.passed
    assert failing.first_violation == 0

    qp = run_qpower_prox(catalog_lookup("quad"), 1.0, 2.0, [1.0])
    assert check_rclass(qp, 2.0, 1.0).passed
    report(8, "PPA H1+H2, GDM H1+H3 (fails at beta=1.5, index 0), q-power RCLASS(2, 1)")


# Designated certified runs for the distance-verdict property suite.  The
# modulus link uses the inverse of whichever map supplied each run's
# witnesses: the forward map for proximal runs, the gradient map otherwise.
def _designated_runs():
    return {
        "square": (
            lambda e: run_gdm(e, 0.25, [1.0]),
            lambda tr: check_h1(tr, 1.0).passed and check_h3(tr, 4.0).passed,
        ),
        "double-well": (
            lambda e: run_gdm(e, 0.1, [0.8]),
            lambda tr: check_h1(tr, 1.0).passed and check_h3(tr, 10.0).passed,
        ),
        "abs-subdiff": (
            lambda e: run_ppa(e, 0.3, [1.0]),
            lambda tr: check_h1(tr, 1.0 / 0.6).passed and check_h2(tr, 1.0 / 0.3).passed,
        ),
        "quad": (
            lambda e: run_ppa(e, 1.0, [4.0]),
            lambda tr: check_h1(tr, 0.5).passed and check_h2(tr, 1.0).passed,
        ),
        "quad2": (
            lambda e: run_ppa(e, 1.0, [2.0, 2.0]),
            lambda tr: check_h1(tr, 0.5).passed and check_h2(tr, 1.0).passed,
        ),
        "linear-neg": (
            lambda e: run_shifted_ppa(e, 0.5, 2.0, [1.0]),
            lambda tr: check_rclass(tr, 0.5, 1.0).passed,
        ),
        "dc-quad": (
            lambda e: run_dca(e, 1.0, [1.0]),
            lambda tr: check_h1(tr, 1.0).passed and check_rclass(tr, 1.5, 1.0).passed,
        ),
    }


def test_criterion_9_distance_property_suite():
    runs = _designated_runs()
    converged_entries = []
    for name, (make, certified) in runs.items():
        entry = catalog_lookup(name)
        window = Window.box([0.0] * entry.dim_out, [10.0] * entry.dim_out)
        graph = closed_graph_test(invert(entry), [0.0] * entry.dim_out, window)
        assert graph.passed, f"{name}: inverse graph probe"
        trace = make(entry)
        assert certified(trace), f"{name}: certificates"
        verdict = distance_trace(trace, entry.solution_set, 1e-6)
        assert verdict.converged, f"{name}: distance verdict"
        converged_entries.append(name)

    # slow selections keep flat-exp out of the certified suite: its inverse
    # probe is inconclusive, so the premise of the property does not apply
    assert closed_graph_test(invert(catalog_lookup("flat-exp")), [0.0], K10).verdict == "inconclusive"

    # the gradient-map inverses backing the modulus link are closed at 0 too
    for name in ("square", "quad", "dc-quad"):
        gi = catalog_lookup(name).grad_inverse
        assert closed_graph_test(gi, [0.0], K10).passed, name

    # modulus link on the square run (gradient witnesses -> gradient inverse)
    sq = catalog_lookup("square")
    sq_trace = run_gdm(sq, 0.25, [1.0])
    sq_curve = estimate_modulus(sq.grad_inverse, [0.0], None,
                                list(np.geomspace(1e-13, 2.0, 30)), 17, seed=0)
    sq_verdict = distance_trace(sq_trace, sq.solution_set, 1e-6, modulus=sq_curve)
    assert sq_verdict.link_checked > 0
    assert sq_verdict.link_ok and not sq_verdict.link_out_of_range

    # modulus link on the soft-threshold run (operator witnesses -> inverse)
    ab = catalog_lookup("abs-subdiff")
    ab_trace = run_ppa(ab, 0.3, [1.0])
    ab_curve = estimate_modulus(invert(ab), [0.0], K10,
                                list(np.geomspace(0.01, 1.0, 9)) + [2.0], 65, seed=0)
    ab_verdict = distance_trace(ab_trace, ab.solution_set, 1e-6, modulus=ab_curve)
    assert ab_verdict.link_checked > 0
    assert ab_verdict.link_ok and not ab_verdict.link_out_of_range
    report(9, f"converged verdicts on {', '.join(converged_entries)}; modulus link holds")


# radii chosen so the 4096-point dense grid resolves every radius to well
# under the 10% agreement budget
_ONE_D_RADII = {
    "rm1": (K10, list(np.geomspace(1e-3, 5e-2, 8))),
    "flat-exp": (None, list(np.geomspace(0.3, 1.0, 8))),
    "square": (None, list(np.geomspace(5e-2, 1.0, 8))),
    "double-well": (None, list(np.geomspace(5e-2, 1.0, 8))),
    "abs-subdiff": (None, list(np.geomspace(5e-2, 1.0, 8))),
    "quad": (None, list(np.geomspace(5e-2, 1.0, 8))),
    "linear-neg": (None, list(np.geomspace(5e-2, 1.0, 8))),
    "dc-quad": (None, list(np.geomspace(5e-2, 1.0, 8))),
}


def test_criterion_10_oracle_equivalence_and_determinism(tmp_path):
    for name, (window, radii) in _ONE_D_RADII.items():
        m = catalog_lookup(name).forward
        coarse = estimate_modulus(m, [0.0], window, radii, samples_per_radius=64, seed=0)
        dense = brute_force_modulus(m, [0.0], window, radii, n_dense=4096)
        assert curves_agree(coarse.rho_hat, dense), name

    raw = {
        "kind": "full-pipeline",
        "operator": "abs-subdiff",
        "algorithm": {"name": "ppa", "gamma": 0.3, "x0": [1.0]},
        "analysis": {
            "window": {"kind": "box", "center": [0.0], "extent": [10.0]},
            "radii": list(np.geomspace(0.01, 1.0, 9)) + [2.0],
            "samples_per_radius": 65,
        },
        "certificates": [{"hypothesis": "H2", "beta": 1.0 / 0.3}],
    }
    r1 = run_experiment(ExperimentConfig.from_dict(raw), out_dir=tmp_path / "a")
    r2 = run_experiment(ExperimentConfig.from_dict(json.loads(json.dumps(raw))), out_dir=tmp_path / "b")
    assert r1.manifest == r2.manifest
    for fname in list(r1.manifest) + ["report.json"]:
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    elapsed = time.perf_counter() - _SUITE_START
    assert elapsed < 60.0
    report(10, f"coarse/dense curves agree on 8 entries; byte-identical reruns; {elapsed:.1f}s")
