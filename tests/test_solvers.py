import math

import numpy as np
import pytest

from rcontinuity import (
    MissingOracleError,
    StopRule,
    Window,
    catalog_lookup,
    check_h1,
    make_synthetic_trace,
    run_dca,
    run_gdm,
    run_ppa,
    run_qpower_prox,
    run_shifted_ppa,
)


def scalar_iterates(trace):
    return [float(x[0]) for x in trace.iterates]


def witness_member_errors(trace, entry):
    """Distance of every recorded witness to the map it claims to belong to."""
    m = getattr(entry, trace.witness_map)
    big = Window.box([0.0] * m.dim_out, [1e6] * m.dim_out)
    errs = []
    for k, w in zip(trace.witness_indices, trace.witness_points):
        x = trace.iterates[k]
        if m.window_required:
            errs.append(m.member_dist(x, w, big))
        else:
            errs.append(m.member_dist(x, w))
    return errs


class TestResolvent:
    def test_soft_threshold(self):
        assert catalog_lookup("abs-subdiff").prox.resolve(0.3, [1.0]) == pytest.approx([0.7])

    def test_identity_gradient(self):
        assert catalog_lookup("quad").prox.resolve(1.0, [2.0]) == pytest.approx([1.0])

    def test_negative_linear(self):
        assert catalog_lookup("linear-neg").prox.resolve(0.25, [1.0]) == pytest.approx([2.0])

    def test_out_of_range_gamma(self):
        with pytest.raises(ValueError):
            catalog_lookup("linear-neg").prox.resolve(0.5, [1.0])


class TestPpa:
    def test_finite_termination_on_soft_threshold(self):
        trace = run_ppa(catalog_lookup("abs-subdiff"), 0.3, [1.0])
        assert scalar_iterates(trace) == pytest.approx([1.0, 0.7, 0.4, 0.1, 0.0, 0.0], abs=1e-12)
        assert trace.termination == "tolerance"

    def test_geometric_contraction(self):
        trace = run_ppa(catalog_lookup("quad"), 1.0, [4.0], StopRule(max_iter=12))
        assert scalar_iterates(trace) == pytest.approx([4.0 * 2.0 ** (-k) for k in range(13)])

    def test_fejer_monotonicity_on_monotone_entries(self):
        for name in ("abs-subdiff", "quad", "quad2", "dc-quad"):
            entry = catalog_lookup(name)
            x0 = [1.3] * entry.dim_in
            trace = run_ppa(entry, 0.7, x0, StopRule(max_iter=200))
            for xb in entry.solution_set.sample(5, seed=0):
                dists = [np.linalg.norm(x - xb) for x in trace.iterates]
                assert all(b <= a + 1e-12 for a, b in zip(dists[:-1], dists[1:])), name

    def test_witness_membership(self):
        # linear-neg contracts only for gamma > 1 (resolvent factor 1/(1-2g))
        gammas = {"linear-neg": 2.0}
        for name in ("abs-subdiff", "quad", "quad2", "linear-neg", "dc-quad"):
            entry = catalog_lookup(name)
            gamma = gammas.get(name, 0.7)
            trace = run_ppa(entry, gamma, [0.9] * entry.dim_in, StopRule(max_iter=60))
            assert max(witness_member_errors(trace, entry)) <= 1e-9, name

    def test_requires_prox(self):
        with pytest.raises(MissingOracleError):
            run_ppa(catalog_lookup("square"), 1.0, [1.0])

    def test_gamma_positive(self):
        with pytest.raises(ValueError):
            run_ppa(catalog_lookup("quad"), 0.0, [1.0])

    def test_deterministic(self):
        a = run_ppa(catalog_lookup("quad2"), 0.9, [1.0, -2.0])
        b = run_ppa(catalog_lookup("quad2"), 0.9, [1.0, -2.0])
        assert np.array_equal(np.asarray(a.iterates), np.asarray(b.iterates))


class TestGdm:
    def test_halving_recursion(self):
        trace = run_gdm(catalog_lookup("quad"), 0.5, [1.0], StopRule(max_iter=20))
        assert scalar_iterates(trace) == pytest.approx([0.5 ** k for k in range(21)])

    def test_decrease_identity_supports_h1(self):
        trace = run_gdm(catalog_lookup("quad"), 0.5, [1.0], StopRule(max_iter=30))
        xs = scalar_iterates(trace)
        for k in range(len(xs) - 1):
            drop = trace.f_values[k] - trace.f_values[k + 1]
            assert drop == pytest.approx(0.375 * xs[k] ** 2, rel=1e-12)
            assert trace.step_norms[k] ** 2 == pytest.approx(0.25 * xs[k] ** 2, rel=1e-12)
        assert check_h1(trace, 1.0).passed

    def test_unstable_step_hits_divergence_guard(self):
        trace = run_gdm(catalog_lookup("quad"), 3.0, [1.0])
        assert trace.termination == "divergence"
        assert trace.diverged

    def test_witness_membership(self):
        trace = run_gdm(catalog_lookup("double-well"), 0.1, [0.8], StopRule(max_iter=100))
        entry = catalog_lookup("double-well")
        assert max(witness_member_errors(trace, entry)) <= 1e-9

    def test_non_finite_step_diverges_unrecorded(self):
        trace = run_gdm(catalog_lookup("quad"), 1e300, [1e10])
        assert trace.diverged
        assert scalar_iterates(trace) == [1e10]
        assert np.isfinite(trace.iterates).all()

    def test_requires_gradient(self):
        with pytest.raises(MissingOracleError):
            run_gdm(catalog_lookup("abs-subdiff"), 0.5, [1.0])


class TestQpower:
    def test_quadratic_closed_form(self):
        trace = run_qpower_prox(catalog_lookup("quad"), 1.0, 2.0, [1.0], StopRule(max_iter=15))
        assert scalar_iterates(trace) == pytest.approx([(2.0 / 3.0) ** k for k in range(16)])

    def test_witness_norm_identity(self):
        for gamma, q in ((1.0, 2.0), (1.0, 1.5), (0.7, 2.0)):
            trace = run_qpower_prox(catalog_lookup("quad"), gamma, q, [1.0], StopRule(max_iter=25))
            for w, xi in zip(trace.witness_points, trace.xi_values):
                if xi == 0.0:
                    continue
                assert np.linalg.norm(w) == pytest.approx(gamma * q * xi ** (q - 1.0), rel=1e-9)

    def test_scalar_subproblem_stationarity(self):
        # no closed form: checked through membership of the stationarity witness
        entry = catalog_lookup("square")
        trace = run_qpower_prox(entry, 1.0, 1.5, [0.8], StopRule(max_iter=40))
        assert max(witness_member_errors(trace, entry)) <= 1e-9

    def test_q_below_one_rejected(self):
        with pytest.raises(ValueError):
            run_qpower_prox(catalog_lookup("quad"), 1.0, 0.5, [1.0])

    def test_multidim_quadratic_allowed(self):
        trace = run_qpower_prox(catalog_lookup("quad2"), 1.0, 2.0, [1.0, 1.0], StopRule(max_iter=200))
        assert trace.termination == "tolerance"

    def test_multidim_nonquadratic_rejected(self):
        entry = catalog_lookup("quad2")
        with pytest.raises(ValueError):
            run_qpower_prox(entry, 1.0, 1.5, [1.0, 1.0], StopRule(max_iter=3))


class TestDca:
    def test_three_quarter_contraction(self):
        trace = run_dca(catalog_lookup("dc-quad"), 1.0, [1.0], StopRule(max_iter=60))
        expected = [0.75 ** k for k in range(len(trace))]
        assert scalar_iterates(trace) == pytest.approx(expected, abs=1e-12)

    def test_residual_vanishes(self):
        trace = run_dca(catalog_lookup("dc-quad"), 1.0, [1.0])
        norms = trace.witness_norms
        assert norms[0] == pytest.approx(0.375, rel=1e-12)
        assert norms[-1] < 1e-9

    def test_witness_membership(self):
        entry = catalog_lookup("dc-quad")
        trace = run_dca(entry, 1.0, [1.0], StopRule(max_iter=50))
        assert max(witness_member_errors(trace, entry)) <= 1e-9

    def test_requires_dc_split(self):
        with pytest.raises(MissingOracleError):
            run_dca(catalog_lookup("quad"), 1.0, [1.0])

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            run_dca(catalog_lookup("dc-quad"), -0.5, [1.0])


class TestShiftedPpa:
    def test_tight_ledger_case(self):
        trace = run_shifted_ppa(catalog_lookup("linear-neg"), 0.5, 2.0, [1.0])
        assert scalar_iterates(trace)[1] == pytest.approx(-1.0 / 3.0)
        assert abs(trace.fejer_ledger[0]) < 1e-15
        assert trace.termination == "tolerance"
        assert max(trace.fejer_ledger) <= 1e-12

    def test_reciprocal_range_diverges(self):
        trace = run_shifted_ppa(
            catalog_lookup("linear-neg"), 0.5, 0.25, [1.0], step_condition="reciprocal"
        )
        assert trace.diverged
        assert len(trace) <= 50

    def test_mode_validation(self):
        entry = catalog_lookup("linear-neg")
        with pytest.raises(ValueError):
            run_shifted_ppa(entry, 0.5, 0.25, [1.0])  # derived mode needs gamma > 2 kappa
        with pytest.raises(ValueError):
            run_shifted_ppa(entry, 0.5, 2.0, [1.0], step_condition="reciprocal")
        with pytest.raises(ValueError):
            run_shifted_ppa(entry, -1.0, 2.0, [1.0])

    def test_resolvent_must_be_single_valued_at_gamma(self):
        # gamma = 1/2 satisfies the reciprocal step bound but sits outside
        # the resolvent's declared single-valued domain
        with pytest.raises(ValueError):
            run_shifted_ppa(catalog_lookup("linear-neg"), 0.2, 0.5, [1.0],
                            step_condition="reciprocal")

    def test_witness_membership(self):
        entry = catalog_lookup("linear-neg")
        trace = run_shifted_ppa(entry, 0.5, 2.0, [1.0])
        assert max(witness_member_errors(trace, entry)) <= 1e-9


class TestTraceBookkeeping:
    def test_step_norms_off_by_one(self):
        trace = run_ppa(catalog_lookup("quad"), 1.0, [4.0], StopRule(max_iter=8))
        assert len(trace.step_norms) == len(trace.iterates) - 1

    def test_summability_under_sufficient_decrease(self):
        cases = [
            (run_gdm(catalog_lookup("quad"), 0.5, [1.0]), 1.0),
            (run_ppa(catalog_lookup("abs-subdiff"), 0.3, [1.0]), 1.0 / 0.6),
            (run_qpower_prox(catalog_lookup("quad"), 1.0, 2.0, [1.0]), 1.0),
        ]
        for trace, alpha in cases:
            entry_inf = 0.0
            total = sum(d ** 2 for d in trace.step_norms)
            assert total <= (trace.f_values[0] - entry_inf) / alpha + 1e-6

    def test_synthetic_trace_validation(self):
        with pytest.raises(ValueError):
            make_synthetic_trace([[0.0], [1.0]], witnesses=[(0, [0.0])], xi_values=[])

    def test_max_iter_termination(self):
        trace = run_gdm(catalog_lookup("quad"), 0.5, [1.0], StopRule(max_iter=3))
        assert trace.termination == "max_iter"
        assert len(trace) == 4
