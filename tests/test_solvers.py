import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rcontinuity import (
    IterateTrace,
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
from rcontinuity.serialize import trace_to_csv
from rcontinuity import catalog, solvers
from rcontinuity.setmap import MissingOracleError as NoOracle
from rcontinuity.setmap import ParamError, ProxOracle, RowForm, ScalarForm, oracle_rows
from rcontinuity.solvers import _brentq, _fminbound, _norm, _norm1, check


def scalar_iterates(trace):
    return [float(x[0]) for x in trace.iterates]


def witness_member_errors(trace, entry):
    """Distance of every recorded witness to the map it claims to belong to."""
    m = getattr(entry, solvers.ALGORITHMS[trace.algorithm].witness_map)
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
            for xb in entry.solution_set.points:
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

    def test_2d_grad_once_per_step_and_once_over_the_trace(self):
        # quad2's grad is a RowForm: the loop calls its point once per step, and the
        # witnesses take it at every iterate but the last in one rows call after the loop
        entry = catalog_lookup("quad2")
        calls = []
        counted = dataclasses.replace(entry, grad=RowForm(
            lambda X: calls.append(("rows", X)) or entry.grad.rows(X),
            lambda x: calls.append(("point", x)) or entry.grad.point(x)))
        trace = run_gdm(counted, 0.3, [2.0, -1.0])
        assert trace.termination == "tolerance"
        points = [x for kind, x in calls if kind == "point"]
        assert np.array(points).tobytes() == trace.iterates[:-1].tobytes()  # one per step
        assert [kind for kind, _ in calls].count("rows") == 1 and calls[-1][0] == "rows"  # after the loop
        assert calls[-1][1].tobytes() == trace.iterates[:-1].tobytes()

    def test_non_finite_step_diverges_unrecorded(self):
        trace = run_gdm(catalog_lookup("quad"), 1e300, [1e10])
        assert trace.diverged
        assert scalar_iterates(trace) == [1e10]
        assert np.isfinite(trace.iterates).all()

    def test_finite_step_past_the_dot_overflow_is_recorded(self):
        # ||1e200 - 5e199|| squares past the float range; the step is still finite
        trace = run_gdm(catalog_lookup("quad"), 0.5, [1e200])
        assert scalar_iterates(trace) == [1e200, 5e199]
        assert trace.step_norms.tolist() == [5e199]
        assert trace.termination == "divergence"

    def test_overflowing_gradient_diverges_unrecorded(self):
        trace = run_gdm(catalog_lookup("double-well"), 0.01, [1e110])
        assert trace.diverged
        assert scalar_iterates(trace) == [1e110]

    def test_step_of_another_shape_is_rejected(self):
        entry = dataclasses.replace(catalog_lookup("quad"), grad=lambda x: np.array([x[0], x[0]]))
        with pytest.raises(ValueError, match="shape"):
            run_gdm(entry, 0.5, [1.0])

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

    @pytest.mark.parametrize("q", [2.5, 3.0, 4.0])
    @pytest.mark.parametrize("x0", [1e160, 1e200, 1e300])
    def test_overflowing_f_diverges_unrecorded(self, q, x0):
        # f(x0) overflows, so the subproblem's bracket has no finite bound
        trace = run_qpower_prox(catalog_lookup("quad"), 1.0, q, [x0])
        assert trace.diverged
        assert scalar_iterates(trace) == [x0]

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

    def test_gamma_outside_the_resolvent_range_is_refused_up_front(self):
        # g's resolvent is single-valued only for gamma < 1: check refuses gamma = 2
        # before the first step, as it does for the prox algorithms
        entry = catalog_lookup("dc-quad")
        g_prox = ProxOracle(entry.dc.g_prox.resolvent, valid_gamma=lambda g: 0 < g < 1, note="gamma < 1")
        narrow = dataclasses.replace(entry, dc=dataclasses.replace(entry.dc, g_prox=g_prox))
        with pytest.raises(ParamError, match="resolvent's range") as info:
            check("dca", narrow, gamma=2.0)
        assert info.value.param == "gamma"
        with pytest.raises(ParamError, match="resolvent's range"):
            run_dca(narrow, 2.0, [1.0])
        assert run_dca(narrow, 0.5, [1.0]).termination == "tolerance"

    @pytest.mark.parametrize("gamma, x0", [(1.0, [1.0]), (0.002, [1.0]), (3.0, [-7.5])])
    def test_grad_h_once_per_step_and_once_over_the_trace(self, gamma, x0):
        # a counting ScalarForm keeps the float path: the loop takes ∇h(x_k) on a
        # float once per step, and the witnesses take it at every iterate in one
        # column call after the loop
        entry = catalog_lookup("dc-quad")
        form, calls = entry.dc.h_grad.form, []

        def h(t):
            calls.append(t)
            return form(t)

        counted = dataclasses.replace(entry, dc=dataclasses.replace(entry.dc, h_grad=ScalarForm(h, (1,))))
        trace = run_dca(counted, gamma, x0)
        assert trace.termination == "tolerance"
        floats = [t for t in calls if type(t) is float]
        columns = [t for t in calls if type(t) is not float]
        assert floats == scalar_iterates(trace)[:-1]  # one per step
        assert len(columns) == 1 and columns[0].tolist() == scalar_iterates(trace)
        assert calls[-1] is columns[0]  # after the loop


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

    def test_ledger_past_the_square_overflow(self):
        # ||x - xbar||**2 overflows at both starts; the true entry -(2/3) x0**2
        # is below the float range at 1e200 and representable at 1.5e154
        entry = catalog_lookup("quad")
        assert run_shifted_ppa(entry, 0.5, 2.0, [1e200]).fejer_ledger.tolist() == [-math.inf]
        ledger = run_shifted_ppa(entry, 0.5, 2.0, [1.5e154]).fejer_ledger
        assert len(ledger) == 1
        assert ledger[0] == pytest.approx(-1.5e308, rel=1e-12)

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

    @pytest.mark.parametrize("operator, run", [
        ("quad", lambda entry: run_gdm(entry, 0.5, [1e200])),  # f overflows at x0
        ("quad2", lambda entry: run_gdm(entry, 0.1, [3.0, -2.0])),  # no row-wise f
        ("flat-exp", lambda entry: run_gdm(entry, 0.5, [0.5], StopRule(max_iter=200))),  # f underflows
        ("double-well", lambda entry: run_qpower_prox(entry, 1.0, 1.5, [2.0], StopRule(max_iter=50))),
        ("dc-quad", lambda entry: run_dca(entry, 0.5, [1.0])),
        ("abs-subdiff", lambda entry: run_ppa(entry, 0.3, [1.0])),
        ("linear-neg", lambda entry: run_shifted_ppa(entry, 0.5, 2.0, [1.0])),
    ], ids=["quad", "quad2", "flat-exp", "double-well", "dc-quad", "abs-subdiff", "linear-neg"])
    def test_f_values_are_the_scalar_f_at_each_iterate(self, operator, run):
        entry = catalog_lookup(operator)
        trace = run(entry)
        assert len(trace) > 1
        assert trace.f_values.tobytes() == np.array([float(entry.f(x)) for x in trace.iterates]).tobytes()


# -- the lean step against the loop it replaced --------------------------------

# signed zeros, subnormals, and magnitudes up to 1e150 (squares stay finite)
_NORM_COORD = st.one_of(
    st.floats(-1e150, 1e150),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160, 1e150, -1e150]),
)


class TestNorm:
    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(st.lists(_NORM_COORD, min_size=1, max_size=2))
    @example([-0.0, -0.0])
    @example([5e-324, -5e-324])
    def test_bit_for_bit_numpy_norm(self, coords):
        v = np.array(coords)
        assert _norm(v).hex() == float(np.linalg.norm(v)).hex()

    def test_finite_past_the_dot_overflow(self):
        with np.errstate(over="ignore"):
            assert math.isinf(float(np.linalg.norm(np.array([1e200]))))
            assert _norm(np.array([1e200])) == 1e200
            assert _norm(np.array([-3e200, 4e200])) == pytest.approx(5e200, rel=1e-15)
            assert _norm(np.array([1.7e308, 1.7e308])) == pytest.approx(1.7e308 * math.sqrt(2.0), rel=1e-15)

    @settings(derandomize=True, max_examples=1000, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(1.3e154)
    @example(-1.7976931348623157e308)
    @example(1e-170)
    def test_norm1_is_the_one_element_norm(self, d):
        with np.errstate(over="ignore", invalid="ignore"):
            want = _norm(np.array([d]))
        assert _norm1(d).hex() == want.hex()

    def test_a_2d_norm_past_the_dot_overflow_is_finite_and_silent_in_a_run(self):
        # a run scopes errstate(over="ignore") once around its loop, not per norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                assert _norm(np.array([1e200, 1e200])) == pytest.approx(1e200 * math.sqrt(2.0), rel=1e-15)
            trace = run_gdm(catalog_lookup("quad2"), 0.5, [1e200, 1e200])
        assert trace.diverged and len(trace) == 2
        assert trace.step_norms[0] == pytest.approx(1e200 * math.sqrt(1.25 ** 2 + 0.75 ** 2), rel=1e-15)
        assert np.isfinite(trace.witness_norms).all()

    @pytest.mark.parametrize("w", [0.0, -0.0, 5e-324, 1e-160, -2.5, 1.3e154, -1e200, 1.7976931348623157e308])
    def test_1d_witness_norms_are_the_per_row_norms(self, w):
        trace = make_synthetic_trace([[0.0], [1.0]], witnesses=[(1, [w]), (0, [-w])], xi_values=[1.0, 1.0])
        with np.errstate(over="ignore"):
            want = np.array([_norm(np.array([w])), _norm(np.array([-w]))])
        assert trace.witness_norms.tobytes() == want.tobytes()

    @pytest.mark.parametrize("w", [0.0, -0.0, 5e-324, 1e-160, -2.5, 1.3e154, -1e200, 1.7976931348623157e308])
    def test_2d_witness_and_step_norms_are_the_per_row_norms(self, w):
        iterates = [[0.0, 0.0], [w, 2.5], [w, w]]
        witnesses = [(1, [w, 2.5]), (0, [-w, w]), (2, [1e-200, w])]
        trace = make_synthetic_trace(iterates, witnesses=witnesses, xi_values=[1.0, 1.0, 1.0])
        with np.errstate(over="ignore"):
            steps = np.array([_norm(np.subtract(b, a)) for a, b in zip(iterates[:-1], iterates[1:])])
            norms = np.array([_norm(np.array(v)) for _, v in witnesses])
        assert trace.step_norms.tobytes() == steps.tobytes()
        assert trace.witness_norms.tobytes() == norms.tobytes()

    def test_non_finite_vectors(self):
        with np.errstate(invalid="ignore"):
            assert _norm(np.array([math.inf, 1.0])) == math.inf
            assert _norm(np.array([-math.inf])) == math.inf
            assert math.isnan(_norm(np.array([math.nan, 1.0])))


def reference_norm(v):
    """``np.linalg.norm(v)``, and ``m * norm(v / m)`` for ``m = max|v|`` where a
    finite ``v``'s squares overflow."""
    with np.errstate(over="ignore"):
        r = float(np.linalg.norm(v))
    if r == math.inf and np.isfinite(v).all():
        m = float(np.abs(v).max())
        return m * float(np.linalg.norm(v / m))
    return r


def reference_iterate(entry, x0, stop, step, algorithm, witness_side, ledger=None):
    """The driver loop as it was before the lean step: every norm on
    ``np.linalg.norm`` (:func:`reference_norm`), every witness and ledger entry
    taken per step, and no shape check."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    iterates, steps, w_pts = [x], [], []
    entries = None if ledger is None else []
    termination = "max_iter"
    for _ in range(stop.max_iter):
        xn, w = step(x)
        with np.errstate(over="ignore"):
            delta = reference_norm(xn - x)
        if not math.isfinite(delta):
            termination = "divergence"
            break
        if ledger is not None:
            entries.append(ledger(x, xn, delta))
        iterates.append(xn)
        steps.append(delta)
        w_pts.append(w)
        x = xn
        if reference_norm(xn) > stop.divergence_guard:
            termination = "divergence"
            break
        if delta <= stop.step_tol:
            termination = "tolerance"
            break
    first = 1 if witness_side == "next" else 0
    with np.errstate(over="ignore"):
        f_values = [float(entry.f(p)) for p in iterates]
    return IterateTrace(
        algorithm=algorithm, iterates=iterates, step_norms=steps, stop=stop, termination=termination,
        f_values=f_values, witness_indices=range(first, first + len(steps)),
        witness_points=w_pts, xi_values=steps, witness_side=witness_side,
        fejer_ledger=entries,
    )


def reference_run_dca(entry, gamma, x0, stop):
    """DCA that evaluates ``∇h(x_k)`` afresh at every step."""
    g_prox, h_grad = entry.dc.g_prox, entry.dc.h_grad

    def step(x):
        hx = np.asarray(h_grad(x), dtype=float)
        xn = g_prox.resolve(gamma, x + gamma * hx)
        return xn, hx - np.asarray(h_grad(xn), dtype=float) - (xn - x) / gamma

    return reference_iterate(entry, x0, stop, step, "dca", "next")


def reference_run_gdm(entry, step, x0, stop):
    """Gradient descent whose witness ``∇f(x_k)`` is the gradient its step takes."""
    def descend(x):
        g = np.asarray(entry.grad(x), dtype=float)
        with np.errstate(over="ignore"):
            return x - step * g, g

    return reference_iterate(entry, x0, stop, descend, "gdm", "current")


def reference_run_qpower(entry, gamma, q, x0, stop):
    """The power-penalty iteration whose witness ``-γ q Δ**(q-2) (x_{k+1} - x_k)`` is
    taken at every step, ``+0.0`` where Δ reads 0, and whose step is non-finite where
    the witness norm overflows; the subproblem is the runner's, on one-element arrays."""
    scalar, subproblem = solvers._qpower_subproblem(entry, gamma, q)
    solve = (lambda x: np.array([subproblem(float(x[0]))])) if scalar else subproblem

    def step(x):
        xn = solve(x)
        with np.errstate(over="ignore"):
            delta = reference_norm(xn - x)
        if not delta > 0:
            return xn, np.zeros_like(x)
        try:
            scale = -gamma * q * delta ** (q - 2.0)
        except OverflowError:
            scale = -math.inf
        if math.isinf(scale * delta):
            return x + math.inf, None
        return xn, scale * (xn - x)

    return reference_iterate(entry, x0, stop, step, "qpower", "next")


def reference_proximal_step(entry, gamma):
    """The resolvent step with its witness ``(x_k - x_{k+1}) / γ`` taken at every step."""
    def step(x):
        with np.errstate(over="ignore"):
            xn = entry.prox.resolve(gamma, x)
            return xn, (x - xn) / gamma

    return step


def reference_run_ppa(entry, gamma, x0, stop):
    """PPA whose witness is taken at every step."""
    return reference_iterate(entry, x0, stop, reference_proximal_step(entry, gamma), "ppa", "next")


def reference_run_shifted_ppa(entry, kappa, gamma, x0, stop):
    """Shifted PPA whose witness and ledger entry are taken at every step, with
    ``||x_k - xbar||`` computed afresh each time."""
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    xb = entry.solution_set.project(x)
    coeff = 1.0 - 2.0 * kappa / gamma

    def ledger(x, xn, delta):
        a, b = reference_norm(xn - xb), reference_norm(x - xb)
        try:
            value = a ** 2 - b ** 2 + coeff * delta ** 2
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):  # recomputed scaled by the largest norm
            m = max(a, b, delta)
            value = m * (m * ((a / m) ** 2 - (b / m) ** 2 + coeff * (delta / m) ** 2))
        return value

    step = reference_proximal_step(entry, gamma)
    return reference_iterate(entry, x, stop, step, "shifted-ppa", "next", ledger)


def _same_trace(got, want, tmp_path: Path):
    assert got.termination == want.termination
    assert got.fejer_ledger is None or got.fejer_ledger.tobytes() == want.fejer_ledger.tobytes()
    trace_to_csv(got, tmp_path / "got.csv")
    trace_to_csv(want, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestLeanStepMatchesReference:
    @pytest.mark.parametrize("operator, gamma, x0", [
        ("abs-subdiff", 0.3, [1.0]),  # finite termination at the kink
        ("quad", 0.5, [1.0]),
        ("quad", 0.5, [1e200]),  # Δ squares past the float range
        ("quad2", 0.5, [2.0, -1.0]),  # the array path
        ("quad2", 0.002, [2.0, 2.0]),
        ("linear-neg", 0.4, [1.0]),  # diverges past the guard
        ("linear-neg", 0.4999, [1e305]),  # the resolvent overflows: a non-finite step, unrecorded
    ])
    def test_ppa(self, operator, gamma, x0, tmp_path):
        entry, stop = catalog_lookup(operator), StopRule()
        got = run_ppa(entry, gamma, x0, stop)
        want = reference_run_ppa(entry, gamma, x0, stop)
        assert got.witness_points.tobytes() == want.witness_points.tobytes()
        _same_trace(got, want, tmp_path)

    @pytest.mark.parametrize("gamma, x0, max_iter", [
        (0.002, [1.0], 100_000), (1.0, [1.0], 100_000), (0.7, [-3.5], 100_000), (5.0, [2.0], 7),
    ])
    def test_dca(self, gamma, x0, max_iter, tmp_path):
        entry, stop = catalog_lookup("dc-quad"), StopRule(max_iter=max_iter)
        got, want = run_dca(entry, gamma, x0, stop), reference_run_dca(entry, gamma, x0, stop)
        assert got.witness_points.tobytes() == want.witness_points.tobytes()
        _same_trace(got, want, tmp_path)

    @pytest.mark.parametrize("operator, step, x0", [
        ("quad", 0.5, [1.0]),  # the float path
        ("double-well", 0.1, [0.8]),
        ("quad", 0.5, [1e200]),  # Δ squares past the float range
        ("quad2", 0.3, [2.0, -1.0]),  # the array path
        ("quad2", 0.01, [-4.0, 3.0]),
        ("double-well", 0.01, [1e110]),  # the gradient overflows: diverges unrecorded
        ("quad", 1e300, [1e10]),  # the step overflows
        ("linear-neg", 0.1, [1.0]),  # diverges past the guard
        ("flat-exp", 0.5, [0.5]),
        ("flat-exp", 1.0, [0.0375]),  # f and f' are subnormal
    ])
    def test_gdm(self, operator, step, x0, tmp_path):
        entry, stop = catalog_lookup(operator), StopRule()
        got, want = run_gdm(entry, step, x0, stop), reference_run_gdm(entry, step, x0, stop)
        assert got.witness_points.tobytes() == want.witness_points.tobytes()
        _same_trace(got, want, tmp_path)

    @pytest.mark.parametrize("operator, gamma, q, x0, max_iter", [
        ("square", 1.0, 1.5, [0.8], 200),  # the scalar minimizer
        ("double-well", 2.0, 2.5, [-0.7], 200),
        ("quad", 1.0, 2.0, [1.0], 100_000),  # the closed form on a 1-d quadratic
        ("quad2", 1.0, 2.0, [1.0, 1.0], 100_000),  # the closed form on arrays
        ("quad2", 0.3, 2.0, [-2.0, 5.0], 100_000),
        ("quad", 1.0, 2.0, [0.0], 100_000),  # a zero step: the +0.0 witness, not -2 * 0.0
        ("quad", 1.0, 2.0, [1e-170], 100_000),  # Δ underflows to 0: the +0.0 witness
        ("quad", 1.0, 2.0, [-1e-170], 100_000),
        ("linear-neg", 1.0, 4, [1e103], 3),  # the witness norm overflows: diverges unrecorded
    ])
    def test_qpower(self, operator, gamma, q, x0, max_iter, tmp_path):
        entry, stop = catalog_lookup(operator), StopRule(max_iter=max_iter)
        got, want = run_qpower_prox(entry, gamma, q, x0, stop), reference_run_qpower(entry, gamma, q, x0, stop)
        assert got.witness_points.tobytes() == want.witness_points.tobytes()
        _same_trace(got, want, tmp_path)

    @pytest.mark.parametrize("operator, kappa, gamma, x0, condition", [
        ("dc-quad", 0.1, 0.5, [3.0], "derived"),
        ("quad2", 5e-4, 0.002, [2.0, 2.0], "derived"),
        ("quad2", 0.2, 0.9, [-1.0, 3.0], "derived"),
        ("linear-neg", 0.5, 2.0, [1.0], "derived"),
        ("linear-neg", 0.5, 0.25, [1.0], "reciprocal"),
        ("quad", 0.5, 2.0, [1e200], "derived"),  # the ledger's squares overflow: the scaled recompute
        ("quad", 0.5, 2.0, [1.5e154], "derived"),  # ... and its entry is finite
        ("linear-neg", 0.5, 0.4999, [1.0], "reciprocal"),  # diverges past the guard
        ("linear-neg", 0.5, 0.4999, [1e305], "reciprocal"),  # a non-finite step, unrecorded
    ])
    def test_shifted_ppa(self, operator, kappa, gamma, x0, condition, tmp_path):
        entry, stop = catalog_lookup(operator), StopRule()
        got = run_shifted_ppa(entry, kappa, gamma, x0, stop, step_condition=condition)
        want = reference_run_shifted_ppa(entry, kappa, gamma, x0, stop)
        assert got.witness_points.tobytes() == want.witness_points.tobytes()
        _same_trace(got, want, tmp_path)
        assert len(got.fejer_ledger) == len(got) - 1


# -- the bounded Brent port against scipy --------------------------------------

_ONE_D_WITH_F = ["square", "double-well", "flat-exp", "abs-subdiff", "quad", "dc-quad", "linear-neg"]


def scipy_bounded(func, lo, hi):
    """scipy's bounded Brent minimizer, with the options the qpower subproblem used.
    Its own steps overflow on extreme objectives; ``errstate`` silences that and changes no value."""
    from scipy.optimize import minimize_scalar

    with np.errstate(over="ignore", invalid="ignore"):
        return float(minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12}).x)


def _same_float(a: float, b: float) -> bool:
    """Float ``==`` that also tells signed zeros apart and takes NaN as equal to NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _penalized(entry, gamma, q, c):
    """``f(t) + γ|t - c|**q`` on the entry's array oracle, for a Python float or a numpy scalar."""
    return lambda t: entry.f(np.array([t])) + gamma * abs(t - c) ** q


def _brackets(seed: int, count: int):
    """Seeded ``(c, gamma, q, span)`` draws: centres from 1e-3 to 1e3 of either sign."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3))
        yield (c, float(10.0 ** rng.uniform(-2, 1)), float(rng.choice([1.01, 1.25, 1.5, 2.0, 3.0, 4.5])),
               float(10.0 ** rng.uniform(-6, 1)) * (1.0 + abs(c)))


class TestBoundedBrentPort:
    @pytest.mark.parametrize("operator", _ONE_D_WITH_F)
    def test_catalog_f_plus_power_penalty(self, operator):
        entry = catalog_lookup(operator)
        for c, gamma, q, span in _brackets(sum(map(ord, operator)), 60):
            obj = _penalized(entry, gamma, q, c)
            got, want = _fminbound(obj, c - span, c + span), scipy_bounded(obj, c - span, c + span)
            assert _same_float(got, want), (c, gamma, q, span, got, want)

    @pytest.mark.parametrize("func, lo, hi", [
        (lambda t: 1.0, -2.0, 3.0),  # constant
        (lambda t: 0.0, 0.0, 1e-300),  # constant on a subnormal-sized bracket
        (abs, -1.0, 2.0),
        (abs, -3.0, -1.0),  # the minimum at the bracket's end
        (lambda t: math.inf if t > 0.3 else (t - 0.1) ** 2, -1.0, 1.0),
        (lambda t: math.inf if t < 0.5 else t, -4.0, 1.0),
        (lambda t: math.nan if t < 0.0 else t * t, -1.0, 1.0),
        (lambda t: math.nan, -1.0, 1.0),
        (lambda t: -math.inf if abs(t) < 1e-3 else t * t, -1.0, 1.0),
        (lambda t: (t - 1e6) ** 2, 0.0, 1e7),
        (lambda t: math.cos(t), -10.0, 10.0),
        # plateaus: a golden step of exactly 0 moves by +tol1 (scipy's sign(0) + 1)
        (lambda t: round((float(t) - 0.5) ** 2, 3), 0.0, 1.0),
        # a parabolic step that lands exactly on its acceptance bound is refused
        (lambda t: t ** 4 - t ** 2, -1.0, 2.2228839570394894),
        (abs, -1e308, 1.7e308),  # finite bounds whose width overflows
    ], ids=["constant", "constant-tiny", "abs", "abs-edge", "inf-above", "inf-below", "nan-below",
            "nan", "minus-inf", "far", "cos", "plateaus", "parabola-bound", "overflowing-width"])
    def test_objective(self, func, lo, hi):
        got, want = _fminbound(func, lo, hi), scipy_bounded(func, lo, hi)
        assert _same_float(got, want), (got, want)

    def test_the_500_evaluation_cap(self):
        calls = {"port": 0, "scipy": 0}

        def counted(side):
            def func(t):
                calls[side] += 1
                return abs(t)
            return func

        # a bracket of 1e300 around 0: far more golden sections than 500 evaluations
        got, want = _fminbound(counted("port"), -1e300, 7e299), scipy_bounded(counted("scipy"), -1e300, 7e299)
        assert calls == {"port": 500, "scipy": 500}
        assert _same_float(got, want)

    def test_unbounded_brackets_are_refused(self):
        with pytest.raises(ValueError, match="finite"):
            _fminbound(abs, -math.inf, 1.0)


def port_brentq(func, lo, hi):
    """``_brentq`` as the polish calls it, on the end values evaluated first."""
    return _brentq(func, lo, hi, func(lo), func(hi))


def scipy_brentq(func, lo, hi):
    """``(x, converged)`` of scipy's ``brentq`` with the polish's tolerances; ``x``
    is the last iterate where it does not converge."""
    from scipy.optimize import brentq

    x, result = brentq(func, lo, hi, xtol=1e-15, rtol=1e-15, full_output=True, disp=False)
    return x, result.converged


#: Families of functions with a root near ``c``.
_ROOT_FAMILIES = {
    "cubic": lambda c: lambda x: x ** 3 - c ** 3,
    "exp": lambda c: lambda x: math.exp(x) - math.exp(c),
    "sin": lambda c: lambda x: math.sin(x) - math.sin(c),
    "steep": lambda c: lambda x: math.atan(1e6 * (x - c)),
    "cusp": lambda c: lambda x: math.copysign(abs(x - c) ** 0.3, x - c),
    "step": lambda c: lambda x: -1.0 if x < c else 1.0,
    # products of two values underflow to -0.0: signs are compared by sign bit
    "tiny": lambda c: lambda x: 1e-200 * (x - c),
    # the values read -inf and +inf away from the root: interpolation gives NaN, so it bisects
    "infinite": lambda c: lambda x: math.copysign(math.inf, x - c) if abs(x - c) > 1e-3 else x - c,
}


def _sign_changes(func, lo, hi) -> bool:
    flo, fhi = func(lo), func(hi)
    return flo != 0.0 and fhi != 0.0 and math.copysign(1.0, flo) != math.copysign(1.0, fhi)


class TestBrentqPort:
    @pytest.mark.parametrize("family", sorted(_ROOT_FAMILIES))
    def test_random_brackets(self, family):
        rng = np.random.default_rng(sum(map(ord, family)))
        checked = 0
        for _ in range(400):
            c = float(rng.uniform(-2.0, 2.0))
            lo, hi = c - float(10.0 ** rng.uniform(-8, 1)), c + float(10.0 ** rng.uniform(-8, 1))
            if rng.random() < 0.5:
                lo, hi = hi, lo
            func = _ROOT_FAMILIES[family](c)
            if not _sign_changes(func, lo, hi):
                continue
            got, want = port_brentq(func, lo, hi), scipy_brentq(func, lo, hi)
            assert _same_float(got[0], want[0]) and got[1] == want[1], (c, lo, hi, got, want)
            checked += 1
        assert checked >= 200

    @pytest.mark.parametrize("operator", [op for op in _ONE_D_WITH_F if catalog_lookup(op).grad is not None])
    def test_the_polish_slopes(self, operator):
        # the stationarity equation of the qpower subproblem, on the entry's array oracle
        grad = catalog_lookup(operator).grad
        checked = 0
        for c, gamma, q, span in _brackets(sum(map(ord, operator)), 60):
            def slope(u, c=c, gamma=gamma, q=q):
                pen = gamma * q * abs(u - c) ** (q - 1.0) * math.copysign(1.0, u - c) if u != c else 0.0
                return float(grad(np.array([u]))[0]) + pen

            if not _sign_changes(slope, c - span, c + span):
                continue
            got, want = port_brentq(slope, c - span, c + span), scipy_brentq(slope, c - span, c + span)
            assert _same_float(got[0], want[0]) and got[1] == want[1], (c, gamma, q, span, got, want)
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("func, lo, hi", [
        (lambda x: x - 1.0, 1.0, 3.0),  # a root at the first end
        (lambda x: x - 1.0, -2.0, 1.0),  # a root at the second end
        (lambda x: x, -0.0, 1.0),  # a root at -0.0, returned with its sign
        (lambda x: x, -1.0, 2.0),
        (lambda x: 2.0 - x ** 3, 0.0, 3.0),
    ], ids=["at-a", "at-b", "at-minus-zero", "through-zero", "cube-root"])
    def test_exact_roots(self, func, lo, hi):
        got, want = port_brentq(func, lo, hi), scipy_brentq(func, lo, hi)
        assert got[1] and _same_float(got[0], want[0])

    @pytest.mark.parametrize("family", sorted(_ROOT_FAMILIES))
    def test_the_end_values_passed_in_are_not_evaluated_again(self, family):
        # scipy evaluates both ends first; the port takes those two values from its caller
        func, lo, hi = _ROOT_FAMILIES[family](0.3), -1.0, 2.0
        calls = {"port": [], "scipy": []}

        def counted(who):
            return lambda x: calls[who].append(x) or func(x)

        got = _brentq(counted("port"), lo, hi, func(lo), func(hi))
        want = scipy_brentq(counted("scipy"), lo, hi)
        assert calls["scipy"][:2] == [lo, hi] and calls["port"] == calls["scipy"][2:]
        assert _same_float(got[0], want[0]) and got[1] == want[1]

    @pytest.mark.parametrize("func, lo, hi", [
        (lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0),  # NaN at the second end
        (lambda x: math.nan if 0.3 < x < 0.6 else x - 0.45, 0.0, 1.0),  # NaN inside the bracket
        (lambda x: x * x + 1.0, -1.0, 1.0),  # no sign change
    ], ids=["nan-end", "nan-inside", "same-sign"])
    def test_refusals_match_scipy(self, func, lo, hi):
        from scipy.optimize import brentq

        with pytest.raises(ValueError) as want:
            brentq(func, lo, hi, xtol=1e-15, rtol=1e-15)
        with pytest.raises(ValueError) as got:
            port_brentq(func, lo, hi)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("func, lo, hi", [
        # a step over a bracket of 3e300: interpolation only bisects, and 100
        # halvings leave the bracket far wider than the tolerance at the root, 0
        (lambda x: math.copysign(1.0, x), -1e300, 2e300),
        # a triple root at 0: the values vanish long before the absolute tolerance is met
        (lambda x: -x ** 3, -3.0, 0.5),
    ], ids=["step", "triple-root"])
    def test_a_bracket_that_does_not_converge_in_100_iterations(self, func, lo, hi):
        from scipy.optimize import brentq

        with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
            brentq(func, lo, hi, xtol=1e-15, rtol=1e-15)
        got, want = port_brentq(func, lo, hi), scipy_brentq(func, lo, hi)
        assert got[1] is False and want[1] is False
        assert _same_float(got[0], want[0])


def reference_qpower_subproblem(entry, gamma, q):
    """The 1-d power-penalty subproblem on scipy's ``minimize_scalar`` and the
    entry's one-element-array oracles, as it was before the float port."""
    from scipy.optimize import brentq, minimize_scalar

    def slope(c, u):
        pen = gamma * q * abs(u - c) ** (q - 1.0) * math.copysign(1.0, u - c) if u != c else 0.0
        return float(entry.grad(np.array([u]))[0]) + pen

    def polish(c, t, span):
        h = 1e-9 * (1.0 + abs(c))
        while h <= span:
            a, b = t - h, t + h
            fa, fb = slope(c, a), slope(c, b)
            if fa == 0.0:
                return a
            if fb == 0.0:
                return b
            if fa * fb < 0.0:
                return float(brentq(lambda u: slope(c, u), a, b, xtol=1e-15, rtol=1e-15))
            h *= 8.0
        return t

    def solve(center):
        c = float(center[0])
        if entry.inf_f is not None:
            span = ((entry.f(center) - entry.inf_f) / gamma) ** (1.0 / q) + 1e-6
        else:
            span = 10.0 * (1.0 + abs(c))
        if not math.isfinite(span):
            return np.array([span])
        with np.errstate(over="ignore", invalid="ignore"):  # scipy's own steps, as in scipy_bounded
            res = minimize_scalar(lambda t: entry.f(np.array([t])) + gamma * abs(t - c) ** q,
                                  bounds=(c - span, c + span), method="bounded", options={"xatol": 1e-12})
        t = float(res.x)
        if entry.grad is not None:
            t = polish(c, t, span)
        return np.array([t])

    return solve


class TestQpowerPortMatchesScipy:
    @pytest.mark.parametrize("operator, gamma, q, x0, max_iter", [
        ("square", 1.0, 1.5, [0.8], 200),
        ("square", 0.3, 3.0, [-2.0], 200),
        ("double-well", 1.0, 1.5, [2.0], 300),
        ("double-well", 2.0, 2.5, [-0.7], 200),
        ("flat-exp", 1.0, 1.5, [0.5], 200),
        ("abs-subdiff", 1.0, 1.5, [1.0], 200),  # no grad, so no polish
        ("abs-subdiff", 0.5, 3, [-4.0], 200),
        ("quad", 1.0, 1.5, [1.0], 200),
        ("quad", 0.7, 3, [5.0], 200),
        ("dc-quad", 1.0, 2.5, [1.0], 200),
        ("linear-neg", 1.0, 1.5, [1.0], 40),  # no inf f: the bracket is 10 (1 + |c|)
        ("linear-neg", 1.0, 3.0, [0.3], 200),
        ("linear-neg", 1.0, 3.0, [1e103], 3),  # the penalty overflows on most of the bracket
    ])
    def test_trace_bytes(self, operator, gamma, q, x0, max_iter, tmp_path, monkeypatch):
        from rcontinuity import solvers

        entry, stop = catalog_lookup(operator), StopRule(max_iter=max_iter)
        got = run_qpower_prox(entry, gamma, q, x0, stop)
        # plain-function oracles, as a hand-built entry has, take the array path through the same minimizer
        plain = dataclasses.replace(entry, f=lambda x: entry.f(x),
                                    grad=None if entry.grad is None else lambda x: entry.grad(x))
        arrays = run_qpower_prox(plain, gamma, q, x0, stop)
        # the reference runs on one-element arrays: the loop's array path
        monkeypatch.setattr(solvers, "_qpower_subproblem", lambda *args: (False, reference_qpower_subproblem(*args)))
        want = run_qpower_prox(entry, gamma, q, x0, stop)
        assert len(got) > 1
        _same_trace(got, want, tmp_path)
        _same_trace(arrays, want, tmp_path)


def test_replacing_an_oracle_replaces_its_views(tmp_path):
    # square with f and grad replaced by (v - 1)^2 and 2 (v - 1): the qpower
    # subproblem and oracle_rows follow the new oracles, not square's forms, and
    # a ScalarForm of the new forms gives the plain oracles' bytes
    def g(v):
        return (v - 1.0) * (v - 1.0)

    def h(v):
        return 2.0 * (v - 1.0)

    square = catalog_lookup("square")
    plain = dataclasses.replace(square, f=lambda x: float(g(float(x[0]))), grad=lambda x: np.array([h(float(x[0]))]))
    forms = dataclasses.replace(square, f=ScalarForm(g), grad=ScalarForm(h, (1,)))
    stop = StopRule(max_iter=200)
    got, want = (run_qpower_prox(entry, 1.0, 3.0, [2.5], stop) for entry in (forms, plain))
    assert want.termination == "tolerance" and abs(want.iterates[-1, 0] - 1.0) < 1e-6  # g's zero, not square's
    _same_trace(got, want, tmp_path)
    X = np.linspace(-3.0, 3.0, 61)[:, None]
    assert oracle_rows(plain.f, X).tolist() == [g(v) for v in X[:, 0].tolist()]
    assert oracle_rows(forms.f, X).tobytes() == oracle_rows(plain.f, X).tobytes()


# -- the float path against the array path --------------------------------------

def _plain(entry):
    """``entry`` with every oracle a plain function, as the benchmark's tracer
    wraps them: a run on it takes the array path."""
    def plain(oracle):
        return None if oracle is None else lambda *args: oracle(*args)

    def plain_prox(prox):
        return dataclasses.replace(prox, resolvent=lambda gamma: plain(prox.resolvent(gamma)))

    changes = {name: plain(getattr(entry, name)) for name in ("f", "grad", "jac")}
    if entry.prox is not None:
        changes["prox"] = plain_prox(entry.prox)
    if entry.dc is not None:
        changes["dc"] = dataclasses.replace(entry.dc, g_prox=plain_prox(entry.dc.g_prox), h_grad=plain(entry.dc.h_grad))
    return dataclasses.replace(entry, **changes)


_ALGORITHM_PARAMS = {
    "ppa": {"gamma": 0.3},
    "gdm": {"step": 0.1},
    "qpower": {"gamma": 1.0, "q": 1.5},
    "dca": {"gamma": 0.5},
    "shifted-ppa": {"kappa": 0.1, "gamma": 0.6},
}


def _path_cases():
    """Every 1-d catalog entry with every algorithm it admits, then the
    overflow, underflow and divergence repros."""
    cases = [(op, {"name": alg, **params}, [1.5]) for op in catalog.catalog_names()
             if catalog_lookup(op).dim_in == 1 for alg, params in _ALGORITHM_PARAMS.items()
             if _admitted(op, alg, params)]
    return cases + [
        ("quad", {"name": "gdm", "step": 0.5}, [1e200]),  # Δ squares past the float range
        ("quad", {"name": "gdm", "step": 1e300}, [1e10]),  # the step overflows
        ("linear-neg", {"name": "ppa", "gamma": 0.4999}, [1e305]),  # the resolvent overflows
        ("dc-quad", {"name": "dca", "gamma": 1e300}, [1e10]),  # the resolvent's input overflows
        ("double-well", {"name": "gdm", "step": 0.01}, [1e110]),  # the gradient overflows
        ("linear-neg", {"name": "qpower", "gamma": 1.0, "q": 4}, [1e103]),  # the witness overflows
        ("linear-neg", {"name": "gdm", "step": 0.1}, [1.0]),  # diverges past the guard
        ("flat-exp", {"name": "gdm", "step": 0.5}, [0.5]),
        ("flat-exp", {"name": "gdm", "step": 1.0}, [0.0375]),  # f and f' are subnormal
        ("flat-exp", {"name": "gdm", "step": 1.0}, [0.03]),  # f and f' underflow to 0
        ("flat-exp", {"name": "gdm", "step": 1.0}, [1e-160]),  # the cube underflows
        ("flat-exp", {"name": "qpower", "gamma": 1.0, "q": 1.5}, [0.0375]),
        ("quad", {"name": "shifted-ppa", "kappa": 0.1, "gamma": 0.5}, [1e200]),  # the ledger's squares overflow
        ("dc-quad", {"name": "shifted-ppa", "kappa": 0.1, "gamma": 0.5}, [-3.0]),
        ("linear-neg", {"name": "shifted-ppa", "kappa": 0.5, "gamma": 0.25, "step_condition": "reciprocal"}, [1.0]),
    ]


def _admitted(operator, algorithm, params):
    params = dict(params, step_condition="derived") if algorithm == "shifted-ppa" else params
    try:
        check(algorithm, catalog_lookup(operator), **params)
    except (NoOracle, ParamError):
        return False
    return True


def _run(entry, algorithm, x0):
    params = {k: v for k, v in algorithm.items() if k != "name"}
    runner = getattr(solvers, solvers.ALGORITHMS[algorithm["name"]].runner)
    return runner(entry, x0=x0, stop=StopRule(max_iter=500), **params)


class TestFloatPathMatchesArrayPath:
    @pytest.mark.parametrize("operator, algorithm, x0", _path_cases(),
                             ids=lambda v: v["name"] if isinstance(v, dict) else str(v))
    def test_trace_bytes(self, operator, algorithm, x0, tmp_path):
        entry = catalog_lookup(operator)
        with warnings.catch_warnings():  # none from the package's own lines (numpy's norm in Region.project may warn)
            warnings.filterwarnings("error", module="rcontinuity")
            got = _run(entry, algorithm, x0)
        want = _run(_plain(entry), algorithm, x0)
        assert len(got) > 1 or got.diverged
        assert got.iterates.tobytes() == want.iterates.tobytes()
        assert got.witness_points.tobytes() == want.witness_points.tobytes()
        _same_trace(got, want, tmp_path)

    @pytest.mark.parametrize("operator, algorithm", [
        ("quad", {"name": "gdm", "step": 0.5}),
        ("quad", {"name": "ppa", "gamma": 0.5}),
        ("dc-quad", {"name": "dca", "gamma": 0.5}),
        ("dc-quad", {"name": "shifted-ppa", "kappa": 0.1, "gamma": 0.5}),
    ])
    def test_the_path_follows_the_views_not_the_name(self, operator, algorithm, monkeypatch):
        floats = _count_float_norms(monkeypatch)
        entry = catalog_lookup(operator)
        _run(dataclasses.replace(entry, name="renamed"), algorithm, [1.0])
        assert floats
        floats.clear()
        _run(_plain(entry), algorithm, [1.0])
        assert floats == []

    def test_the_float_path_needs_a_float_view_of_every_oracle(self, monkeypatch):
        floats = _count_float_norms(monkeypatch)
        entry = catalog_lookup("dc-quad")
        plain_h = dataclasses.replace(entry, dc=dataclasses.replace(entry.dc, h_grad=_plain(entry).dc.h_grad))
        _run(plain_h, {"name": "dca", "gamma": 0.5}, [1.0])
        assert floats == []


def _count_float_norms(monkeypatch) -> list:
    """The arguments of every ``_norm1`` call from here on: a run on the float path makes some."""
    floats = []

    def norm1(d):
        floats.append(d)
        return _norm1(d)

    monkeypatch.setattr(solvers, "_norm1", norm1)
    return floats
