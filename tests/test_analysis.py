import dataclasses
import math

import numpy as np
import pytest

from rcontinuity import (
    DimensionMismatchError,
    HolderFit,
    ModulusCurve,
    PlkConfig,
    Region,
    SetValuedMap,
    OperatorEntry,
    Window,
    WindowRequiredError,
    MissingOracleError,
    as_point,
    calmness_estimate,
    catalog_lookup,
    catalog_names,
    certify_inverse_lipschitz,
    check_plk_exponent,
    closed_graph_test,
    estimate_modulus,
    excess,
    fit_holder,
    lojasiewicz_fit,
    pointwise,
    sample_window,
)
from rcontinuity.analysis import _chain_converged, check_modulus, check_plk
from rcontinuity.geometry import unit_directions
from rcontinuity.setmap import ParamError, ScalarForm
from conftest import brute_force_modulus, curves_agree, reference_member_dist

K10 = Window.box([0.0], [10.0])
DECADE = list(np.geomspace(1e-4, 1e-1, 13))


def constant_map(value=0.0):
    return SetValuedMap("const", 1, 1, pointwise(lambda x, w: np.array([[value]])))


class TestEstimateModulus:
    def test_rm1_windowed_is_identity_modulus(self):
        radii = list(np.geomspace(1e-3, 5e-2, 10))
        curve = estimate_modulus(catalog_lookup("rm1").forward, [0.0], K10, radii, 64, seed=0)
        assert curve.rho_hat == pytest.approx(radii, rel=1e-12)

    def test_square_inverse_is_sqrt_modulus(self):
        curve = estimate_modulus(catalog_lookup("square").inverse, [0.0], None, DECADE, 64, seed=0)
        assert curve.rho_hat == pytest.approx([math.sqrt(r) for r in DECADE], rel=1e-12)

    def test_constant_map_gives_zero_curve(self):
        curve = estimate_modulus(constant_map(), [0.0], None, DECADE, 16, seed=0)
        assert curve.rho_hat == pytest.approx([0.0] * len(DECADE), abs=0.0)

    def test_an_overflowing_value_makes_the_curve_divergent(self):
        # square's value at 1e200 is x² = inf: that sample lies infinitely far from A(0) = {0}
        curve = estimate_modulus(catalog_lookup("square").forward, [0.0], None, [1.0, 1e200, 1e300], 8, seed=0)
        assert curve.rho_hat.tolist() == [1.0, math.inf, math.inf]
        assert curve.divergent

    def test_a_nan_value_is_still_an_error(self):
        # a NaN value is no overflow: its distance to the base value is undefined
        nan_away = SetValuedMap("nan-away", 1, 1, pointwise(lambda x, w: np.array([[0.0 if x[0] == 0 else math.nan]])))
        with pytest.raises(ValueError, match="all coordinates must be finite"):
            estimate_modulus(nan_away, [0.0], None, [1.0], 8, seed=0)

    def test_window_required_propagates(self):
        with pytest.raises(WindowRequiredError):
            estimate_modulus(catalog_lookup("rm1").forward, [0.0], None, DECADE, 8, seed=0)

    def test_empty_base_value_rejected(self):
        m = catalog_lookup("square").inverse
        with pytest.raises(ValueError):
            estimate_modulus(m, [-1.0], None, DECADE, 8, seed=0)

    def test_running_max_keeps_curve_nondecreasing(self):
        # a map whose worst excess is not monotone in the sampled radius
        wiggle = SetValuedMap("wiggle", 1, 1,
                              pointwise(lambda x, w: np.array([[math.sin(40.0 * float(x[0]))]])))
        curve = estimate_modulus(wiggle, [0.0], None, list(np.linspace(0.02, 0.5, 25)), 17, seed=0)
        assert np.all(np.diff(curve.rho_hat) >= 0)

    def test_window_monotone_in_nesting(self):
        radii = list(np.geomspace(1e-2, 5e-1, 8))
        rm1 = catalog_lookup("rm1").forward
        small = estimate_modulus(rm1, [0.0], Window.box([0.0], [3.0]), radii, 64, seed=0)
        large = estimate_modulus(rm1, [0.0], K10, radii, 64, seed=0)
        assert np.all(small.rho_hat <= large.rho_hat + 1e-15)

    def test_unwindowed_agrees_with_covering_window(self):
        inv = catalog_lookup("square").inverse
        windowed = estimate_modulus(inv, [0.0], K10, DECADE, 64, seed=0)
        unwindowed = estimate_modulus(inv, [0.0], None, DECADE, 64, seed=0)
        assert np.array_equal(windowed.rho_hat, unwindowed.rho_hat)

    def test_deterministic(self):
        inv = catalog_lookup("double-well").inverse
        a = estimate_modulus(inv, [0.0], K10, DECADE, 33, seed=9, scheme="halton")
        b = estimate_modulus(inv, [0.0], K10, DECADE, 33, seed=9, scheme="halton")
        assert np.array_equal(a.rho_hat, b.rho_hat)

    def test_matches_dense_oracle_on_double_well(self):
        # one decade of radii, so the 4096-point linear grid resolves each one
        radii = list(np.geomspace(1e-2, 1e-1, 13))
        inv = catalog_lookup("double-well").inverse
        coarse = estimate_modulus(inv, [0.0], K10, radii, 64, seed=0)
        dense = brute_force_modulus(inv, [0.0], K10, radii)
        assert curves_agree(coarse.rho_hat, dense)


class TestFitHolder:
    def test_exact_line(self):
        curve = estimate_modulus(catalog_lookup("quad").forward, [0.0], None, DECADE, 16, seed=0)
        fit = fit_holder(curve)
        assert fit.theta_hat == pytest.approx(1.0, abs=1e-10)
        assert fit.L_hat == pytest.approx(1.0, abs=1e-10)
        assert fit.residual < 1e-10

    def test_sqrt_curve(self):
        curve = estimate_modulus(catalog_lookup("square").inverse, [0.0], None, DECADE, 64, seed=0)
        fit = fit_holder(curve)
        assert 0.45 <= fit.theta_hat <= 0.55

    def test_zero_curve_degenerate(self):
        fit = fit_holder(estimate_modulus(constant_map(), [0.0], None, DECADE, 8, seed=0))
        assert fit.degenerate
        assert fit.L_hat is None

    def test_divergent_curve_has_the_empty_fit(self):
        curve = ModulusCurve(radii=np.array([0.1, 0.2, 0.4]), rho_hat=np.array([1.0, 2.0, math.inf]),
                             sample_counts=[4, 4, 4], divergent=True)
        assert fit_holder(curve) == HolderFit(None, None, None, None)

    @pytest.mark.parametrize("radii, rho_hat, param", [
        ([math.nan, 1.0], [0.0, 1.0], "radii[0]"),
        ([0.5, -1.0], [0.0, 1.0], "radii[1]"),
        ([1.0, 1.0], [0.0, 1.0], "radii"),
        ([], [], "radii"),
        ([0.5, 1.0], [math.nan, 1.0], "rho_hat[0]"),
        ([0.5, 1.0], [0.0, -1.0], "rho_hat[1]"),
    ])
    def test_a_curve_refuses_a_grid_or_value_the_estimator_would_not_make(self, radii, rho_hat, param):
        # a NaN curve would pass every link audit: NaN bounds fail no comparison
        with pytest.raises(ParamError) as info:
            ModulusCurve(radii=radii, rho_hat=rho_hat, sample_counts=[4] * len(radii))
        assert info.value.param == param
        if param.startswith("radii"):  # one grid rule: check_modulus names the same radius
            with pytest.raises(ParamError) as info:
                check_modulus(catalog_lookup("quad").forward, [0.0], None, radii, 4, "grid")
            assert info.value.param == param

    def test_a_curve_refuses_sample_counts_of_another_length(self):
        # modulus.csv would have one row per sample count and drop the other radii
        with pytest.raises(ParamError) as info:
            ModulusCurve(radii=np.array([0.1, 0.2, 0.4]), rho_hat=np.array([1.0, 2.0, 3.0]), sample_counts=[4])
        assert info.value.param == "sample_counts"


JUMP = SetValuedMap(
    "jump", 1, 1,
    pointwise(lambda x, w: np.array([[0.0]]) if float(x[0]) != 0 else np.array([[1.0]])),
)

#: Rows away from 0 have the values {1, -1}, equally far from the start value
#: 0: the first on the tie, 1, is the one value at 0, and -1 would fail
TIES = SetValuedMap(
    "ties", 1, 1,
    pointwise(lambda x, w: np.array([[0.0], [2.0]]) if abs(float(x[0])) >= 0.5
              else np.array([[1.0], [-1.0]]) if float(x[0]) != 0 else np.array([[1.0]])),
)


def holed(at_zero):
    """The identity, but empty on (0, 0.5) and ``{at_zero}`` at 0: a sequence
    from 0 along +1 starts at 0.5 and breaks at its next row, one along -1
    lives and converges to 0."""
    return SetValuedMap("holed", 1, 1, pointwise(
        lambda x, w: np.empty((0, 1)) if 0.0 < float(x[0]) < 0.5
        else np.array([[at_zero if float(x[0]) == 0.0 else float(x[0])]])))


BROKEN, BROKEN_JUMP = holed(0.0), holed(1.0)


class TestClosedGraph:
    def test_rm1_passes(self):
        assert closed_graph_test(catalog_lookup("rm1").forward, [0.0], K10).passed

    def test_jump_map_fails_with_witness(self):
        res = closed_graph_test(JUMP, [0.0], K10)
        assert res.verdict == "fail"
        assert res.witness == pytest.approx([0.0])

    def test_linear_map_passes(self):
        lin = SetValuedMap("times2", 1, 1, pointwise(lambda x, w: np.array([[2.0 * float(x[0])]])))
        assert closed_graph_test(lin, [0.0], K10).passed

    def test_linear_map_passes_in_20d(self):
        # the directions come from any dimension's Halton box, so the probe runs wherever the map does
        a = np.diag(np.linspace(1.0, 3.0, 20)) + 0.1
        lin = SetValuedMap("lin20", 20, 20, lambda X, w: (X @ a.T, np.arange(len(X))))
        res = closed_graph_test(lin, np.zeros(20), Window.box(np.zeros(20), 10.0))
        assert (res.verdict, res.chains_converged, res.chains_total) == ("pass", 8, 8)

    def test_no_sequence_is_inconclusive(self):
        for m, xbar in ((catalog_lookup("abs-subdiff").forward, [0.0]), (catalog_lookup("quad2").forward, [0.0, 0.0])):
            res = closed_graph_test(m, xbar, Window.box(np.zeros(len(xbar)), 10.0), n_sequences=0)
            assert (res.verdict, res.chains_converged, res.chains_total) == ("inconclusive", 0, 0)

    def test_slow_selection_is_inconclusive(self):
        # values shrink like 1/log(1/x): convergent but far from geometric
        res = closed_graph_test(catalog_lookup("flat-exp").inverse, [0.0], K10)
        assert res.verdict == "inconclusive"

    def test_catalog_inverses_close(self):
        for name in ("square", "double-well", "abs-subdiff", "quad", "linear-neg", "dc-quad"):
            inv = catalog_lookup(name).inverse
            assert closed_graph_test(inv, [0.0], K10).passed, name


class TestLojasiewiczFit:
    def test_square_exact(self):
        fit = lojasiewicz_fit(catalog_lookup("square"), Window.box([0.0], [1.0]), 2001)
        assert not fit.failed
        assert fit.theta_hat == pytest.approx(2.0, abs=1e-6)
        assert fit.c_hat == pytest.approx(1.0, abs=1e-6)

    def test_double_well_band_exponent(self):
        fit = lojasiewicz_fit(catalog_lookup("double-well"), Window.box([0.5], [2.5]), 2001)
        assert not fit.failed
        assert 1.9 <= fit.theta_hat <= 2.1
        assert fit.c_hat >= 3.5  # the ratio peaks near the midpoint between the zeros

    def test_flat_function_fails(self):
        fit = lojasiewicz_fit(catalog_lookup("flat-exp"), Window.box([0.0], [1.0]), 2001)
        assert fit.failed
        assert fit.theta_hat is None

    def test_the_first_grid_is_evaluated_once(self):
        # levels 0, 1, 2 lay 101, 202 and 404 points; level 0 is the first grid, and
        # levels 1 and 2 take f only on their band rows, 0 < d <= band (50 and 26).
        # The rows are counted where they reach the closed form's column view
        entry = catalog_lookup("square")
        rows = []

        def form(v):
            if type(v) is not float:
                rows.append(len(v))
            return entry.f.form(v)

        counted = dataclasses.replace(entry, f=ScalarForm(form))
        fit = lojasiewicz_fit(counted, Window.box([0.0], [1.0]), 101)
        assert fit.to_json_dict() == lojasiewicz_fit(entry, Window.box([0.0], [1.0]), 101).to_json_dict()
        assert rows == [101, 50, 26]

    def test_window_must_meet_solution_set(self):
        with pytest.raises(ValueError):
            lojasiewicz_fit(catalog_lookup("square"), Window.box([5.0], [1.0]), 101)

    def test_window_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            lojasiewicz_fit(catalog_lookup("quad2"), Window.box([0.0], [2.0]), 101)

    def test_identically_zero_rejected(self):
        # the zero set holds every grid point: no distance is positive, nothing to fit
        window = Window.box([0.0], [1.0])
        zero_entry = OperatorEntry(
            name="zero",
            forward=SetValuedMap("zero", 1, 1, pointwise(lambda x, w: np.array([[0.0]]))),
            solution_set=Region(sample_window(window, "grid", 101).points),
            f=lambda x: 0.0,
        )
        with pytest.raises(ParamError, match="positive distance"):
            lojasiewicz_fit(zero_entry, window, 101)

    @pytest.mark.parametrize("center, meets", [(1.0, True), (0.5, False)], ids=["around-one-zero", "between-zeros"])
    def test_a_point_list_meets_a_window_exactly_when_it_holds_one_of_the_points(self, center, meets):
        # double-well's zeros are 0 and 1: a window around 1 alone meets the set, one between them does not
        entry, window = catalog_lookup("double-well"), Window.box([center], [0.25])
        if meets:
            assert not lojasiewicz_fit(entry, window, 101).failed
        else:
            with pytest.raises(ParamError, match="does not meet"):
                lojasiewicz_fit(entry, window, 101)

    def test_a_scale_that_overflows_fails_the_fit(self):
        # x^2 fits theta = 2 on the inner bands, but |f(0.5)| = 5e-324 makes
        # d**2 / |f| there about 5e322, past the largest float even in logs
        def f(x):
            return 5e-324 if float(x[0]) == 0.5 else float(x[0]) ** 2
        entry = OperatorEntry(name="spike", forward=catalog_lookup("square").forward,
                              solution_set=Region([[0.0]]), f=f)
        fit = lojasiewicz_fit(entry, Window.box([0.0], [1.0]), 101)
        assert fit.level_exponents[-1] == pytest.approx(2.0)
        assert fit.failed and fit.c_hat is None and fit.theta_hat is None


class TestPlk:
    def test_square_passes_with_closed_form_product(self):
        res = check_plk_exponent(catalog_lookup("square"), [0.0], PlkConfig(2.0, 0.5, 1.0, 1.0), 257)
        assert res.passed
        assert res.min_product == pytest.approx(2.0, rel=1e-9)

    def test_flat_exp_fails_near_zero(self):
        res = check_plk_exponent(catalog_lookup("flat-exp"), [0.0], PlkConfig(2.0, 0.5, 1.0, 1.0), 257)
        assert res.verdict == "fail"
        assert res.violations

    def test_a_zero_slope_where_phi_prime_overflows_is_a_violation(self):
        # t = x^2 is subnormal on this ball, so phi'(t) = inf; a zero slope makes the
        # product 0, not inf * 0 = NaN
        flat = SetValuedMap("zero", 1, 1, lambda X, w: (np.zeros((len(X), 1)), np.arange(len(X))))
        entry = dataclasses.replace(catalog_lookup("square"), subgrad=flat)
        cfg = PlkConfig(2.0, 0.999, 1.0, 3e-162)
        band = sample_window(Window.ball([0.0], 3e-162), "grid", 257).points
        band = band[band[:, 0] ** 2 > 0.0]
        assert np.isinf(cfg.phi_prime(band[:, 0] ** 2)).all()
        res = check_plk_exponent(entry, [0.0], cfg, 257)
        assert (res.verdict, res.checked, repr(res.min_product)) == ("fail", len(band), "0.0")
        assert _same_points(res.violations, list(band))

    def test_a_subnormal_scale_keeps_the_zero_products(self):
        # M (1 - q) rounds to 0: every finite phi' is 0, so every product is 0, a violation
        res = check_plk_exponent(catalog_lookup("square"), [0.0], PlkConfig(5e-324, 0.5, 1.0, 1.0), 257)
        assert (res.verdict, res.checked, repr(res.min_product)) == ("fail", 254, "0.0")
        # where t ** -q overflows too, phi' reads 0 * inf = NaN; the product in logs is finite
        res = check_plk_exponent(catalog_lookup("square"), [0.0], PlkConfig(5e-324, 0.999, 1.0, 3e-162), 257)
        assert res.verdict == "fail" and 0.0 < res.min_product < 1e-160

    def test_phi_prime_takes_a_numpy_scalar_an_int_and_a_0d_array(self):
        cfg = PlkConfig(2.0, 0.5, 1.0, 1.0)
        for t in (np.float64(0.3), 3, np.array(0.3), np.float64(5e-324)):
            assert cfg.phi_prime(t) == 2.0 * (1.0 - 0.5) * float(t) ** -0.5
        assert PlkConfig(2.0, 0.999, 1.0, 1.0).phi_prime(np.float64(5e-324)) == math.inf

    def test_empty_band_is_inconclusive(self):
        res = check_plk_exponent(catalog_lookup("square"), [0.0], PlkConfig(2.0, 0.5, 1e-30, 1.0), 257)
        assert res.verdict == "inconclusive"
        assert not res.passed

    def test_missing_oracles_rejected(self):
        with pytest.raises(MissingOracleError):
            check_plk_exponent(catalog_lookup("rm1"), [0.0], PlkConfig(1.0, 0.5, 1.0, 1.0), 33)

    def test_check_plk_returns_the_neighborhood_ball(self):
        ball = check_plk(catalog_lookup("square"), [0.5], PlkConfig(2.0, 0.5, 1.0, 0.25), 33)
        assert (ball.kind, ball.center.tolist(), ball.extent.tolist()) == ("ball", [0.5], [0.25])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PlkConfig(M=-1.0, q_exp=0.5, eta=1.0, neighborhood_radius=1.0)
        with pytest.raises(ValueError):
            PlkConfig(M=1.0, q_exp=1.0, eta=1.0, neighborhood_radius=1.0)


class TestInverseLipschitz:
    def test_linear_full_rank(self):
        entry = OperatorEntry(
            name="lin-2x",
            forward=SetValuedMap("lin-2x", 1, 1, pointwise(lambda x, w: np.array([[2.0 * float(x[0])]]))),
            solution_set=Region([[0.0]]),
            jac=lambda x: np.array([[2.0]]),
        )
        res = certify_inverse_lipschitz(entry, Window.box([0.0], [1.0]))
        assert res.full_rank
        assert res.c_hat == pytest.approx(2.0)
        assert not res.bound_violations

    def test_square_rank_deficient(self):
        res = certify_inverse_lipschitz(catalog_lookup("square"), Window.box([0.0], [1.0]))
        assert res.verdict == "rank-deficient"

    def test_tall_map(self):
        entry = OperatorEntry(
            name="dup",
            forward=SetValuedMap("dup", 1, 2, pointwise(lambda x, w: np.array([[float(x[0]), float(x[0])]]))),
            solution_set=Region([[0.0]]),
            jac=lambda x: np.array([[1.0], [1.0]]),
        )
        res = certify_inverse_lipschitz(entry, Window.box([0.0], [1.0]))
        assert res.full_rank
        assert res.c_hat == pytest.approx(math.sqrt(2.0))

    def test_wide_map_rejected(self):
        entry = OperatorEntry(
            name="wide",
            forward=SetValuedMap("wide", 2, 1, pointwise(lambda x, w: np.array([[float(x[0])]]))),
            solution_set=Region([[0.0, 0.0]]),
            jac=lambda x: np.array([[1.0, 0.0]]),
        )
        with pytest.raises(ValueError):
            certify_inverse_lipschitz(entry, Window.box([0.0, 0.0], [1.0, 1.0]))

    def test_quad2_uses_smallest_singular_value(self):
        res = certify_inverse_lipschitz(catalog_lookup("quad2"), Window.box([0.0, 0.0], [2.0, 2.0]))
        expected = (3.0 - math.sqrt(2.0)) / 2.0
        assert res.full_rank
        assert res.c_hat == pytest.approx(expected, rel=1e-12)
        assert not res.bound_violations

    @staticmethod
    def _lin(points, jac):
        return OperatorEntry(
            name="lin", forward=SetValuedMap("lin", 1, 1, lambda X, w: (X, np.arange(len(X)))),
            solution_set=Region(points), jac=jac,
        )

    @staticmethod
    def _tubes(anchors, per_anchor):
        tube = sample_window(Window.ball([0.0], 0.1), "halton", per_anchor, 0).points
        return [u + p for u in anchors for p in tube]

    def test_each_solution_point_anchors_one_tube(self):
        # tol = -1: every point off S violates, so the violations are the points checked
        entry = self._lin([[-0.5], [0.5]], lambda u: np.array([[1.0]]))
        for test_samples in (7, 50):
            res = certify_inverse_lipschitz(entry, Window.box([0.0], [1.0]), test_samples=test_samples, tol=-1.0)
            assert res.checked == 2 * (test_samples // 2)
            assert _same_points(res.bound_violations, self._tubes([[-0.5], [0.5]], test_samples // 2))

    def test_the_first_25_solution_points_anchor(self):
        points = np.arange(30.0)[:, None] / 30.0
        # the singular value falls along the list, so c_hat names the last anchor
        entry = self._lin(points, lambda u: np.array([[2.0 - u[0]]]))
        res = certify_inverse_lipschitz(entry, Window.box([0.0], [1.0]), test_samples=100, tol=-1.0)
        assert res.c_hat == 2.0 - points[24, 0]
        assert res.checked == 100
        assert _same_points(res.bound_violations, self._tubes(points[:25], 4))

    def test_points_outside_the_window_are_skipped_before_the_cap(self):
        # five points past the window, then 25 inside it: all 25 anchor
        points = np.concatenate([np.arange(3.0, 3.5, 0.1), np.arange(25.0) / 25.0])[:, None]
        entry = self._lin(points, lambda u: np.array([[2.0 - u[0]]]))
        res = certify_inverse_lipschitz(entry, Window.box([0.0], [1.0]), test_samples=100, tol=-1.0)
        assert res.c_hat == 2.0 - points[29, 0]
        assert res.checked == 100
        assert _same_points(res.bound_violations, self._tubes(points[5:], 4))

    def test_quad2_checks_every_requested_point(self):
        for seed in range(8):
            res = certify_inverse_lipschitz(catalog_lookup("quad2"), Window.box([0.0, 0.0], [2.0, 2.0]),
                                            test_samples=2000, seed=seed)
            assert (res.verdict, res.checked, len(res.bound_violations)) == ("full-rank", 2000, 0), seed

    def test_window_dimension_checked(self):
        # a 1-d window against 2-d anchors must not broadcast into a verdict
        with pytest.raises(DimensionMismatchError):
            certify_inverse_lipschitz(catalog_lookup("quad2"), Window.box([0.0], [2.0]))


class TestCalmness:
    def test_linear_slope(self):
        lin = SetValuedMap("times2", 1, 1, pointwise(lambda x, w: np.array([[2.0 * float(x[0])]])))
        res = calmness_estimate(lin, [0.0], [0.0], 0.5, 1.0, samples=65)
        assert res.kappa_hat == pytest.approx(2.0)
        assert not res.vacuous

    def test_rm1_near_branch_only(self):
        res = calmness_estimate(catalog_lookup("rm1").forward, [0.0], [0.0], 0.5, 1.0, samples=65)
        assert res.kappa_hat == pytest.approx(1.0)

    def test_vacuous_when_values_escape(self):
        escape = SetValuedMap(
            "escape", 1, 1,
            pointwise(lambda x, w: np.array([[10.0]]) if float(x[0]) != 0 else np.array([[0.0]])),
        )
        res = calmness_estimate(escape, [0.0], [0.0], 0.5, 1.0, samples=33)
        assert res.vacuous
        assert res.kappa_hat == 0.0

    def test_base_value_must_belong(self):
        lin = SetValuedMap("times2", 1, 1, pointwise(lambda x, w: np.array([[2.0 * float(x[0])]])))
        with pytest.raises(ValueError):
            calmness_estimate(lin, [0.0], [0.5], 0.5, 1.0, samples=9)


class TestDuality:
    @pytest.mark.parametrize("name,window_center,window_extent,radius_hi", [
        ("square", 0.0, 1.0, 1e-1),
        ("double-well", 0.5, 2.5, 1e-2),  # stay below the y = 1/16 branch point
    ])
    def test_inverse_exponent_matches_reciprocal(self, name, window_center, window_extent, radius_hi):
        entry = catalog_lookup(name)
        loja = lojasiewicz_fit(entry, Window.box([window_center], [window_extent]), 2001)
        radii = list(np.geomspace(1e-4, radius_hi, 13))
        curve = estimate_modulus(entry.inverse, [0.0], K10, radii, 64, seed=0)
        fit = fit_holder(curve)
        assert not loja.failed and not fit.degenerate
        expected = 1.0 / loja.theta_hat
        assert abs(fit.theta_hat - expected) <= 0.1 * expected


# --- batched estimators against the per-sample loops ----------------------------
#
# The per-sample loops the estimators ran before map values were evaluated in
# one batch, kept as references.  Each evaluates one sample at a time with
# ``SetValuedMap.eval`` and reduces in sample order; membership distances come
# from the test-local ``reference_member_dist``, not ``member_dist``.

def reference_estimate_modulus(m, xbar, k, radii, samples_per_radius, seed, scheme):
    xb = as_point(xbar, m.dim_in)
    reference = m.eval(xb, k.scaled(10.0)) if m.window_required else m.eval(xb, None)
    if reference.is_empty:
        raise ValueError("empty at the base point")
    offsets = sample_window(Window.ball(np.zeros(m.dim_in), 1.0), scheme, samples_per_radius, seed).points
    rho, divergent, running = [], False, 0.0
    for r in radii:
        worst = 0.0
        for u in offsets:
            e = excess(m.eval(xb + r * u, k), reference)
            if math.isinf(e):
                divergent = True
            worst = max(worst, e)
        running = max(running, worst)
        rho.append(running)
    return np.asarray(rho), divergent


def reference_closed_graph(m, xbar, k, n_sequences, tol, seed, depth=60, start_radius=0.5,
                           max_chains_per_sequence=8):
    xb = as_point(xbar, m.dim_in)
    dirs = unit_directions(n_sequences, m.dim_in, seed)
    chains_total = chains_converged = 0
    for d in dirs:
        values_along = [m.eval(xb + d * (start_radius * 2.0 ** (-j)), k) for j in range(depth + 1)]
        starts = [] if values_along[0].is_empty else list(values_along[0].points[:max_chains_per_sequence])
        for y0 in starts:
            chains_total += 1
            chain = [np.asarray(y0, dtype=float)]
            broken = False
            for vals in values_along[1:]:
                if vals.is_empty:
                    broken = True
                    break
                idx = int(np.argmin(np.linalg.norm(vals.points - chain[-1], axis=1)))
                chain.append(vals.points[idx])
            if broken:
                continue
            gaps = np.linalg.norm(np.diff(np.asarray(chain), axis=0), axis=1)
            if not _chain_converged(gaps, 0.1 * tol):
                continue
            chains_converged += 1
            if reference_member_dist(m, xb, chain[-1], k) > tol:
                return "fail", chain[-1], chains_converged, chains_total
    if chains_converged == 0:
        return "inconclusive", None, 0, chains_total
    return "pass", None, chains_converged, chains_total


def reference_plk(entry, xbar, cfg, grid_count, seed):
    xb = as_point(xbar, entry.dim_in)
    fbar = entry.f(xb)
    pts = sample_window(Window.ball(xb, cfg.neighborhood_radius), "grid", grid_count, seed).points
    zero = np.zeros(entry.dim_out)
    violations, checked, min_product = [], 0, None
    for p in pts:
        fx = entry.f(p)
        if not (fbar < fx < fbar + cfg.eta):
            continue
        checked += 1
        slope = reference_member_dist(entry.subgrad, p, zero)
        product = cfg.phi_prime(fx - fbar) * slope
        if min_product is None or product < min_product:
            min_product = product
        if product < 1.0 - 1e-12:
            violations.append(p)
    if checked == 0:
        return "inconclusive", [], 0, None
    return ("fail" if violations else "pass"), violations, checked, min_product


def reference_lojasiewicz(entry, k, grid_count):
    """The fit as it was when every level evaluated ``f`` at each of its grid
    points, one point at a time: ``(to_json_dict(), max_ratio_points)``."""
    def level_grid(level):
        pts = sample_window(k, "grid", grid_count * 2 ** level, seed=0).points
        return pts, entry.solution_set.distance_rows(pts), np.array([entry.f(p) for p in pts], dtype=float)

    def fit(theta, c, failed, exponents, diag):
        return {"theta_hat": theta, "c_hat": c, "failed": failed, "level_exponents": exponents,
                "window": k.to_dict()}, diag

    pts0, d0, f0 = level_grid(0)
    mask0 = np.isfinite(f0) & (f0 != 0.0) & np.isfinite(d0) & (d0 > 0.0)
    if not mask0.any():
        return fit(None, None, True, [], [])
    d_max = float(d0[mask0].max())
    exponents = []
    for level in range(3):
        _, d, f = level_grid(level)
        mask = np.isfinite(f) & (f != 0.0) & (d > 0.0) & (d <= d_max * 4.0 ** (-level))
        if int(mask.sum()) < 5 or d[mask].min() == d[mask].max():
            continue
        exponents.append(float(np.polyfit(np.log(d[mask]), np.log(np.abs(f[mask])), 1)[0]))
    if not exponents or any(not np.isfinite(t) or t > 100.0 for t in exponents):
        return fit(None, None, True, exponents, [])
    theta = exponents[-1]
    d, f = d0[mask0], np.abs(f0[mask0])
    with np.errstate(over="ignore"):
        ratios = d ** theta / f
        ratios = np.where(np.isinf(ratios), np.exp(theta * np.log(d) - np.log(f)), ratios)
    if np.isinf(ratios.max()):
        return fit(None, None, True, exponents, [])
    order = np.argsort(ratios)[::-1][:3]
    diag = [(float(np.linalg.norm(p)), float(r)) for p, r in zip(pts0[mask0][order], ratios[order])]
    return fit(float(theta), float(ratios.max()), False, exponents, diag)


def reference_inverse_lipschitz_violations(entry, xs, c_hat, tol):
    def fvec(x):
        vals = entry.forward.eval(x)
        if len(vals) != 1:
            raise ValueError("the certificate needs a single-valued forward map")
        return vals.points[0]
    return [x for x, d in zip(xs, entry.solution_set.distance_rows(xs))
            if d > (1.0 + tol) * float(np.linalg.norm(fvec(x))) / c_hat]


def reference_calmness(m, xbar, ybar, u_radius, v_radius, samples, seed, scheme):
    xb = as_point(xbar, m.dim_in)
    vwin = Window.ball(as_point(ybar, m.dim_out), v_radius)
    reference = m.eval(xb, vwin.scaled(10.0)) if m.window_required else m.eval(xb, None)
    kappa, any_nonempty = 0.0, False
    for x in sample_window(Window.ball(xb, u_radius), scheme, samples, seed).points:
        dx = float(np.linalg.norm(x - xb))
        vals = m.eval(x, vwin)
        if vals.is_empty:
            continue
        if dx > 0.0:
            any_nonempty = True
            kappa = max(kappa, excess(vals, reference) / dx)
    return kappa, not any_nonempty


def _catalog_maps():
    """``(label, map)`` for the forward map and inverse of every catalog entry."""
    out = []
    for name in catalog_names():
        entry = catalog_lookup(name)
        out.append((f"{name}-forward", entry.forward))
        if entry.inverse is not None:
            out.append((f"{name}-inverse", entry.inverse))
    return out


_MAPS = _catalog_maps()
_MAP_IDS = [label for label, _ in _MAPS]


def _window(m, extent=10.0):
    return Window.box([0.0] * m.dim_out, [extent] * m.dim_out)


def _base_points(m):
    """Base points that exercise the branches: 0, 1 and -1 on each axis."""
    return [[v] * m.dim_in for v in (0.0, 1.0, -1.0)]


def _same_points(a, b):
    return len(a) == len(b) and all(np.array_equal(p, q) for p, q in zip(a, b))


class TestBatchedEstimatorsMatchPerSampleLoops:
    @pytest.mark.parametrize("label,m", _MAPS, ids=_MAP_IDS)
    @pytest.mark.parametrize("scheme", ["grid", "halton"])
    def test_estimate_modulus(self, label, m, scheme):
        radii = list(np.geomspace(1e-3, 1.0, 5))
        for xbar in _base_points(m):
            for k in (None, _window(m, 2.0)):
                if k is None and m.window_required:
                    continue
                try:
                    want, divergent = reference_estimate_modulus(m, xbar, k, radii, 33, 3, scheme)
                except ValueError:
                    with pytest.raises(ValueError):
                        estimate_modulus(m, xbar, k, radii, 33, seed=3, scheme=scheme)
                    continue
                curve = estimate_modulus(m, xbar, k, radii, 33, seed=3, scheme=scheme)
                assert curve.rho_hat.tobytes() == want.tobytes()
                assert curve.divergent is divergent
                assert curve.sample_counts == [33] * len(radii)

    @pytest.mark.parametrize("label,m", _MAPS + [("jump", JUMP)], ids=_MAP_IDS + ["jump"])
    def test_closed_graph_test(self, label, m):
        for xbar in _base_points(m):
            for tol in (1e-6, 1e-1):
                verdict, witness, converged, total = reference_closed_graph(m, xbar, _window(m), 4, tol, 2)
                res = closed_graph_test(m, xbar, _window(m), n_sequences=4, tol=tol, seed=2)
                assert (res.verdict, res.chains_converged, res.chains_total) == (verdict, converged, total)
                assert (res.witness is None) == (witness is None)
                if witness is not None:
                    assert res.witness.tobytes() == witness.tobytes()

    @pytest.mark.parametrize("label,m,xbar,n_sequences", [pytest.param(*case, id=case[0]) for case in [
        # rows at 1 give rm1 the two equal values {1, 1}, rows at 0 the one value 0
        ("rm1-ragged", catalog_lookup("rm1").forward, [0.5], 4),
        # the first row of the + sequences is 0: an interval, more start values than the cap
        ("abs-subdiff-at-0", catalog_lookup("abs-subdiff").forward, [-0.5], 4),
        # + sequences are empty from the first row, - sequences live
        ("abs-subdiff-inverse-empty", catalog_lookup("abs-subdiff").inverse, [1.0], 4),
        # + sequences break after their first row, between live - sequences
        ("broken", BROKEN, [0.0], 5),
        # the first failure comes after a broken sequence
        ("broken-jump", BROKEN_JUMP, [0.0], 5),
        ("abs-subdiff-inverse-interval", catalog_lookup("abs-subdiff").inverse, [0.5], 3),
        ("double-well-inverse-64", catalog_lookup("double-well").inverse, [0.0], 64),
        ("quad2-64", catalog_lookup("quad2").forward, [0.0, 0.0], 64),
        ("quad2-inverse", catalog_lookup("quad2").inverse, [1.0, -1.0], 8),
        ("ties", TIES, [0.0], 2),
        ("jump", JUMP, [0.0], 4),
    ]])
    @pytest.mark.parametrize("depth", [0, 1, 60])
    def test_closed_graph_on_ragged_and_broken_sequences(self, label, m, xbar, n_sequences, depth):
        for tol, cap in ((1e-6, 8), (1e-1, 3)):
            verdict, witness, converged, total = reference_closed_graph(
                m, xbar, _window(m), n_sequences, tol, 5, depth=depth, max_chains_per_sequence=cap)
            res = closed_graph_test(m, xbar, _window(m), n_sequences=n_sequences, tol=tol, seed=5, depth=depth,
                                    max_chains_per_sequence=cap)
            assert (res.verdict, res.chains_converged, res.chains_total) == (verdict, converged, total)
            assert (res.witness is None) == (witness is None)
            if witness is not None:
                assert res.witness.tobytes() == witness.tobytes()

    def test_closed_graph_cases_reach_what_they_name(self):
        # the first sequence of abs-subdiff at -0.5 starts on an interval of
        # 257 values, so the cap binds; TIES passes only by the first tie
        res = closed_graph_test(catalog_lookup("abs-subdiff").forward, [-0.5], K10, n_sequences=1)
        assert res.chains_total == 8
        assert closed_graph_test(TIES, [0.0], K10, n_sequences=2).verdict == "pass"
        broken = closed_graph_test(BROKEN, [0.0], K10, n_sequences=5)
        assert (broken.verdict, broken.chains_total, broken.chains_converged) == ("pass", 5, 2)
        jump = closed_graph_test(BROKEN_JUMP, [0.0], K10, n_sequences=5)
        assert (jump.verdict, jump.chains_total, jump.chains_converged) == ("fail", 2, 1)

    @pytest.mark.parametrize("name", [n for n in catalog_names()
                                      if catalog_lookup(n).f is not None
                                      and catalog_lookup(n).subgrad is not None])
    def test_check_plk_exponent(self, name):
        entry = catalog_lookup(name)
        for xbar in ([0.0] * entry.dim_in, [0.5] * entry.dim_in):
            for cfg in (PlkConfig(2.0, 0.5, 1.0, 1.0), PlkConfig(1.0, 0.25, 0.1, 0.5)):
                verdict, violations, checked, min_product = reference_plk(entry, xbar, cfg, 129, 0)
                res = check_plk_exponent(entry, xbar, cfg, 129)
                # by repr, as plk.json writes it: 0.0 == -0.0 would hide a signed zero
                assert (res.verdict, res.checked, repr(res.min_product)) == (verdict, checked, repr(min_product))
                assert _same_points(res.violations, violations)

    @pytest.mark.parametrize("name, center, extent, grid_count", [
        ("square", 0.3, 1.0, 2001), ("square", -0.9, 1.0, 101), ("square", 2.0, 2.5, 9),
        ("double-well", 0.8, 1.5, 2001), ("double-well", 1.1, 0.4, 257),
        ("flat-exp", 0.2, 0.9, 2001), ("flat-exp", -0.5, 3.0, 257),
        ("quad", -0.4, 2.0, 2001), ("quad", 0.7, 1e200, 257), ("quad", 3e-161, 1e-160, 257),
    ])
    def test_lojasiewicz_fit(self, name, center, extent, grid_count):
        # the refinement levels take f only on their band rows: the same arrays reach polyfit
        entry = catalog_lookup(name)
        k = Window.box([center], [extent])
        with np.errstate(over="ignore", invalid="ignore"):
            want, diag = reference_lojasiewicz(entry, k, grid_count)
            fit = lojasiewicz_fit(entry, k, grid_count)
        assert fit.to_json_dict() == want
        assert fit.max_ratio_points == diag

    @pytest.mark.parametrize("name", [n for n in catalog_names() if catalog_lookup(n).jac is not None])
    def test_certify_inverse_lipschitz(self, name):
        entry = catalog_lookup(name)
        k = Window.box([0.0] * entry.dim_in, [2.0] * entry.dim_in)
        if certify_inverse_lipschitz(entry, k).verdict == "rank-deficient":
            pytest.skip("no bound to check")
        for tube_radius, tol in ((0.1, 1e-8), (1.0, -0.5)):  # tol < 0: every point off S violates
            res = certify_inverse_lipschitz(entry, k, test_samples=60, tol=tol, tube_radius=tube_radius)
            anchors = [p for p in entry.solution_set.points if np.all(np.abs(p) <= 2.0)][:25]
            tube = sample_window(Window.ball(np.zeros(entry.dim_in), tube_radius), "halton",
                                 max(1, 60 // len(anchors)), 0).points
            xs = np.vstack([u + tube for u in anchors])
            assert res.checked == len(xs)
            assert _same_points(res.bound_violations,
                                reference_inverse_lipschitz_violations(entry, xs, res.c_hat, tol))

    @pytest.mark.parametrize("jac", [
        lambda u: np.array([[1.0 + u[0] ** 2, u[1]], [0.3 * u[0], 2.0 + math.sin(u[1])]]),
        lambda u: np.array([[u[0], 1.0], [u[1] ** 3, -u[0]], [0.5, u[0] * u[1]]]),
    ], ids=["square", "tall"])
    def test_c_hat_is_the_per_anchor_minimum(self, jac):
        # the per-anchor loop the stacked SVD replaced: one SVD per anchor, the
        # least last singular value
        grid = sample_window(Window.box([0.1, -0.2], [0.7, 0.9]), "grid", 25).points
        entry = OperatorEntry(name="varying", forward=catalog_lookup("quad2").forward,
                              solution_set=Region(grid), jac=jac)
        k = Window.box([0.0, 0.0], [2.0, 2.0])
        anchors = [u for u in entry.solution_set.points if np.all(np.abs(u) <= 2.0)][:25]
        want = min(float(np.linalg.svd(np.atleast_2d(jac(u)), compute_uv=False)[-1]) for u in anchors)
        got = certify_inverse_lipschitz(entry, k, tol=-1.0, test_samples=4).c_hat
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_certify_inverse_lipschitz_rejects_multivalued_forward(self):
        entry = OperatorEntry(
            name="two-valued", forward=catalog_lookup("rm1").forward,
            solution_set=Region([[0.0]]), jac=lambda x: np.array([[1.0]]),
        )
        wide = dataclasses.replace(entry, forward=SetValuedMap(
            "two-valued", 1, 1, pointwise(lambda x, w: np.array([[float(x[0])], [2.0 * float(x[0])]]))))
        with pytest.raises(ValueError, match="single-valued"):
            certify_inverse_lipschitz(wide, Window.box([0.0], [1.0]))

    @pytest.mark.parametrize("label,m", _MAPS, ids=_MAP_IDS)
    def test_calmness_estimate(self, label, m):
        for xbar in _base_points(m):
            values = m.eval(xbar, _window(m))
            for ybar in values.points[:: max(1, len(values) // 3)]:
                for u_radius, v_radius in ((0.5, 1.0), (0.01, 0.1)):
                    kappa, vacuous = reference_calmness(m, xbar, ybar, u_radius, v_radius, 65, 1, "halton")
                    res = calmness_estimate(m, xbar, ybar, u_radius, v_radius, samples=65, seed=1,
                                            scheme="halton")
                    assert (res.kappa_hat, res.vacuous) == (kappa, vacuous)

    @pytest.mark.parametrize("label,m", [(label, m) for label, m in _MAPS if m.dim_in == 2],
                             ids=[label for label, m in _MAPS if m.dim_in == 2])
    def test_calmness_estimate_2d_over_seeds(self, label, m):
        # one norm per sample, as the loop took it: norm(X, axis=1) differs in
        # the last bit on some 2-d rows, which moves kappa when it is the max
        for seed in range(20):
            for xbar in ([0.0, 0.0], [1.0, 1.0], [-1.0, -1.0], [0.3, -0.7]):
                ybar = m.eval(xbar).points[0]
                for u_radius, v_radius in ((0.5, 1.0), (0.01, 0.1)):
                    kappa, vacuous = reference_calmness(m, xbar, ybar, u_radius, v_radius, 65, seed, "halton")
                    res = calmness_estimate(m, xbar, ybar, u_radius, v_radius, samples=65, seed=seed,
                                            scheme="halton")
                    assert (res.kappa_hat, res.vacuous) == (kappa, vacuous)
