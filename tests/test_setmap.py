import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcontinuity import (
    CatalogError,
    DimensionMismatchError,
    MissingOracleError,
    PointSet,
    SetValuedMap,
    Window,
    WindowRequiredError,
    catalog_listing,
    catalog_lookup,
    catalog_names,
    invert,
    pointwise,
    sample_window,
)
from rcontinuity.setmap import ScalarForm
from conftest import reference_member_dist, reference_value_dists

# a handled overflow must not reach the user as a numpy warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

K10 = Window.box([0.0], [10.0])
REQUIRED = [
    "rm1", "flat-exp", "square", "double-well",
    "abs-subdiff", "quad", "linear-neg", "dc-quad",
]


class TestEvalWindowed:
    def test_rm1_far_branch_excluded(self):
        got = catalog_lookup("rm1").forward.eval([0.05], K10)
        assert sorted(got.points.ravel()) == pytest.approx([0.05])

    def test_rm1_both_branches_inside(self):
        got = catalog_lookup("rm1").forward.eval([0.5], K10)
        assert sorted(got.points.ravel()) == pytest.approx([0.5, 2.0])

    def test_square_inverse_pair(self):
        got = invert(catalog_lookup("square")).eval([0.25])
        assert sorted(got.points.ravel()) == pytest.approx([-0.5, 0.5])

    def test_window_required_enforced(self):
        with pytest.raises(WindowRequiredError):
            catalog_lookup("rm1").forward.eval([0.5])

    def test_empty_value_allowed(self):
        got = invert(catalog_lookup("square")).eval([-1.0])
        assert got.is_empty

    def test_containment_is_exact(self):
        m = catalog_lookup("abs-subdiff").forward
        k = Window.box([0.0], [0.25])
        got = m.eval([0.0], k)
        assert len(got) > 0
        assert np.abs(got.points).max() <= 0.25


class TestCatalog:
    def test_required_entries_present(self):
        names = catalog_names()
        for name in REQUIRED:
            assert name in names

    def test_unknown_name(self):
        with pytest.raises(CatalogError):
            catalog_lookup("unknown-op")

    def test_rm1_shape(self):
        entry = catalog_lookup("rm1")
        assert entry.forward.window_required
        assert entry.solution_set.distance([0.0]) == 0.0

    def test_abs_subdiff_shape(self):
        entry = catalog_lookup("abs-subdiff")
        assert entry.prox is not None
        assert entry.solution_set.distance([0.0]) == 0.0
        assert entry.solution_set.distance([0.1]) == 0.1

    def test_listing_flags(self):
        listing = {item["name"]: item for item in catalog_listing()}
        assert len(listing) >= 8
        assert listing["rm1"]["window_required"] is True
        assert listing["linear-neg"]["oracles"]["prox"] is True
        assert listing["linear-neg"]["monotone"] is False

    def test_invert_requires_registration(self):
        with pytest.raises(MissingOracleError):
            invert(catalog_lookup("rm1"))

    @pytest.mark.parametrize("name", ["quad", "dc-quad", "quad2"])
    def test_gradient_map_shares_the_inverse(self, name):
        # where subgrad is forward, grad_inverse is the inverse map itself
        entry = catalog_lookup(name)
        assert entry.subgrad is entry.forward and entry.grad_inverse is entry.inverse

    def test_flat_exp_inverse_closed_form(self):
        inv = invert(catalog_lookup("flat-exp"))
        y = 0.2
        expected = math.sqrt(-1.0 / math.log(y))
        assert sorted(inv.eval([y]).points.ravel()) == pytest.approx([-expected, expected])
        assert inv.eval([0.0]).points.ravel() == pytest.approx([0.0])
        assert inv.eval([-0.5]).is_empty
        assert inv.eval([1.5]).is_empty

    @pytest.mark.parametrize("name, v, expected", [
        # x^2 overflows past about 1.34e154; a x^2 / 2 does not for these
        ("quad", 1.5e154, (0.5 * 1.5e154) * 1.5e154),
        ("quad", -1.8e154, (0.5 * -1.8e154) * -1.8e154),
        ("dc-quad", 2e154, (0.25 * 2e154) * 2e154),
        # -x^2 overflows as well: the limit stays
        ("linear-neg", 1.5e154, -math.inf),
        ("quad", 1e200, math.inf),
        # finite squares keep Python's ** bits, which differ from v * v here
        ("quad", -3.185143532292248e-132, 0.5 * (-3.185143532292248e-132) ** 2),
    ])
    def test_linear_f_overflows_only_where_its_value_does(self, name, v, expected):
        assert catalog_lookup(name).f([v]) == expected

    @pytest.mark.parametrize("v", [1e-170, -1e-170, 1e-155, -1e-155, 1e-110, -1e-110])
    def test_flat_exp_oracles_take_the_limit_where_powers_underflow(self, v):
        # v * v underflows below about 1.5e-162 and v ** 3 below about 1.7e-108
        entry = catalog_lookup("flat-exp")
        assert entry.f([v]) == 0.0
        assert entry.grad([v]).tolist() == [0.0]
        assert entry.jac([v]).tolist() == [[0.0]]
        assert entry.subgrad.eval([v]).points.tolist() == [[0.0]]


def _probe_points(entry, count, seed):
    if entry.name == "flat-exp":
        # exp(-1/x^2) underflows to exactly 0.0 for |x| < 0.037, which would
        # collapse the forward value onto the solution branch; probe outside
        w = Window.box([1.0], [0.95])
    elif entry.dim_in == 1:
        w = Window.box([0.3], [1.7])  # keeps rm1-style branch values finite
    else:
        w = Window.box([0.0] * entry.dim_in, [2.0] * entry.dim_in)
    return sample_window(w, "halton", count, seed).points


@pytest.mark.parametrize("name", sorted(catalog_names()))
class TestCatalogConsistency:
    def test_inverse_consistency(self, name):
        entry = catalog_lookup(name)
        if entry.inverse is None:
            pytest.skip("no inverse registered")
        big = Window.box([0.0] * entry.dim_out, [1e6] * entry.dim_out)
        bigx = Window.box([0.0] * entry.dim_in, [1e6] * entry.dim_in)
        for x in _probe_points(entry, 200, seed=3):
            for y in entry.forward.eval(x, big):
                assert entry.inverse.member_dist(y, x, bigx) <= 1e-9
        for y in _probe_points(entry, 200, seed=4)[:, : entry.dim_out]:
            vals = entry.inverse.eval(y, bigx)
            for x in vals:
                assert entry.forward.member_dist(x, y, big) <= 1e-9

    def test_resolvent_identity(self, name):
        entry = catalog_lookup(name)
        if entry.prox is None:
            pytest.skip("no prox oracle")
        for gamma in (0.1, 0.3, 1.0, 2.0):
            if not entry.prox.valid_gamma(gamma):
                continue
            for y in _probe_points(entry, 100, seed=5):
                x = entry.prox.resolve(gamma, y)
                w = (y - x) / gamma
                assert entry.forward.member_dist(x, w) <= 1e-9

    def test_solution_set_members_solve(self, name):
        entry = catalog_lookup(name)
        zero = np.zeros(entry.dim_out)
        big = Window.box([0.0] * entry.dim_out, [1e6] * entry.dim_out)
        for z in entry.solution_set.sample(50):
            if entry.forward.window_required:
                assert entry.forward.member_dist(z, zero, big) <= 1e-9
            else:
                assert entry.forward.member_dist(z, zero) <= 1e-9

    def test_eval_respects_window(self, name):
        entry = catalog_lookup(name)
        k = Window.box([0.0] * entry.dim_out, [2.0] * entry.dim_out)
        for x in _probe_points(entry, 25, seed=7):
            got = entry.forward.eval(x, k)
            if len(got):
                assert k.contains_rows(got.points).all()

    def test_evaluation_is_deterministic(self, name):
        entry = catalog_lookup(name)
        k = Window.box([0.0] * entry.dim_out, [5.0] * entry.dim_out)
        x = _probe_points(entry, 1, seed=8)[0]
        a = entry.forward.eval(x, k).points
        b = entry.forward.eval(x, k).points
        assert np.array_equal(a, b)

    def test_large_window_matches_unwindowed(self, name):
        entry = catalog_lookup(name)
        if entry.forward.window_required:
            pytest.skip("unwindowed evaluation is refused by contract")
        big = Window.box([0.0] * entry.dim_out, [1e9] * entry.dim_out)
        for x in _probe_points(entry, 10, seed=11):
            assert np.array_equal(entry.forward.eval(x, big).points,
                                  entry.forward.eval(x, None).points)


# The resolvents as ``rule(gamma, y)`` before ProxOracle.bind, and where
# ProxOracle.resolve refused gamma: not positive, or outside the valid range.
_Q2, _B2 = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -0.5])
_PARENT_RULES = {
    "abs-subdiff": lambda gamma, y: (lambda v: np.array([math.copysign(max(abs(v) - gamma, 0.0), v)]))(
        float(np.asarray(y).reshape(-1)[0])),
    "quad": lambda gamma, y: np.asarray(y, dtype=float) / (1.0 + gamma * 1.0),
    "linear-neg": lambda gamma, y: np.asarray(y, dtype=float) / (1.0 + gamma * -2.0),
    "dc-quad": lambda gamma, y: np.asarray(y, dtype=float) / (1.0 + gamma * 0.5),
    "dc-quad.g_prox": lambda gamma, y: np.asarray(y, dtype=float) / (1.0 + gamma),
    "quad2": lambda gamma, y: np.linalg.solve(np.eye(2) + gamma * _Q2, np.asarray(y, dtype=float) + gamma * _B2),
}


def _prox_oracle(oracle: str):
    """The catalog's ProxOracle named ``entry`` or ``entry.g_prox``, its rule
    before ``bind``, and the gammas that ``resolve`` refused."""
    name, _, field = oracle.partition(".")
    entry = catalog_lookup(name)
    prox = entry.dc.g_prox if field else entry.prox

    def refused(gamma):
        return not gamma > 0 or (name == "linear-neg" and not abs(gamma - 0.5) > 1e-12)

    return prox, _PARENT_RULES[oracle], refused


class TestProxOracle:
    def test_gamma_domain_enforced(self):
        entry = catalog_lookup("linear-neg")
        with pytest.raises(ValueError):
            entry.prox.resolve(0.5, [1.0])
        assert entry.prox.resolve(0.25, [1.0]) == pytest.approx([2.0])

    def test_gamma_must_be_positive(self):
        entry = catalog_lookup("quad")
        with pytest.raises(ValueError):
            entry.prox.resolve(-1.0, [1.0])

    @pytest.mark.parametrize("oracle", sorted(_PARENT_RULES))
    def test_bind_gives_the_rule_it_replaced_bit_for_bit(self, oracle):
        prox, rule, _ = _prox_oracle(oracle)
        rng = np.random.default_rng(sum(map(ord, oracle)))
        dim = catalog_lookup(oracle.split(".")[0]).dim_in
        for gamma in 10.0 ** rng.uniform(-3.0, 3.0, 20):
            gamma = float(gamma)
            if not prox.valid_gamma(gamma):
                continue
            bound = prox.bind(gamma)
            for y in rng.standard_normal((10, dim)) * 10.0 ** rng.uniform(-5.0, 5.0, (10, 1)):
                want = rule(gamma, y)
                assert bound(y).tobytes() == want.tobytes()
                assert prox.resolve(gamma, y).tobytes() == want.tobytes()
                assert prox.resolve(gamma, y.tolist()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("oracle", sorted(_PARENT_RULES))
    @pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan, 1e-300, 0.25, 0.5, 0.5 - 1e-13, 0.5 + 2e-12, 1.0, 1e300])
    def test_bind_refuses_gamma_where_resolve_did(self, oracle, gamma):
        prox, _, refused = _prox_oracle(oracle)
        if refused(gamma):
            with pytest.raises(ValueError):
                prox.bind(gamma)
            with pytest.raises(ValueError):
                prox.resolve(gamma, [1.0] * catalog_lookup(oracle.split(".")[0]).dim_in)
        else:
            prox.bind(gamma)


class TestUserDefinedMap:
    def test_member_dist_falls_back_to_eval(self):
        m = SetValuedMap("pair", 1, 1, pointwise(lambda x, w: np.array([[0.0], [2.0]])))
        assert m.member_dist([0.0], [1.2]) == pytest.approx(0.8)

    def test_dimension_checked(self):
        m = catalog_lookup("quad2").forward
        with pytest.raises(Exception):
            m.eval([1.0])


# --- row-wise evaluation against the per-point formulas ------------------------
#
# The per-point evaluators every catalog map had before evaluation became
# row-wise, kept here as the reference ``eval_rows`` must reproduce bit for bit.

def _ref_rows(*vals):
    return np.array([[float(v)] for v in vals])


def _ref_interval_rows(lo, hi, n=257):
    if hi < lo:
        return np.empty((0, 1))
    if hi == lo:
        return _ref_rows(lo)
    return np.linspace(lo, hi, n).reshape(-1, 1)


def _ref_window_interval(window, default_lo, default_hi):
    lo, hi = default_lo, default_hi
    if window is not None:
        c = float(window.center[0])
        e = float(window.extent[0])
        lo, hi = max(lo, c - e), min(hi, c + e)
    return lo, hi


def _ref_rm1(x, window):
    v = float(x[0])
    if v == 0.0:
        return _ref_rows(0.0)
    return _ref_rows(v, 1.0 / v)


def _ref_flat_exp_f(x):
    v = float(np.asarray(x).reshape(-1)[0])
    if v == 0.0:
        return 0.0
    return float(np.exp(-1.0 / (v * v)))


def _ref_flat_exp_grad(x):
    v = float(np.asarray(x).reshape(-1)[0])
    if v == 0.0:
        return np.array([0.0])
    return np.array([2.0 * np.exp(-1.0 / (v * v)) / v ** 3])


def _ref_flat_exp_inverse(y, window):
    w = float(y[0])
    if w == 0.0:
        return _ref_rows(0.0)
    if 0.0 < w < 1.0:
        r = math.sqrt(-1.0 / math.log(w))
        return _ref_rows(-r, r)
    return np.empty((0, 1))


def _ref_square_inverse(y, window):
    w = float(y[0])
    if w < 0.0:
        return np.empty((0, 1))
    if w == 0.0:
        return _ref_rows(0.0)
    r = math.sqrt(w)
    return _ref_rows(-r, r)


def _ref_dw_f(x):
    v = float(np.asarray(x).reshape(-1)[0])
    return (v * (v - 1.0)) ** 2


def _ref_dw_grad(x):
    v = float(np.asarray(x).reshape(-1)[0])
    return np.array([2.0 * v * (v - 1.0) * (2.0 * v - 1.0)])


def _ref_double_well_inverse(y, window):
    w = float(y[0])
    if w < 0.0:
        return np.empty((0, 1))
    if w == 0.0:
        return _ref_rows(0.0, 1.0)
    s = math.sqrt(w)
    roots = []
    roots += [(1.0 + math.sqrt(1.0 + 4.0 * s)) / 2.0, (1.0 - math.sqrt(1.0 + 4.0 * s)) / 2.0]
    if 1.0 - 4.0 * s >= 0.0:
        roots += [(1.0 + math.sqrt(1.0 - 4.0 * s)) / 2.0, (1.0 - math.sqrt(1.0 - 4.0 * s)) / 2.0]
    return _ref_rows(*roots)


def _ref_abs_subdiff(x, window):
    v = float(x[0])
    if v > 0.0:
        return _ref_rows(1.0)
    if v < 0.0:
        return _ref_rows(-1.0)
    lo, hi = _ref_window_interval(window, -1.0, 1.0)
    return _ref_interval_rows(lo, hi)


def _ref_abs_subdiff_inverse(y, window):
    w = float(y[0])
    if abs(w) > 1.0:
        return np.empty((0, 1))
    if abs(w) < 1.0:
        return _ref_rows(0.0)
    if w == 1.0:
        lo, hi = _ref_window_interval(window, 0.0, math.inf)
        return _ref_interval_rows(lo, hi)
    lo, hi = _ref_window_interval(window, -math.inf, 0.0)
    return _ref_interval_rows(lo, hi)


_Q = np.array([[2.0, 0.5], [0.5, 1.0]])
_B = np.array([1.0, -0.5])

reference_evaluators = {
    "rm1": _ref_rm1,
    "flat-exp": lambda x, w: _ref_rows(_ref_flat_exp_f(x)),
    "flat-exp-inverse": _ref_flat_exp_inverse,
    "flat-exp-grad": lambda x, w: _ref_flat_exp_grad(x).reshape(1, 1),
    "square": lambda x, w: _ref_rows(float(x[0]) ** 2),
    "square-inverse": _ref_square_inverse,
    "square-grad": lambda x, w: np.array([2.0 * float(x[0])]).reshape(1, 1),
    "square-grad-inverse": lambda y, w: _ref_rows(float(y[0]) / 2.0),
    "double-well": lambda x, w: _ref_rows(_ref_dw_f(x)),
    "double-well-inverse": _ref_double_well_inverse,
    "double-well-grad": lambda x, w: _ref_dw_grad(x).reshape(1, 1),
    "abs-subdiff": _ref_abs_subdiff,
    "abs-subdiff-inverse": _ref_abs_subdiff_inverse,
    "quad": lambda x, w: _ref_rows(float(x[0])),
    "quad-inverse": lambda y, w: _ref_rows(float(y[0])),
    "quad2": lambda x, w: (_Q @ x - _B).reshape(1, 2),
    "quad2-inverse": lambda y, w: np.linalg.solve(_Q, y + _B).reshape(1, 2),
    "linear-neg": lambda x, w: _ref_rows(-2.0 * float(x[0])),
    "linear-neg-inverse": lambda y, w: _ref_rows(-0.5 * float(y[0])),
    "dc-quad": lambda x, w: _ref_rows(0.5 * float(x[0])),
    "dc-quad-inverse": lambda y, w: _ref_rows(2.0 * float(y[0])),
}


def catalog_maps():
    """Every map of the catalog, by name."""
    maps = {}
    for name in catalog_names():
        entry = catalog_lookup(name)
        for m in (entry.forward, entry.inverse, entry.subgrad, entry.grad_inverse):
            if m is not None:
                maps[m.name] = m
    return maps


def stacked_reference(m, X, window):
    """``(points, owner)`` from the per-point reference, one row at a time.

    Where ``v ** 3`` underflows to 0 for a nonzero ``v``, the per-point
    ``exp(-1/v**2)`` and its derivative divide by zero or give NaN; the maps
    give the limit 0 there.
    """
    blocks, owner = [], []
    for i, x in enumerate(X):
        if m.name in ("flat-exp", "flat-exp-grad") and x[0] ** 3 == 0.0:
            raw = [[0.0]]
        else:
            raw = reference_evaluators[m.name](x.copy(), window)
        vals = np.asarray(raw, dtype=float).reshape(-1, m.dim_out)
        if window is not None:
            vals = vals[window.contains_rows(vals)]
        blocks.append(vals)
        owner += [i] * len(vals)
    return PointSet(np.concatenate(blocks) if blocks else np.empty((0, m.dim_out))).points, owner


# branch points of the catalog (0, +-1, the double-well's 1 - 4 sqrt(y) = 0 at
# y = 1/16, ...), numbers whose square or cube underflows, and points far
# outside every window below
_BRANCH_POINTS = [0.0, -0.0, 1.0, -1.0, 1.0 / 16.0, 0.25, 0.5, -0.5, 2.0, 1e-200, -5e-324, -1e-150, 40.0]
_COORDS = st.one_of(st.sampled_from(_BRANCH_POINTS), st.floats(-3.0, 3.0), st.floats(-1e3, 1e3))
_WINDOWS = {
    1: [None, Window.box([0.0], [2.0]), Window.ball([0.5], 1.0), Window.box([1.0], [0.25])],
    2: [None, Window.box([0.0, 0.0], [2.0, 2.0]), Window.ball([0.5, 0.0], 1.0),
        Window.box([1.0, -1.0], [0.25, 0.25])],
}


@pytest.mark.parametrize("name", sorted(catalog_maps()))
class TestEvalRows:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_stacked_per_point_evaluator(self, name, data):
        m = catalog_maps()[name]
        X = np.array(data.draw(st.lists(st.lists(_COORDS, min_size=m.dim_in, max_size=m.dim_in),
                                        max_size=12)), dtype=float).reshape(-1, m.dim_in)
        window = data.draw(st.sampled_from(_WINDOWS[m.dim_out]))
        if window is None and m.window_required:
            with pytest.raises(WindowRequiredError):
                m.eval_rows(X, window)
            return
        try:
            want, want_owner = stacked_reference(m, X, window)
        except ValueError:  # a non-finite value the window does not drop
            with pytest.raises(ValueError, match="finite"):
                m.eval_rows(X, window)
            return
        got, owner = m.eval_rows(X, window)
        assert got.points.shape == want.shape
        assert got.points.tobytes() == want.tobytes()  # bit for bit, signed zeros included
        assert owner.tolist() == want_owner

    def test_matches_on_a_dense_sample(self, name):
        # Hypothesis favours short mantissas, on which numpy and Python round
        # alike; last-bit differences of **, log and solve show on random ones
        m = catalog_maps()[name]
        rng = np.random.default_rng(5)
        signs = rng.choice([-1.0, 1.0], (600, m.dim_in))
        X = np.concatenate([rng.uniform(-3.0, 3.0, (600, m.dim_in)), rng.uniform(0.0, 1.0, (4000, m.dim_in)),
                            signs * 10.0 ** rng.uniform(-8, 1, (600, m.dim_in))])
        for window in _WINDOWS[m.dim_out][int(m.window_required):2]:
            want, want_owner = stacked_reference(m, X, window)
            got, owner = m.eval_rows(X, window)
            assert got.points.tobytes() == want.tobytes()
            assert owner.tolist() == want_owner

    def test_eval_is_the_one_row_form(self, name):
        m = catalog_maps()[name]
        window = _WINDOWS[m.dim_out][1]
        for x in [[0.0] * m.dim_in, [1.0] * m.dim_in, [0.3] * m.dim_in]:
            got, owner = m.eval_rows(np.array([x]), window)
            assert np.array_equal(m.eval(x, window).points, got.points)
            assert not owner.any()

    def test_has_a_reference(self, name):
        assert name in reference_evaluators


# --- row-wise membership distances against the per-point references ------------

_VALUE_DIST_MAPS = sorted(name for name, m in catalog_maps().items() if m.value_dist is not None)
_OTHER_MAPS = sorted(name for name, m in catalog_maps().items() if m.value_dist is None)
# signed zeros, +-1, subnormals and huge numbers: where 1/v, |w| - 1 and
# Python's max and min change regime or overflow
_MEMBER_POINTS = [0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 5e-324, -5e-324, 1e-310, 1e-200, 1e300, -1e300,
                  1.7976931348623157e308]
_MEMBER_COORDS = st.one_of(st.sampled_from(_MEMBER_POINTS), _COORDS, st.floats(allow_nan=False, allow_infinity=False))


def draw_paired_rows(data, m, coords):
    n = data.draw(st.integers(0, 12))
    rows = [data.draw(st.lists(coords, min_size=n * dim, max_size=n * dim)) for dim in (m.dim_in, m.dim_out)]
    return (np.array(rows[0], dtype=float).reshape(n, m.dim_in),
            np.array(rows[1], dtype=float).reshape(n, m.dim_out))


def per_row_reference(m, X, Y, window):
    return np.array([reference_member_dist(m, x, y, window) for x, y in zip(X, Y)], dtype=float)


@pytest.mark.parametrize("name", _VALUE_DIST_MAPS)
class TestMemberDistRowsByValueDist:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_the_scalar_closure(self, name, data):
        m = catalog_maps()[name]
        X, Y = draw_paired_rows(data, m, _MEMBER_COORDS)
        window = data.draw(st.sampled_from(_WINDOWS[m.dim_out]))  # value_dist ignores it
        got = m.member_dist_rows(X, Y, window)
        assert got.shape == (len(X),) and got.dtype == np.float64
        assert got.tobytes() == per_row_reference(m, X, Y, None).tobytes()  # signed zeros included

    def test_matches_on_a_dense_sample(self, name):
        m = catalog_maps()[name]
        rng = np.random.default_rng(17)
        pairs = np.array([(v, w) for v in _MEMBER_POINTS for w in _MEMBER_POINTS])
        signs = rng.choice([-1.0, 1.0], (3000, 2))
        pairs = np.concatenate([pairs, rng.uniform(-3.0, 3.0, (3000, 2)),
                                signs * 10.0 ** rng.uniform(-320, 308, (3000, 2)),
                                rng.choice([-1.0, 0.0, 1.0], (300, 2))])
        X, Y = pairs[:, :1], pairs[:, 1:]
        assert m.member_dist_rows(X, Y).tobytes() == per_row_reference(m, X, Y, None).tobytes()


def test_every_value_dist_has_a_reference():
    assert set(reference_value_dists) == set(_VALUE_DIST_MAPS)


@pytest.mark.parametrize("name", _OTHER_MAPS)
class TestMemberDistRowsByEvaluation:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_the_distance_to_each_value(self, name, data):
        m = catalog_maps()[name]
        X, Y = draw_paired_rows(data, m, _COORDS)
        window = data.draw(st.sampled_from(_WINDOWS[m.dim_out]))
        if window is None and m.window_required:
            with pytest.raises(WindowRequiredError):
                m.member_dist_rows(X, Y, window)
            return
        try:
            want = per_row_reference(m, X, Y, window)
        except ValueError:  # a non-finite value the window does not drop
            with pytest.raises(ValueError, match="finite"):
                m.member_dist_rows(X, Y, window)
            return
        assert m.member_dist_rows(X, Y, window).tobytes() == want.tobytes()

    def test_matches_on_a_dense_sample(self, name):
        m = catalog_maps()[name]
        rng = np.random.default_rng(19)
        X, Y = rng.uniform(-3.0, 3.0, (400, m.dim_in)), rng.uniform(-3.0, 3.0, (400, m.dim_out))
        for window in _WINDOWS[m.dim_out][int(m.window_required):2]:
            assert m.member_dist_rows(X, Y, window).tobytes() == per_row_reference(m, X, Y, window).tobytes()


class TestMemberDistRowsContract:
    @pytest.mark.parametrize("name", ["rm1", "square-inverse", "quad2"])
    def test_unpaired_rows_rejected(self, name):
        m = catalog_maps()[name]
        with pytest.raises(ValueError, match="paired"):
            m.member_dist_rows(np.zeros((3, m.dim_in)), np.zeros((2, m.dim_out)), _WINDOWS[m.dim_out][1])

    def test_rows_are_validated(self):
        m = catalog_lookup("quad2").forward
        with pytest.raises(DimensionMismatchError):
            m.member_dist_rows(np.zeros((2, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="finite"):
            m.member_dist_rows(np.zeros((1, 2)), np.array([[0.0, np.inf]]))

    def test_no_rows_give_no_distances(self):
        for m in catalog_maps().values():
            got = m.member_dist_rows(np.empty((0, m.dim_in)), np.empty((0, m.dim_out)), _WINDOWS[m.dim_out][1])
            assert got.shape == (0,) and got.dtype == np.float64

    def test_an_empty_value_is_infinitely_far(self):
        got = catalog_lookup("square").inverse.member_dist_rows([[-1.0], [4.0]], [[0.0], [1.0]])
        assert got.tolist() == [math.inf, 1.0]

    @pytest.mark.parametrize("name", sorted(catalog_maps()))
    def test_member_dist_is_the_one_row_form(self, name):
        m = catalog_maps()[name]
        window = _WINDOWS[m.dim_out][1]
        for x, y in [(0.0, 0.0), (1.0, -0.5), (0.3, 2.0), (-1.0, 1.0)]:
            X, Y = np.full((1, m.dim_in), x), np.full((1, m.dim_out), y)
            got = m.member_dist([x] * m.dim_in, [y] * m.dim_out, window)
            assert type(got) is float
            assert np.float64(got).tobytes() == m.member_dist_rows(X, Y, window).tobytes()


#: 1-d entries whose forward map is the function ``f`` itself, so that ``f``,
#: ``forward`` and ``jac`` share one closed form
_FUNCTIONS = ("flat-exp", "square", "double-well")


def assert_scalar_oracles_match_maps(entry, X):
    """Bit for bit, per row ``x`` of ``X``: ``grad(x)`` is the one value of
    ``subgrad(x)``, and for the 1-d functions ``f(x)`` is the one value of
    ``forward(x)`` and ``jac(x)`` is ``grad(x)``."""
    grads, owner = entry.subgrad.eval_rows(X)
    assert owner.tolist() == list(range(len(X)))
    values = entry.forward.eval_rows(X)[0].points if entry.name in _FUNCTIONS else None
    for i, x in enumerate(X):
        g = entry.grad(x)
        assert g.tobytes() == grads.points[i].tobytes(), x
        if values is not None:
            assert np.float64(entry.f(x)).tobytes() == values[i].tobytes(), x
            assert entry.jac(x).ravel().tobytes() == g.tobytes(), x


@pytest.mark.parametrize("name", [n for n in catalog_names() if catalog_lookup(n).grad is not None])
class TestScalarOraclesMatchMaps:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_on_drawn_points(self, name, data):
        entry = catalog_lookup(name)
        x = data.draw(st.lists(_COORDS, min_size=entry.dim_in, max_size=entry.dim_in))
        assert_scalar_oracles_match_maps(entry, np.array([x]))

    def test_on_a_dense_sample(self, name):
        # random mantissas, and magnitudes down to where squares and cubes underflow
        entry = catalog_lookup(name)
        rng = np.random.default_rng(7)
        n, d = 3000, entry.dim_in
        signs = rng.choice([-1.0, 1.0], (2 * n, d))
        X = np.concatenate([rng.uniform(-3.0, 3.0, (n, d)), rng.uniform(0.0, 1.0, (n, d)),
                            signs * 10.0 ** rng.uniform(-200.0, 50.0, (2 * n, d)),
                            np.repeat(np.array(_BRANCH_POINTS)[:, None], d, axis=1)])
        assert_scalar_oracles_match_maps(entry, X)


#: Coordinates where the closed forms change regime: ``flat-exp``'s square and
#: cube underflow (below about 1.5e-162 and 1.7e-108) and ``quad``'s square
#: overflows while its half does not (1.3e154 to 1.9e154), then both do
_F_POINTS = _BRANCH_POINTS + [1e-170, -1e-155, 1e-110, -1.7e-108, 1e-103, 1.3e154, -1.4e154, 1.5e154,
                              1.9e154, -2e154, 1e200, -1e300, 1.7e308]


def assert_f_values_match_f(entry, X):
    """Bit for bit, per row ``x`` of ``X``: ``f_values(X)`` holds ``f(x)``."""
    with np.errstate(over="ignore", invalid="ignore"):
        got = entry.f_values(X)
        want = np.array([entry.f(x) for x in X], dtype=float)
    assert got.shape == (len(X),) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name", [n for n in catalog_names() if catalog_lookup(n).f is not None])
class TestRowWiseF:
    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(data=st.data())
    def test_on_drawn_rows(self, name, data):
        entry = catalog_lookup(name)
        coord = st.one_of(_COORDS, st.sampled_from(_F_POINTS), st.floats(-1e300, 1e300))
        X = data.draw(st.lists(st.lists(coord, min_size=entry.dim_in, max_size=entry.dim_in), max_size=12))
        assert_f_values_match_f(entry, np.array(X, dtype=float).reshape(-1, entry.dim_in))

    def test_on_a_dense_sample(self, name):
        entry = catalog_lookup(name)
        rng = np.random.default_rng(11)
        n, d = 3000, entry.dim_in
        signs = rng.choice([-1.0, 1.0], (n, d))
        X = np.concatenate([rng.uniform(-3.0, 3.0, (n, d)), signs * 10.0 ** rng.uniform(-320.0, 308.0, (n, d)),
                            np.repeat(np.array(_F_POINTS)[:, None], d, axis=1)])
        assert_f_values_match_f(entry, X)


@pytest.mark.parametrize("name", [n for n in catalog_names() if isinstance(catalog_lookup(n).f, ScalarForm)])
def test_scalar_form_is_f_and_grad_on_a_float(name):
    entry = catalog_lookup(name)
    f = entry.f.form
    grad = entry.grad.form if isinstance(entry.grad, ScalarForm) else None
    assert entry.dim_in == 1 and (grad is None) == (entry.grad is None)
    rng = np.random.default_rng(13)
    values = rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-320.0, 308.0, 3000)
    for v in [*_F_POINTS, *rng.uniform(-3.0, 3.0, 3000).tolist(), *values.tolist()]:
        x = np.array([v])
        assert np.float64(f(v)).tobytes() == np.float64(entry.f(x)).tobytes(), v
        if grad is not None:
            with np.errstate(over="ignore"):
                assert np.float64(grad(v)).tobytes() == entry.grad(x).tobytes(), v


def test_f_values_loops_over_f_without_a_row_wise_form():
    entry = catalog_lookup("quad2")
    assert not isinstance(entry.f, ScalarForm)  # x @ Q @ x is a BLAS dot per row
    calls = []
    square = dataclasses.replace(catalog_lookup("square"), f=lambda x: calls.append(x) or x[0] ** 2)
    assert square.f_values(np.array([[3.0], [-2.0]])).tolist() == [9.0, 4.0]
    assert len(calls) == 2


class TestEvalRowsContract:
    def test_rows_are_validated(self):
        m = catalog_lookup("quad2").forward
        with pytest.raises(DimensionMismatchError):
            m.eval_rows(np.zeros((3, 1)))
        with pytest.raises(ValueError, match="finite"):
            m.eval_rows(np.array([[0.0, np.nan]]))

    def test_window_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            catalog_lookup("quad").forward.eval_rows(np.zeros((2, 1)), Window.box([0.0, 0.0], [1.0, 1.0]))

    def test_no_rows_give_no_values(self):
        for m in catalog_maps().values():
            window = _WINDOWS[m.dim_out][1]
            got, owner = m.eval_rows(np.empty((0, m.dim_in)), window)
            assert got.points.shape == (0, m.dim_out) and owner.size == 0

    def test_values_ordered_by_owner_stably(self):
        def ev(X, window):
            return np.array([[3.0], [1.0], [2.0], [0.0]]), np.array([1, 0, 1, 0])
        got, owner = SetValuedMap("shuffled", 1, 1, ev).eval_rows(np.zeros((2, 1)))
        assert got.points.ravel().tolist() == [1.0, 0.0, 3.0, 2.0]
        assert owner.tolist() == [0, 0, 1, 1]

    def test_window_filters_after_ordering(self):
        def ev(X, window):
            return np.array([[3.0], [0.5], [np.inf]]), np.array([0, 1, 1])
        m = SetValuedMap("filtered", 1, 1, ev)
        got, owner = m.eval_rows(np.zeros((2, 1)), Window.box([0.0], [1.0]))
        assert got.points.ravel().tolist() == [0.5] and owner.tolist() == [1]
        with pytest.raises(ValueError, match="finite"):
            m.eval_rows(np.zeros((2, 1)))

    @pytest.mark.parametrize("owner", [[0, 1], [0, 2], [-1]])
    def test_bad_owners_rejected(self, owner):
        m = SetValuedMap("bad", 1, 1, lambda X, w: (np.array([[1.0]]), np.array(owner)))
        with pytest.raises(ValueError, match="owner"):
            m.eval_rows(np.zeros((2, 1)))

    def test_pointwise_lifts_a_per_point_evaluator(self):
        lifted = SetValuedMap("ref", 1, 1, pointwise(_ref_double_well_inverse))
        X = np.array([[-1.0], [0.0], [0.01], [1.0 / 16.0], [0.5]])
        got, owner = lifted.eval_rows(X, Window.box([0.0], [2.0]))
        want, want_owner = catalog_lookup("double-well").inverse.eval_rows(X, Window.box([0.0], [2.0]))
        assert got.points.tobytes() == want.points.tobytes()
        assert owner.tolist() == want_owner.tolist()
        assert set(owner.tolist()) == {1, 2, 3, 4}  # y = -1 has no root
