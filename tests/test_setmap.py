import math

import numpy as np
import pytest

from rcontinuity import (
    CatalogError,
    MissingOracleError,
    PointSet,
    SetValuedMap,
    Window,
    WindowRequiredError,
    catalog_listing,
    catalog_lookup,
    catalog_names,
    invert,
    sample_window,
)

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
        assert entry.solution_set.contains([0.0])

    def test_abs_subdiff_shape(self):
        entry = catalog_lookup("abs-subdiff")
        assert entry.prox is not None
        assert entry.solution_set.contains([0.0])
        assert not entry.solution_set.contains([0.1])

    def test_listing_flags(self):
        listing = {item["name"]: item for item in catalog_listing()}
        assert len(listing) >= 8
        assert listing["rm1"]["window_required"] is True
        assert listing["linear-neg"]["oracles"]["prox"] is True
        assert listing["linear-neg"]["monotone"] is False

    def test_invert_requires_registration(self):
        with pytest.raises(MissingOracleError):
            invert(catalog_lookup("rm1"))

    def test_flat_exp_inverse_closed_form(self):
        inv = invert(catalog_lookup("flat-exp"))
        y = 0.2
        expected = math.sqrt(-1.0 / math.log(y))
        assert sorted(inv.eval([y]).points.ravel()) == pytest.approx([-expected, expected])
        assert inv.eval([0.0]).points.ravel() == pytest.approx([0.0])
        assert inv.eval([-0.5]).is_empty
        assert inv.eval([1.5]).is_empty


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
        for z in entry.solution_set.sample(50, seed=6):
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


class TestUserDefinedMap:
    def test_resolution_metadata(self):
        m = catalog_lookup("abs-subdiff").forward
        assert m.resolution is not None

    def test_member_dist_falls_back_to_eval(self):
        m = SetValuedMap("pair", 1, 1, lambda x, w: np.array([[0.0], [2.0]]))
        assert m.member_dist([0.0], [1.2]) == pytest.approx(0.8)

    def test_dimension_checked(self):
        m = catalog_lookup("quad2").forward
        with pytest.raises(Exception):
            m.eval([1.0])
