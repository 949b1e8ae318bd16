import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rcontinuity import (
    DimensionMismatchError,
    EmptyTargetError,
    PointSet,
    Region,
    Window,
    distance_to_set,
    excess,
    sample_window,
)
from rcontinuity.geometry import _nearest, _norms
from conftest import refine_brute_distance

# a handled overflow must not reach the user as a numpy warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def ps(*vals):
    return PointSet(np.array(vals, dtype=float))


class TestDistanceToSet:
    def test_scalar_min(self):
        assert distance_to_set([3.0], ps(0, 1)) == 2.0

    def test_membership_gives_zero(self):
        region = Region.box([0.0, 0.0], [1.0, 2.0])
        assert distance_to_set([0.5, -1.5], region) == 0.0

    def test_midpoint(self):
        assert distance_to_set([0.5], ps(0, 1)) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            distance_to_set([1.0, 2.0], ps(0, 1))

    def test_empty_target_rejected(self):
        with pytest.raises(EmptyTargetError):
            distance_to_set([1.0], PointSet.empty(1))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            distance_to_set([float("nan")], ps(0))


class TestExcess:
    def test_sup_of_distances(self):
        assert excess(ps(1, 2), ps(0)) == 2.0

    def test_identity(self):
        assert excess(ps(0.3, -1.2), ps(0.3, -1.2)) == 0.0

    def test_empty_first_set(self):
        assert excess(PointSet.empty(1), ps(0)) == 0.0

    def test_empty_second_set_is_infinite_not_raised(self):
        assert excess(ps(0), PointSet.empty(1)) == math.inf

    def test_zero_iff_contained(self):
        a = ps(0, 1)
        b = ps(0, 0.5, 1)
        assert excess(a, b) == 0.0
        assert excess(b, a) == 0.5

    def test_against_region_target(self):
        band = Region.box([0.0], [1.0])
        assert excess(ps(0.5, 3.0), band) == 2.0

    @given(
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
        st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    )
    def test_monotone_in_first_argument(self, sub, extra, target):
        smaller = ps(*sub)
        larger = ps(*(sub + extra))
        tgt = ps(*target)
        assert excess(smaller, tgt) <= excess(larger, tgt) + 1e-12

    @given(
        st.lists(st.floats(-20, 20), min_size=1, max_size=5),
        st.lists(st.floats(-20, 20), min_size=1, max_size=5),
        st.lists(st.floats(-20, 20), min_size=1, max_size=5),
    )
    def test_triangle_style_bound(self, a, b, c):
        A, B, C = ps(*a), ps(*b), ps(*c)
        assert excess(A, C) <= excess(A, B) + excess(B, C) + 1e-9


class TestRegionDistance:
    def test_affine_requires_orthonormal_basis(self):
        with pytest.raises(ValueError):
            Region.affine([0.0, 0.0], [[1.0], [1.0]])

    def test_affine_distance(self):
        # the x-axis in the plane
        line = Region.affine([0.0, 0.0], [[1.0], [0.0]])
        assert line.distance([3.0, 4.0]) == pytest.approx(4.0, abs=1e-15)
        assert line.project([3.0, 4.0]) == pytest.approx([3.0, 0.0])

    def test_ball_distance(self):
        ball = Region.ball([1.0], 0.5)
        assert ball.distance([2.0]) == pytest.approx(0.5, abs=1e-15)
        assert ball.distance([1.2]) == 0.0

    @pytest.mark.parametrize(
        "region,x,lo,hi,projected",
        [
            (Region.box([0.0], [1.0]), [2.5], [-1.0], [1.0], False),
            (Region.box([0.5, -0.5], [1.0, 2.0]), [3.0, 4.0], [-0.5, -2.5], [1.5, 1.5], False),
            (Region.ball([0.0, 0.0], 1.0), [2.0, 1.0], [-1.0, -1.0], [1.0, 1.0], True),
            (Region.from_points([[0.0], [1.0]]), [0.4], [0.0], [1.0], True),
        ],
    )
    def test_matches_refined_brute_force(self, region, x, lo, hi, projected):
        if projected:
            free = lambda grid: np.array([region.project(g) for g in grid])
        else:
            free = lambda grid: grid  # the zoom window stays inside the box
        brute = refine_brute_distance(free, x, lo, hi)
        assert region.distance(x) == pytest.approx(brute, abs=1e-9)

    @pytest.mark.parametrize("region, rows, expected", [
        (Region.box([0.0], [1.0]), [[1e200]], [1e200]),
        (Region.ball([0.0], 1.0), [[-1e200]], [1e200]),
        (Region.affine([0.0, 0.0], [[1.0], [0.0]]), [[3.0, 1e200]], [1e200]),
        (Region.from_points([[0.0], [1.0]]), [[1e200], [5e199], [3.0]], [1e200, 5e199, 2.0]),
    ], ids=["box", "ball", "affine", "points"])
    def test_finite_distance_past_the_square_overflow_stays_finite(self, region, rows, expected):
        # the squares of these coordinates overflow; the distances do not
        assert region.distance_rows(rows).tolist() == expected

    @pytest.mark.parametrize("target", [[[0.0]], [[0.0], [1.0], [-3.0]]], ids=["one-point", "three-points"])
    def test_a_1d_distance_below_the_square_underflow_is_exact(self, target):
        # 1e-200 squared underflows to 0; the 1-d distance is |x - p| itself
        rows = [[1e-200], [-5e-324], [1e-161], [-2.5e-170]]
        assert Region.from_points(target).distance_rows(rows).tolist() == [1e-200, 5e-324, 1e-161, 2.5e-170]
        assert PointSet(target).distance_rows([[1e-200]]).tolist() == [1e-200]

    @pytest.mark.parametrize("region, expected", [
        (Region.box([0.0], [1e-250]), [1e-200, 1e-200]),
        (Region.ball([1e-200], 1e-250), [0.0, 2e-200]),
    ], ids=["box", "ball"])
    def test_a_1d_region_distance_below_the_square_underflow_is_exact(self, region, expected):
        # the squares of these gaps underflow to 0; the 1-d norm is |gap| itself
        assert region.distance_rows([[1e-200], [-1e-200]]).tolist() == expected

    def test_affine_sampling_stays_on_subspace(self):
        plane = Region.affine([1.0, 0.0, 0.0], np.eye(3)[:, 1:])
        for p in plane.sample(16):
            assert plane.distance(p) <= 1e-12


class TestProject:
    def test_ball_projection_past_the_square_overflow(self):
        # ||(1e200, 1e200)|| squares past the float range; the projection is the unit diagonal
        got = Region.ball([0.0, 0.0], 1.0).project([1e200, 1e200])
        assert got == pytest.approx([math.sqrt(0.5)] * 2, rel=1e-15)
        assert Region.ball([1.0], 2.0).project([-1e300]).tolist() == [-1.0]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_ball_projection_keeps_the_per_vector_bits(self, data):
        dim = data.draw(st.integers(1, 3))
        coord = st.floats(-1e6, 1e6)
        c, p = (np.array(data.draw(st.lists(coord, min_size=dim, max_size=dim))) for _ in range(2))
        r = data.draw(st.floats(0.0, 1e3))
        d = np.linalg.norm(p - c)
        want = p if d <= r else c + (p - c) * (r / d)
        assert Region.ball(c, r).project(p).tobytes() == want.tobytes()

    def test_points_projection_past_the_square_overflow(self):
        # both differences square past the float range; the second point is nearer
        region = Region.from_points([[-1e200, -1e200], [1e200, 1e200]])
        assert region.project([5e199, 5e199]).tolist() == [1e200, 1e200]
        assert Region.from_points([[-1e200], [1e200]]).project([5e199]).tolist() == [1e200]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_points_projection_is_the_first_nearest(self, data):
        dim = data.draw(st.integers(1, 3))
        pts = np.array(data.draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim),
                                          min_size=1, max_size=8)))
        p = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
        # in 1-d the gap |x - p| itself, which no square underflows
        gaps = np.abs(pts[:, 0] - p[0]) if dim == 1 else np.linalg.norm(pts - p, axis=1)
        assert Region.from_points(pts).project(p).tobytes() == pts[int(np.argmin(gaps))].tobytes()

    def test_box_and_affine_projection(self):
        assert Region.box([0.0, 0.0], [1.0, 2.0]).project([1e200, -3.0]).tolist() == [1.0, -2.0]
        assert Region.affine([0.0, 1.0], [[1.0], [0.0]]).project([1e200, 1e200]).tolist() == [1e200, 1.0]


def reference_distance(target, x) -> float:
    """The per-point distance formulas that preceded ``distance_rows``, except
    that a 1-d point distance is ``|x - p|``, which no squaring underflows."""
    p = np.asarray(x, dtype=float)
    if isinstance(target, PointSet) or target.kind == "points":
        if p.size == 1:
            return float(np.min(np.abs(target.points[:, 0] - p[0])))
        return float(np.min(np.linalg.norm(target.points - p, axis=1)))
    if target.kind == "box":
        return float(np.linalg.norm(np.maximum(np.abs(p - target.center) - target.halfwidths, 0.0)))
    if target.kind == "ball":
        return float(max(0.0, np.linalg.norm(p - target.center) - target.radius))
    r = p - target.anchor
    return float(np.linalg.norm(r - target.basis @ (target.basis.T @ r)))


def _rows(dim, lo=-50.0, hi=50.0, min_rows=1):
    return st.integers(min_rows, 8).flatmap(
        lambda n: arrays(np.float64, (n, dim), elements=st.floats(lo, hi)))


@st.composite
def point_targets(draw):
    """A dimension, a nonempty PointSet or ``points`` region of it, and rows."""
    dim = draw(st.integers(1, 3))
    pts = draw(_rows(dim))
    target = PointSet(pts) if draw(st.booleans()) else Region("points", points=pts)
    return target, draw(_rows(dim))


@st.composite
def closed_form_regions(draw):
    """A box, ball or affine region and rows, all at unit scale: there the
    reordered sums of the row-wise forms stay within 1e-15 of the old ones."""
    dim = draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0)
    center = draw(arrays(np.float64, dim, elements=unit))
    kind = draw(st.sampled_from(["box", "ball", "affine"]))
    if kind == "box":
        region = Region.box(center, draw(arrays(np.float64, dim, elements=st.floats(0.0, 1.0))))
    elif kind == "ball":
        region = Region.ball(center, draw(st.floats(0.0, 1.0)))
    else:
        k = draw(st.integers(1, dim))
        raw = draw(arrays(np.float64, (dim, k), elements=unit))
        region = Region.affine(center, np.linalg.qr(raw)[0])
    return region, draw(_rows(dim, -1.0, 1.0))


class TestDistanceRows:
    @given(point_targets())
    def test_point_targets_match_the_per_point_formula_bit_for_bit(self, case):
        target, rows = case
        expected = [reference_distance(target, x) for x in rows]
        assert np.array_equal(target.distance_rows(rows), expected)

    @given(closed_form_regions())
    def test_closed_form_regions_match_the_per_point_formula(self, case):
        region, rows = case
        expected = [reference_distance(region, x) for x in rows]
        np.testing.assert_allclose(region.distance_rows(rows), expected, rtol=1e-15, atol=1e-15)

    @given(point_targets())
    def test_excess_is_the_largest_per_point_distance(self, case):
        target, rows = case
        assert excess(PointSet(rows), target) == max(reference_distance(target, x) for x in rows)

    @given(closed_form_regions())
    def test_excess_against_a_closed_form_region(self, case):
        region, rows = case
        expected = max(reference_distance(region, x) for x in rows)
        assert excess(PointSet(rows), region) == pytest.approx(expected, rel=1e-15, abs=1e-15)

    @given(point_targets(), st.data())
    def test_non_finite_rows_are_rejected(self, case, data):
        target, rows = case
        i = data.draw(st.integers(0, rows.shape[0] - 1))
        j = data.draw(st.integers(0, rows.shape[1] - 1))
        rows[i, j] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        with pytest.raises(ValueError):
            target.distance_rows(rows)

    @given(point_targets(), st.integers(1, 3))
    def test_rows_of_another_width_are_rejected(self, case, extra):
        target, rows = case
        with pytest.raises(DimensionMismatchError):
            target.distance_rows(np.hstack([rows, np.zeros((rows.shape[0], extra))]))

    @given(point_targets())
    def test_non_2d_input_is_rejected(self, case):
        target, rows = case
        with pytest.raises(ValueError):
            target.distance_rows(rows[None, :, :])
        with pytest.raises(ValueError):
            target.distance_rows(np.float64(rows[0, 0]))

    @given(_rows(2))
    def test_empty_point_set_is_an_error(self, rows):
        with pytest.raises(EmptyTargetError):
            PointSet.empty(2).distance_rows(rows)


def broadcast_nearest(rows, points):
    """The broadcast form of ``_nearest``: every row-point distance, the least
    per row, and the scaled norms for rows whose norms all overflow.  In 1-d
    the distance is ``|x - p|``."""
    if points.shape[1] == 1:
        return np.abs(rows - points.T).min(axis=1)
    d = np.linalg.norm(rows[:, None, :] - points[None, :, :], axis=2).min(axis=1)
    over = np.isinf(d)
    if over.any():
        d[over] = _norms(rows[over, None, :] - points[None, :, :]).min(axis=1)
    return d


#: 1-d coordinates from 1e-300 to 1e300: where squares underflow (below about
#: 1.5e-162) or overflow (above about 1.3e154), and subnormals
_MAGNITUDES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -1e-300, 1e-200, 1.5e-162, 1e-150, 1.0, 1.3e154, -1.4e154, 1e200,
                     -1e300, 1e300]),
    st.floats(-1e300, 1e300), st.floats(-1e-150, 1e-150), st.floats(-10.0, 10.0))


@st.composite
def sorted_nearest_cases(draw):
    """Unsorted 1-d targets of at least two points, with duplicates, and rows
    among which are target points and exact midpoints (ties)."""
    targets = draw(st.lists(_MAGNITUDES, min_size=2, max_size=12))
    targets += draw(st.lists(st.sampled_from(targets), max_size=3))
    midpoints = [a / 2.0 + b / 2.0 for a, b in zip(targets, targets[1:])]
    rows = draw(st.lists(st.one_of(_MAGNITUDES, st.sampled_from(targets), st.sampled_from(midpoints)),
                         max_size=16))
    return np.array(rows, dtype=float).reshape(-1, 1), np.array(targets).reshape(-1, 1)


class TestSortedNearest:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(sorted_nearest_cases())
    def test_matches_the_broadcast_form_bit_for_bit(self, case):
        rows, targets = case
        with np.errstate(over="ignore"):
            assert _nearest(rows, targets).tobytes() == broadcast_nearest(rows, targets).tobytes()

    def test_a_dense_sample_matches_the_broadcast_form(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n, m = rng.integers(0, 50), rng.integers(2, 40)
            scale = 10.0 ** rng.uniform(-300.0, 300.0)
            targets = rng.standard_normal((m, 1)) * scale * 10.0 ** rng.uniform(-5.0, 5.0, (m, 1))
            rows = np.concatenate([rng.standard_normal((n, 1)) * scale, targets[: n // 4]])
            with np.errstate(over="ignore"):
                assert _nearest(rows, targets).tobytes() == broadcast_nearest(rows, targets).tobytes()

    def test_no_rows_give_no_distances(self):
        assert _nearest(np.empty((0, 1)), np.array([[1.0], [0.0]])).shape == (0,)


class TestSampleWindow:
    def test_interval_grid_includes_endpoints(self):
        got = sample_window(Window.ball([0.0], 1.0), "grid", 5).points.ravel()
        assert got == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_grid_box_2d_is_lattice(self):
        got = sample_window(Window.box([0.0, 0.0], [1.0, 1.0]), "grid", 9).points
        assert got.shape == (9, 2)
        xs = sorted(set(got[:, 0]))
        assert xs == pytest.approx([-1.0, 0.0, 1.0])

    def test_deterministic_for_fixed_seed(self):
        w = Window.box([0.0, 0.0], [2.0, 3.0])
        a = sample_window(w, "halton", 50, seed=7).points
        b = sample_window(w, "halton", 50, seed=7).points
        assert np.array_equal(a, b)
        c = sample_window(w, "halton", 50, seed=8).points
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("scheme", ["grid", "halton"])
    @pytest.mark.parametrize(
        "window",
        [Window.box([0.5], [2.0]), Window.ball([1.0, -1.0], 1.5), Window.box([0.0, 0.0, 0.0], [1.0, 2.0, 3.0]),
         # balls whose points' squares overflow
         Window.ball([0.0], 1e200), Window.ball([1e199, 0.0], 1e200)],
    )
    def test_all_points_inside(self, scheme, window):
        got = sample_window(window, scheme, 40, seed=1)
        assert len(got) == 40
        assert window.contains_rows(got.points).all()

    def test_count_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_window(Window.box([0.0], [1.0]), "grid", 0)

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError):
            Window.box([0.0], [0.0])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            sample_window(Window.box([0.0], [1.0]), "sobolish", 4)


class TestWindow:
    def test_scaled_keeps_center(self):
        w = Window.box([1.0], [2.0]).scaled(10.0)
        assert w.center == pytest.approx([1.0])
        assert w.extent == pytest.approx([20.0])

    def test_ball_contains(self):
        w = Window.ball([0.0, 0.0], 1.0)
        assert w.contains_rows(np.array([[0.6, 0.8], [0.61, 0.8]])).tolist() == [True, False]
        with pytest.raises(DimensionMismatchError):
            w.contains_rows(np.array([[0.6]]))

    def test_ball_contains_past_the_square_overflow(self):
        # the squares of these coordinates overflow; their norms do not
        assert Window.ball([0.0], 1e200).contains_rows(np.array([[1e180], [-1e200], [2e200]])).tolist() == [
            True, True, False]
        w = Window.ball([0.0, 0.0], 1e200)
        assert w.contains_rows(np.array([[6e199, 6e199], [8e199, 8e199]])).tolist() == [True, False]

    def test_round_trip_dict(self):
        w = Window.ball([0.5], 2.0)
        assert Window.from_dict(w.to_dict()).contains_rows(np.array([[2.4]]))[0]
