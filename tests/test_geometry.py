import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rcontinuity import (
    DimensionMismatchError,
    PointSet,
    Region,
    Window,
    excess,
    sample_window,
)
from rcontinuity import geometry
from rcontinuity.geometry import (_BALL_BUDGET, ParamError, _Halton, _kth_nearest, _nearest, _norm, _norm_rows,
                                  _norms, _pow, unit_directions)
from conftest import refine_brute_distance

# a handled overflow must not reach the user as a numpy warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def ps(*vals):
    return PointSet(np.array(vals, dtype=float))


class TestPointDistance:
    # Region.distance is the one-row form of distance_rows
    def test_scalar_min(self):
        assert Region([[0.0], [1.0]]).distance([3.0]) == 2.0

    def test_membership_gives_zero(self):
        region = Region([[0.0, 0.0], [0.5, -1.5]])
        assert region.distance([0.5, -1.5]) == 0.0

    def test_midpoint(self):
        assert Region([[0.0], [1.0]]).distance([0.5]) == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Region([[0.0], [1.0]]).distance([1.0, 2.0])

    def test_empty_target_is_infinitely_far(self):
        # d(x, ∅) = inf, once the rows are valid
        assert PointSet.empty(1).distance_rows([[1.0], [-2.0]]).tolist() == [math.inf, math.inf]
        with pytest.raises(DimensionMismatchError):
            PointSet.empty(1).distance_rows([[1.0, 2.0]])
        with pytest.raises(ValueError):
            PointSet.empty(1).distance_rows([[float("nan")]])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Region([[0.0]]).distance([float("nan")])
        with pytest.raises(ValueError):
            ps(0).distance_rows([[float("nan")]])


class TestExcess:
    def test_sup_of_distances(self):
        assert excess(ps(1, 2), ps(0)) == 2.0

    def test_identity(self):
        assert excess(ps(0.3, -1.2), ps(0.3, -1.2)) == 0.0

    def test_empty_first_set(self):
        assert excess(PointSet.empty(1), ps(0)) == 0.0

    @given(st.integers(1, 3).flatmap(lambda dim: _rows(dim)))
    def test_empty_second_set_is_infinite_not_raised(self, rows):
        assert excess(PointSet(rows), PointSet.empty(rows.shape[1])) == math.inf

    def test_zero_iff_contained(self):
        a = ps(0, 1)
        b = ps(0, 0.5, 1)
        assert excess(a, b) == 0.0
        assert excess(b, a) == 0.5

    def test_against_region_target(self):
        ends = Region([[0.0], [1.0]])
        assert excess(ps(0.5, 3.0), ends) == 2.0

    def test_a_region_on_either_side(self):
        # a solution set is a point set, so it is also the set whose excess is taken
        assert excess(Region([[0.0], [1e200]]), ps(-1e200)) == 2e200
        assert excess(ps(1e200, -1e300), Region([[0.0], [1.0]])) == 1e300

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


class TestRegion:
    def test_is_a_point_set(self):
        region = Region([[0.0], [1.0]])
        assert isinstance(region, PointSet) and region.dim == 1 and len(region) == 2

    def test_refuses_an_empty_or_non_finite_list(self):
        for points in (np.empty((0, 2)), [[0.0, math.nan]], [[math.inf]], [[[0.0]]]):
            with pytest.raises(ValueError):
                Region(points)
        with pytest.raises(ValueError, match="nonempty"):
            Region(np.empty((0, 2)))

    def test_distance_and_project_refuse_another_dimension(self):
        region = Region([[0.0, 0.0], [1.0, 1.0]])
        for query in (region.distance, region.project, region.distance_rows):
            with pytest.raises(DimensionMismatchError):
                query([[1.0, 2.0, 3.0]] if query is region.distance_rows else [1.0, 2.0, 3.0])


class TestRegionDistance:
    @pytest.mark.parametrize(
        "region,x,lo,hi",
        [
            (Region([[0.0], [1.0]]), [0.4], [0.0], [1.0]),
            (Region([[-1.0], [0.5]]), [2.5], [-1.0], [1.0]),
            (Region([[-1.0, 0.0], [2.0, 0.0], [0.0, 3.0]]), [0.5, 0.5], [-1.0, 0.0], [2.0, 3.0]),
            (Region([[0.5, -0.5]]), [3.0, 4.0], [-0.5, -2.5], [1.5, 1.5]),
        ],
    )
    def test_matches_refined_brute_force(self, region, x, lo, hi):
        free = lambda grid: np.array([region.project(g) for g in grid])
        brute = refine_brute_distance(free, x, lo, hi)
        assert region.distance(x) == pytest.approx(brute, abs=1e-9)

    @pytest.mark.parametrize("target, rows, expected", [
        (Region([[0.0], [1.0]]), [[1e200], [5e199], [3.0]], [1e200, 5e199, 2.0]),
        (Region([[0.0, 0.0]]), [[3.0, 1e200]], [1e200]),
        (Region([[-1e200, -1e200], [1e200, 1e200]]), [[5e199, 5e199]], [math.hypot(5e199, 5e199)]),
        (PointSet([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), [[1e300, 0.0, 0.0], [2e200, -3e200, 6e200]], [1e300, 7e200]),
    ], ids=["points", "2d-point", "2d-points", "3d-point-set"])
    def test_finite_distance_past_the_square_overflow_stays_finite(self, target, rows, expected):
        # the squares of these coordinates overflow; the distances do not
        assert target.distance_rows(rows).tolist() == expected

    @pytest.mark.parametrize("target, rows", [
        ([[-1e308]], [[1e308]]),
        ([[-1e308], [-1.5e308]], [[1e308], [-1e308]]),
        ([[-1e308, 0.0]], [[1e308, 0.0]]),
    ], ids=["one-point", "sorted-points", "2d-point"])
    def test_a_distance_past_the_float_range_reads_inf(self, target, rows):
        # the differences themselves overflow, without a warning
        assert Region(target).distance_rows(rows).tolist() == [math.inf] + [0.0] * (len(rows) - 1)

    @pytest.mark.parametrize("target", [[[0.0]], [[0.0], [1.0], [-3.0]]], ids=["one-point", "three-points"])
    def test_a_1d_distance_below_the_square_underflow_is_exact(self, target):
        # 1e-200 squared underflows to 0; the 1-d distance is |x - p| itself
        rows = [[1e-200], [-5e-324], [1e-161], [-2.5e-170]]
        assert Region(target).distance_rows(rows).tolist() == [1e-200, 5e-324, 1e-161, 2.5e-170]
        assert PointSet(target).distance_rows([[1e-200]]).tolist() == [1e-200]

    @given(st.data())
    def test_sampling_stays_on_the_set(self, data):
        region = Region(data.draw(_rows(data.draw(st.integers(1, 3)))))
        assert region.distance_rows(region.points).tolist() == [0.0] * len(region)

    @pytest.mark.parametrize("target, rows, expected", [
        (Region([[0.0, 0.0]]), [[1e-200, 0.0]], [1e-200]),
        (Region([[0.0, 0.0]]), [[3e-160, 4e-160]], [5e-160]),
        (PointSet([[0.0, 0.0], [1.0, 1.0]]), [[-3e-200, 4e-200]], [5e-200]),
        (Region([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]), [[2e-200, -3e-200, 6e-200]], [7e-200]),
    ], ids=["point", "partial-underflow", "point-set", "3d-points"])
    def test_a_distance_below_the_square_underflow_is_exact_in_2d(self, target, rows, expected):
        # the squares of these gaps are subnormal or 0; the distances are not
        assert target.distance_rows(rows).tolist() == expected


class TestProject:
    def test_points_projection_past_the_square_overflow(self):
        # both differences square past the float range; the second point is nearer
        region = Region([[-1e200, -1e200], [1e200, 1e200]])
        assert region.project([5e199, 5e199]).tolist() == [1e200, 1e200]
        assert Region([[-1e200], [1e200]]).project([5e199]).tolist() == [1e200]

    def test_a_tie_projects_to_the_first_nearest_point(self):
        assert Region([[1.0], [-1.0]]).project([0.0]).tolist() == [1.0]
        assert Region([[0.0, -1.0], [0.0, 1.0], [0.0, -1.0]]).project([5.0, 0.0]).tolist() == [0.0, -1.0]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_points_projection_is_the_first_nearest(self, data):
        dim = data.draw(st.integers(1, 3))
        pts = np.array(data.draw(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim),
                                          min_size=1, max_size=8)))
        p = np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)))
        # in 1-d the gap |x - p| itself, and elsewhere the norm rescaled where its squares underflow, as
        # project's norms are: numpy's reads 0 for a gap of 1e-220, so its argmin would pick a farther point
        gaps = np.abs(pts[:, 0] - p[0]) if dim == 1 else scaled_row_norms(pts - p)
        assert Region(pts).project(p).tobytes() == pts[int(np.argmin(gaps))].tobytes()


def scaled_row_norms(v) -> np.ndarray:
    """``np.linalg.norm(v, axis=1)``, except below ``2**-511``, where the sum of
    squares is subnormal or 0: there the norm of ``v * 2**600``, times ``2**-600``
    (both scalings are exact)."""
    r = np.linalg.norm(v, axis=1)
    small = r < 2.0 ** -511
    r[small] = np.linalg.norm(v[small] * 2.0 ** 600, axis=1) * 2.0 ** -600
    return r


def reference_distance(target, x) -> float:
    """The per-point distance formula that preceded ``distance_rows``, except
    that it squares no coordinate below the square underflow: in 1-d it is
    ``|x - p|``, elsewhere :func:`scaled_row_norms`."""
    p = np.asarray(x, dtype=float)
    if p.size == 1:
        return float(np.min(np.abs(target.points[:, 0] - p[0])))
    return float(np.min(scaled_row_norms(target.points - p)))


def _rows(dim, lo=-50.0, hi=50.0, min_rows=1):
    return st.integers(min_rows, 8).flatmap(
        lambda n: arrays(np.float64, (n, dim), elements=st.floats(lo, hi)))


@st.composite
def point_targets(draw):
    """A dimension, a nonempty PointSet or Region of it, and rows."""
    dim = draw(st.integers(1, 3))
    pts = draw(_rows(dim))
    target = PointSet(pts) if draw(st.booleans()) else Region(pts)
    return target, draw(_rows(dim))


class TestDistanceRows:
    @given(point_targets())
    def test_point_targets_match_the_per_point_formula_bit_for_bit(self, case):
        target, rows = case
        expected = [reference_distance(target, x) for x in rows]
        assert np.array_equal(target.distance_rows(rows), expected)

    @given(point_targets())
    def test_excess_is_the_largest_per_point_distance(self, case):
        target, rows = case
        assert excess(PointSet(rows), target) == max(reference_distance(target, x) for x in rows)

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

    @given(st.integers(1, 3).flatmap(lambda dim: st.tuples(st.just(dim), _rows(dim, min_rows=0))))
    def test_empty_point_set_is_infinitely_far(self, case):
        dim, rows = case
        got = PointSet.empty(dim).distance_rows(rows)
        assert got.shape == (len(rows),) and got.dtype == np.float64 and np.all(got == math.inf)


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


def full_sort_kth_nearest(x, k):
    """The ``k``-th entry of each row of the sorted ``|x_i - x_l|`` matrix of a
    column ``x``, its diagonal left out."""
    with np.errstate(over="ignore"):
        d = np.abs(x - x.T)
    np.fill_diagonal(d, np.inf)
    d.sort(axis=1)
    return d[:, k].copy()


#: 1-d coordinates with signed zeros, a subnormal, small integers and
#: magnitudes near 1e308, whose differences overflow
_KTH_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0, -1.0, 2.0, 1e308, -1e308, 1.7976931348623157e308,
                                         -1.7976931348623157e308]), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def kth_nearest_cases(draw):
    """A column of 2 to 3,000 points, drawn with repeats from a pool of up to
    12 values (one value gives an all-equal column) and, in some draws,
    mixed with spread-out normal points; and a ``k`` from 0 to m - 2."""
    pool = np.array(draw(st.lists(_KTH_VALUES, min_size=1, max_size=12)))
    m = draw(st.integers(2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = pool[rng.integers(pool.size, size=m)]
    scale = draw(st.sampled_from([0.0, 1e-300, 1.0, 1e300]))
    if scale:
        spread = rng.random(m) < 0.5
        x[spread] = scale * rng.standard_normal(spread.sum())
    return x.reshape(-1, 1), draw(st.integers(0, m - 2))


class TestSortedKthNearest:
    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(kth_nearest_cases())
    @example((np.full((3000, 1), 7.0), 2998))
    @example((np.array([[0.0], [-0.0], [0.0], [-0.0], [1.0]]), 0))
    @example((np.array([[1e308], [-1e308], [1.7976931348623157e308], [-1.7976931348623157e308]]), 2))
    def test_matches_a_full_sort_bit_for_bit(self, case):
        pts, k = case
        assert _kth_nearest(pts, k).tobytes() == full_sort_kth_nearest(pts, k).tobytes()

    @pytest.mark.parametrize("pts", [[[1e308], [-1e308], [1e308]], [[1e308, 0.0], [-1e308, 0.0], [1e308, 0.0]]],
                             ids=["1d", "2d"])
    def test_a_distance_past_the_float_range_reads_inf(self, pts):
        assert _kth_nearest(np.array(pts), 1).tolist() == [math.inf] * 3


# finite coordinates, with signed zeros, subnormals, and magnitudes whose squares underflow or overflow
_EXTREME = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([0.0, -0.0, 5e-324, -2.2e-310, 1e-200, -1e-200, 1.3e154, -1.3e154, 1e300]))


@st.composite
def extreme_rows(draw):
    dim = draw(st.integers(1, 4))
    return draw(st.integers(0, 8).flatmap(lambda n: arrays(np.float64, (n, dim), elements=_EXTREME)))


class TestNormPrimitives:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(extreme_rows())
    def test_norm_rows_are_the_per_vector_norms_byte_for_byte(self, rows):
        with np.errstate(over="ignore"):  # _norm rescales an overflowing square; its warning is the caller's
            expected = np.array([_norm(v) for v in rows], dtype=float)
        assert _norm_rows(rows).tobytes() == expected.tobytes()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(extreme_rows())
    def test_norms_keep_numpy_bits_where_its_norm_is_normal(self, rows):
        with np.errstate(over="ignore", under="ignore"):
            expected = np.linalg.norm(rows, axis=-1)
        normal = np.isfinite(expected) & (expected >= 2.0 ** -511)
        assert _norms(rows)[normal].tobytes() == expected[normal].tobytes()

    def test_norms_past_the_square_overflow_and_below_its_underflow(self):
        # in 1-d the norm is |v|; in 2-d these squares overflow, underflow or are subnormal, the norms are not
        assert _norms(np.array([[1e-200], [-5e-324], [-1e300]])).tolist() == [1e-200, 5e-324, 1e300]
        rows = np.array([[1e-200, 0.0], [3e-160, 4e-160], [-3e-200, 4e-200], [3.0, 1e200], [-1e300, 0.0]])
        assert _norms(rows).tolist() == [1e-200, 5e-160, 5e-200, 1e200, 1e300]


def _python_pow(t: float, exponent) -> float:
    """Python's float ``**``, and the IEEE limit where it raises ``OverflowError``:
    ``-inf`` for a negative base to an odd power, ``+inf`` otherwise."""
    try:
        return t ** exponent
    except OverflowError:
        return math.copysign(math.inf, t) if exponent % 2 == 1 else math.inf


#: Signed zeros, subnormals, NaN, and bases whose square (past about 1.34e154), cube (past
#: about 5.6e102) or power -0.999 (subnormals) overflows; x ** 2 and x ** 3 underflow too.
_POW_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-170, -1e-110, math.nan, math.inf, -math.inf,
                 5.6e102, -5.7e102, 1.3e154, -1.4e154, 1e200, -1e300]


class TestPow:
    # a float's bits compared as integers: NaN equals NaN of the same payload, -0.0 differs from 0.0
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(exponent=st.sampled_from([2, 3]), values=st.lists(st.floats() | st.sampled_from(_POW_SPECIALS)))
    def test_a_column_gets_pythons_power_per_element(self, exponent, values):
        expected = np.array([_python_pow(t, exponent) for t in values], dtype=float).view(np.uint64).tolist()
        column = _pow(np.array(values, dtype=float), exponent)
        per_float = np.array([_pow(t, exponent) for t in values], dtype=float)
        assert column.view(np.uint64).tolist() == expected == per_float.view(np.uint64).tolist()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, exclude_min=True)
                    | st.sampled_from([t for t in _POW_SPECIALS if not t <= 0.0])))
    def test_a_negative_power_overflows_to_inf_on_subnormals(self, values):
        # phi'(t) = M (1 - q) t ** -q of a PLK check; below about 1e-308, t ** -0.999 overflows
        expected = np.array([_python_pow(t, -0.999) for t in values], dtype=float)
        got = _pow(np.array(values, dtype=float), -0.999)
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @pytest.mark.parametrize("exponent", [2, 3, -0.999])
    def test_a_number_that_is_not_a_float_takes_the_float_path(self, exponent):
        for t in (1.5e-170, 5e-324, 0.3, 1e200) + ((-1e200, -0.0) if exponent > 0 else ()):
            expected = _python_pow(t, exponent)
            for v in (np.float64(t), np.array(t)):
                got = _pow(v, exponent)
                assert type(got) is float
                assert np.array([got]).view(np.uint64)[0] == np.array([expected]).view(np.uint64)[0]
        assert _pow(3, exponent) == _python_pow(3.0, exponent)

    def test_an_overflow_reads_the_signed_limit(self):
        got = _pow(np.array([3.0, 1e200, -1e200, 5e-324, -0.0]), 3)
        assert got.tolist() == [27.0, math.inf, -math.inf, 0.0, -0.0] and math.copysign(1.0, got[-1]) == -1.0
        assert _pow(5e-324, -0.999) == math.inf and _pow(-1e200, 3) == -math.inf


class TestSampleWindow:
    def test_interval_grid_includes_endpoints(self):
        got = sample_window(Window.ball([0.0], 1.0), "grid", 5).points.ravel()
        assert got == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])
        # a 1-d ball grids its interval with the box's bits
        got = sample_window(Window.ball([0.3], 0.7), "grid", 9).points
        assert got.tobytes() == sample_window(Window.box([0.3], [0.7]), "grid", 9).points.tobytes()

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

    @pytest.mark.parametrize("dim", [11, 12])
    def test_halton_ball_past_ten_dimensions(self, dim):
        # a 12-d ball fills 1/3,068 of its box, so 64 points take about 196,000 candidates
        got = sample_window(Window.ball(np.zeros(dim), 1.0), "halton", 64, 0).points
        box = 2.0 * _Halton(dim, 0).random(300_000) - 1.0
        assert got.tobytes() == box[_norms(box) <= 1.0][:64].tobytes()

    def test_halton_ball_beyond_the_budget_is_refused_at_once(self):
        # a 20-d ball fills 2.5e-8 of its box: 64 points would take 2.6e9 candidates
        with pytest.raises(ParamError, match=str(_BALL_BUDGET)) as refused:
            sample_window(Window.ball(np.zeros(20), 1.0), "halton", 64, 0)
        assert refused.value.param == "scheme"

    def test_halton_ball_that_runs_out_of_budget_is_refused(self, monkeypatch):
        # 785 points of a 2-d ball should take 999.5 candidates; the first 1,000 hold fewer
        monkeypatch.setattr(geometry, "_BALL_BUDGET", 1000)
        with pytest.raises(ParamError, match="1000 candidates") as refused:
            sample_window(Window.ball(np.zeros(2), 1.0), "halton", 785, 0)
        assert refused.value.param == "scheme"
        assert len(sample_window(Window.ball(np.zeros(2), 1.0), "halton", 700, 0)) == 700


# -- the samplers against scipy, byte for byte ---------------------------------


def scipy_halton(dim, seed):
    from scipy.stats import qmc

    return qmc.Halton(d=dim, scramble=True, seed=seed)


def scipy_ball(w, count, seed):
    """Ball + Halton rejection sampling on scipy's sampler, as a list of rows."""
    sampler, rows = scipy_halton(w.dim, seed), []
    while len(rows) < count:
        cand = w.center + (2.0 * sampler.random(max(count, 64)) - 1.0) * w.extent[0]
        rows.extend(cand[w.contains_rows(cand)])
    return np.asarray(rows[:count])


#: Successive draw sizes whose start indices (0, 1, 64, 128, 1152, 4152, 4153,
#: 4396) cross powers of 2, 3, 5, 7 and 11.
_DRAWS = (1, 63, 64, 1024, 3000, 1, 243, 2)


class TestHaltonMatchesScipy:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_successive_draws(self, dim):
        for seed in range(8):
            ours, theirs = _Halton(dim, seed), scipy_halton(dim, seed)
            for n in _DRAWS:
                assert ours.random(n).tobytes() == theirs.random(n).tobytes(), (seed, n)

    @pytest.mark.parametrize("power", [2 ** 10, 3 ** 6, 5 ** 4, 7 ** 3, 11 ** 3])
    def test_draws_whose_size_or_last_index_is_a_power_of_a_base(self, power):
        # `power` points end just below the power; `power + 1` points, or one more point after
        # `power`, end at the power itself, the first index with a digit at one more level
        for seed, draws in ((0, (power, 1)), (5, (power + 1, 2))):
            ours, theirs = _Halton(5, seed), scipy_halton(5, seed)
            for n in draws:
                assert ours.random(n).tobytes() == theirs.random(n).tobytes(), (seed, n)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.lists(st.integers(1, 700), min_size=1, max_size=6))
    def test_any_seed_and_draw_sizes(self, seed, dim, draws):
        ours, theirs = _Halton(dim, seed), scipy_halton(dim, seed)
        for n in draws:
            assert ours.random(n).tobytes() == theirs.random(n).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("count", [1, 63, 64, 1024])
    def test_ball_rejection(self, dim, count):
        # in 5-d a ball fills 16% of its box, so a 1024-point draw takes several batches
        for seed in (0, 3):
            w = Window.ball(np.linspace(-1.0, 2.0, dim), 0.7)
            assert sample_window(w, "halton", count, seed).points.tobytes() == scipy_ball(w, count, seed).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_box(self, dim):
        w = Window.box(np.linspace(-1.0, 2.0, dim), np.linspace(0.5, 3.0, dim))
        want = w.center + (2.0 * scipy_halton(dim, 11).random(3000) - 1.0) * w.extent
        assert sample_window(w, "halton", 3000, 11).points.tobytes() == want.tobytes()


class TestUnitDirections:
    @pytest.mark.parametrize("dim", [2, 3, 5, 20])
    @pytest.mark.parametrize("count", [1, 8, 64, 1024])
    def test_normalized_box_draw(self, dim, count):
        for seed in (0, 7):
            z = sample_window(Window.box(np.zeros(dim), 1.0), "halton", count, seed).points
            want = z / np.linalg.norm(z, axis=1)[:, None]
            got = unit_directions(count, dim, seed)
            assert got.tobytes() == want.tobytes(), seed
            assert (np.abs(np.linalg.norm(got, axis=1) - 1.0) <= 4 * np.spacing(1.0)).all(), seed


class TestWindow:
    def test_scaled_keeps_center(self):
        w = Window.box([1.0], [2.0]).scaled(10.0)
        assert w.center == pytest.approx([1.0])
        assert w.extent == pytest.approx([20.0])

    @pytest.mark.parametrize("kind, center, extent", [
        ("box", [0.0, 1e308], [1.0, 1e308]),  # the second axis's corners overflow
        ("ball", [0.0, 1e308], [1e308]),
    ])
    def test_corners_past_the_float_range_are_refused(self, kind, center, extent):
        with pytest.raises(ValueError, match="center ± extent finite"):
            Window(kind, center, extent)

    def test_corners_within_the_float_range_are_kept(self):
        assert Window.box([1e308, -1e307], [7e307, 1.6e308]).dim == 2
        assert Window.ball([-1e308], 7e307).dim == 1

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

    def test_a_ball_extent_is_one_radius(self):
        assert Window("ball", [0.5, -0.5], [[2.0]]).extent.tolist() == [2.0]
        for extent in ([1.0, 7.0], []):
            with pytest.raises(ValueError, match="one radius"):
                Window.from_dict({"kind": "ball", "center": [0.5, -0.5], "extent": extent})

    def test_round_trip_dict(self):
        w = Window.ball([0.5], 2.0)
        assert Window.from_dict(w.to_dict()).contains_rows(np.array([[2.4]]))[0]
