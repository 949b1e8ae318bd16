import dataclasses
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rcontinuity import (
    ModulusCurve,
    Region,
    StopRule,
    catalog_lookup,
    check_h1,
    check_h2,
    check_h3,
    check_h4,
    check_rclass,
    distance_trace,
    estimate_modulus,
    make_synthetic_trace,
    run_dca,
    run_gdm,
    run_ppa,
    run_qpower_prox,
    run_shifted_ppa,
)
from rcontinuity import geometry
from rcontinuity.serialize import modulus_to_csv, trace_to_csv

S0 = Region([[0.0]])


@pytest.fixture(scope="module")
def ppa_abs():
    return run_ppa(catalog_lookup("abs-subdiff"), 0.3, [1.0])


@pytest.fixture(scope="module")
def gdm_quad():
    return run_gdm(catalog_lookup("quad"), 0.5, [1.0], StopRule(max_iter=40))


class TestH1:
    def test_gdm_exact_margin(self, gdm_quad):
        assert check_h1(gdm_quad, 1.0).passed

    def test_ppa_subproblem_alpha(self, ppa_abs):
        # the proximal subproblem with gamma corresponds to alpha = 1 / (2 gamma)
        assert check_h1(ppa_abs, 1.0 / 0.6).passed

    def test_increase_fails_at_first_step(self):
        trace = make_synthetic_trace(
            [[0.0], [1.0], [1.5]], witnesses=[], xi_values=[],
            f_values=[0.0, 2.0, 1.0],
        )
        cert = check_h1(trace, 1.0)
        assert not cert.passed
        assert cert.first_violation == 0

    def test_missing_f_values(self):
        trace = make_synthetic_trace([[0.0], [1.0]], witnesses=[], xi_values=[])
        with pytest.raises(ValueError):
            check_h1(trace, 1.0)


class TestH2:
    def test_resolvent_beta_is_reciprocal_gamma(self, ppa_abs):
        assert check_h2(ppa_abs, 1.0 / 0.3).passed

    def test_subproblem_form_beta_is_two_alpha(self, ppa_abs):
        alpha = 1.0 / 0.6
        assert check_h2(ppa_abs, 2.0 * alpha).passed

    def test_no_witnesses_is_vacuous(self):
        trace = make_synthetic_trace([[0.0], [1.0]], witnesses=[], xi_values=[])
        cert = check_h2(trace, 1.0)
        assert cert.vacuous
        assert not cert.passed

    def test_wrong_convention_rejected(self, gdm_quad):
        with pytest.raises(ValueError, match="convention"):
            check_h2(gdm_quad, 10.0)

    def test_vacuous_when_no_applicable_pair(self):
        trace = make_synthetic_trace([[1.0], [0.5]], witnesses=[(0, [1.0])], xi_values=[0.5])
        cert = check_h2(trace, 1.0)
        assert cert.vacuous
        assert not cert.passed


class TestH3:
    def test_gdm_passes_at_two(self, gdm_quad):
        assert check_h3(gdm_quad, 2.0).passed

    def test_gdm_fails_below_ratio(self, gdm_quad):
        cert = check_h3(gdm_quad, 1.5)
        assert not cert.passed
        assert cert.first_violation == 0

    def test_stationary_trace_passes(self):
        trace = make_synthetic_trace(
            [[0.0], [0.0], [0.0]],
            witnesses=[(0, [0.0]), (1, [0.0])],
            xi_values=[0.0, 0.0],
        )
        assert check_h3(trace, 1.0).passed

    def test_wrong_convention_rejected(self, ppa_abs):
        with pytest.raises(ValueError, match="convention"):
            check_h3(ppa_abs, 100.0)


class TestH4:
    def test_convergent_trace_passes(self, gdm_quad):
        assert check_h4(gdm_quad, catalog_lookup("quad")).passed

    def test_two_point_oscillation_passes(self):
        # equal heights at the two accumulation points of a double-well ridge
        pts = [[0.2], [0.8]] * 15
        entry = catalog_lookup("double-well")
        trace = make_synthetic_trace(pts, witnesses=[], xi_values=[],
                                     f_values=[float(entry.f(np.array(p))) for p in pts])
        assert check_h4(trace, entry).passed

    def test_divergent_trace_fails(self):
        trace = run_gdm(catalog_lookup("quad"), 3.0, [1.0])
        assert not check_h4(trace, catalog_lookup("quad")).passed

    def test_short_trace_inconclusive(self):
        trace = run_gdm(catalog_lookup("quad"), 0.5, [1.0], StopRule(max_iter=5))
        cert = check_h4(trace, catalog_lookup("quad"))
        assert cert.vacuous
        assert not cert.passed

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_iterates_past_the_float_range_apart_warn_nothing(self):
        # neighbours 2e308 apart are inf apart; f overflows at the cluster, so no f is within the tolerance
        with np.errstate(over="ignore"):  # the trace's own step norms overflow
            trace = make_synthetic_trace([[1e308 * (-1) ** k] for k in range(25)], witnesses=[], xi_values=[])
        cert = check_h4(trace, catalog_lookup("quad"))
        assert cert.params == {"cluster": [1e308]}
        assert not cert.passed and cert.first_violation == 0


def reference_check_h4(trace, entry, tol=1e-8, cluster_radius=1e-2, neighborhood=10):
    """``(cluster, (index, ok) pairs, note)`` as ``check_h4`` found them with a
    full sort of each distance row."""
    n = len(trace)
    pts, index_of = trace.iterates, np.arange(n)
    if n > 2000:
        index_of = np.arange(0, n, int(math.ceil(n / 2000)))
        pts = pts[index_of]
    dmat = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(dmat, np.inf)
    kth = np.sort(dmat, axis=1)[:, min(neighborhood, len(pts) - 1) - 1]
    best = int(np.argmin(kth))
    if kth[best] > cluster_radius:
        return {}, [(0, False)], "no cluster point found"
    xb = pts[best]
    fb = float(entry.f(xb))
    order = np.argsort(np.linalg.norm(pts - xb, axis=1))[:neighborhood]
    pairs = []
    for j in np.sort(index_of[order]):
        fj = trace.f_values[j] if trace.f_values is not None else float(entry.f(trace.iterates[j]))
        pairs.append((int(j), abs(fj - fb) <= tol * (1.0 + abs(fb))))
    return {"cluster": [float(v) for v in xb]}, pairs, ""


@st.composite
def h4_traces(draw):
    """A 1-d or 2-d trace of 20 to 2,500 iterates that contracts toward a
    point, plus noise; some draws leave out the recorded function values."""
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(20, 2500))
    rate = draw(st.sampled_from([0.5, 0.9, 0.99, 0.999, 1.0]))
    noise = draw(st.sampled_from([0.0, 1e-4, 1e-2, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    start = rng.normal(size=dim)
    iterates = start * rate ** np.arange(n)[:, None] + noise * rng.normal(size=(n, dim))
    entry = catalog_lookup("quad" if dim == 1 else "quad2")
    f_values = [float(entry.f(x)) for x in iterates] if draw(st.booleans()) else None
    trace = make_synthetic_trace(list(iterates), witnesses=[], xi_values=[], f_values=f_values)
    return trace, entry


class TestH4MatchesFullSort:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(h4_traces())
    @example((make_synthetic_trace([[0.2], [0.8]] * 1001, witnesses=[], xi_values=[]),
              catalog_lookup("double-well")))
    @example((make_synthetic_trace([[0.001 * k, 0.0] for k in range(2500)], witnesses=[], xi_values=[]),
              catalog_lookup("quad2")))
    def test_certificate(self, case):
        trace, entry = case
        cert = check_h4(trace, entry)
        params, pairs, note = reference_check_h4(trace, entry)
        assert cert.params == params
        assert cert.note == note
        _same(cert, reference_collect(pairs))


def _contracting_trace(n: int, dim: int):
    """``n`` iterates contracting toward a point, plus noise, without recorded function values."""
    rng = np.random.default_rng(n * dim)
    iterates = rng.normal(size=dim) * 0.995 ** np.arange(n)[:, None] + 1e-3 * rng.normal(size=(n, dim))
    return make_synthetic_trace(list(iterates), witnesses=[], xi_values=[]), catalog_lookup("quad" if dim == 1 else "quad2")


class TestH4RowBlocks:
    # 256 iterates fill one block of the pairwise scan and 257 take two; past 2,000 the stride starts
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("n", [255, 256, 257, 1999, 2000, 2001, 4000, 4001])
    def test_matches_full_sort_across_block_and_stride_boundaries(self, n, dim):
        trace, entry = _contracting_trace(n, dim)
        cert = check_h4(trace, entry)
        params, pairs, note = reference_check_h4(trace, entry)
        assert params and (cert.params, cert.note) == (params, note)
        _same(cert, reference_collect(pairs))

    @pytest.mark.parametrize("run, n", [
        (lambda: run_gdm(catalog_lookup("quad"), 1e-3, [1.0]), 16113),
        (lambda: run_shifted_ppa(catalog_lookup("quad2"), 5e-4, 0.002, [2.0, 2.0]), 10947),
    ], ids=["gdm-quad", "shifted-ppa-quad2"])
    def test_traced_peak_stays_below_8_mib(self, run, n):
        # a full 2,000 x 2,000 distance matrix (x d differences) would take 49 MiB in 1-d, 152 MiB in 2-d
        trace = run()
        assert len(trace) == n
        entry = catalog_lookup("quad" if trace.dim == 1 else "quad2")
        tracemalloc.start()
        try:
            check_h4(trace, entry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    @pytest.mark.parametrize("run, scans", [
        (lambda: run_gdm(catalog_lookup("quad"), 1e-3, [1.0]), False),
        (lambda: run_shifted_ppa(catalog_lookup("quad2"), 5e-4, 0.002, [2.0, 2.0]), True),
    ], ids=["gdm-quad", "shifted-ppa-quad2"])
    def test_only_a_2d_trace_scans_pairs(self, run, scans, monkeypatch):
        # a 1-d trace finds its cluster point by sorting
        trace, calls, pair_blocks = run(), [], geometry._pair_blocks

        def counted(rows, points):
            calls.append(len(rows))
            return pair_blocks(rows, points)

        monkeypatch.setattr(geometry, "_pair_blocks", counted)
        check_h4(trace, catalog_lookup("quad" if trace.dim == 1 else "quad2"))
        assert bool(calls) == scans

    def test_traced_peak_of_a_1d_trace_stays_below_1_mib(self):
        # the 1,791 strided GDM points take 2 x 10 neighbour distances each, not a block of all pairs
        trace = run_gdm(catalog_lookup("quad"), 1e-3, [1.0])
        tracemalloc.start()
        try:
            check_h4(trace, catalog_lookup("quad"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestRclass:
    def test_qpower_identity(self):
        trace = run_qpower_prox(catalog_lookup("quad"), 1.0, 2.0, [1.0])
        assert check_rclass(trace, 2.0, 1.0).passed

    def test_synthetic_power_two(self):
        ks = list(range(1, 101))
        trace = make_synthetic_trace(
            [[1.0 / k] for k in ks],
            witnesses=[(i, [1.0 / k ** 2]) for i, k in enumerate(ks)],
            xi_values=[1.0 / k for k in ks],
            stop=StopRule(step_tol=1e-2),
        )
        assert check_rclass(trace, 1.0, 2.0).passed

    def test_constant_witness_fails_tail(self):
        trace = make_synthetic_trace(
            [[1.0]] * 30,
            witnesses=[(i, [0.5]) for i in range(30)],
            xi_values=[1.0] * 30,
            stop=StopRule(step_tol=1e-6),
        )
        cert = check_rclass(trace, 1.0, 1.0)
        assert not cert.tail_ok
        assert not cert.passed

    def test_missing_xi_is_vacuous(self):
        trace = make_synthetic_trace([[0.0], [1.0]], witnesses=[], xi_values=[])
        cert = check_rclass(trace, 1.0, 1.0)
        assert cert.vacuous
        assert not cert.passed

    def test_scale_coherence(self):
        ks = list(range(1, 41))
        xi = [2.0 ** (-k) for k in ks]
        base = [1.5 * v for v in xi]

        def min_beta(scale):
            ratios = [scale * w / x for w, x in zip(base, xi)]
            return max(ratios)

        for c in (2.0, 4.0, 0.5):
            assert min_beta(c) == c * min_beta(1.0)


class TestDistanceTrace:
    def test_soft_threshold_distances(self, ppa_abs):
        verdict = distance_trace(ppa_abs, S0, 1e-6)
        assert verdict.distances[:5] == pytest.approx([1.0, 0.7, 0.4, 0.1, 0.0], abs=1e-12)
        assert verdict.converged

    def test_dca_converges_by_iteration_48(self):
        trace = run_dca(catalog_lookup("dc-quad"), 1.0, [1.0])
        verdict = distance_trace(trace, S0, 1e-6)
        assert verdict.converged
        assert verdict.distances[48] == pytest.approx(0.75 ** 48, abs=1e-12)
        assert verdict.distances[49] < 1e-6

    def test_parked_trace_not_converged(self):
        trace = make_synthetic_trace([[0.5]] * 12, witnesses=[], xi_values=[])
        assert not distance_trace(trace, S0, 1e-6).converged

    def test_modulus_link_audit(self):
        trace = run_gdm(catalog_lookup("square"), 0.25, [1.0], StopRule(max_iter=40))
        curve = estimate_modulus(
            catalog_lookup("square").grad_inverse, [0.0], None,
            list(np.geomspace(1e-13, 2.0, 30)), 17, seed=0,
        )
        verdict = distance_trace(trace, S0, 1e-6, modulus=curve)
        assert verdict.link_checked > 0
        assert verdict.link_ok
        assert not verdict.link_out_of_range

    def test_modulus_link_detects_violations(self):
        trace = run_gdm(catalog_lookup("square"), 0.25, [1.0], StopRule(max_iter=40))
        from rcontinuity import ModulusCurve
        tiny = ModulusCurve(radii=np.array([1e-13, 2.0]), rho_hat=np.array([0.0, 1e-12]), sample_counts=[1, 1])
        verdict = distance_trace(trace, S0, 1e-6, modulus=tiny)
        assert verdict.link_violations

    def test_out_of_range_reported_not_failed(self, ppa_abs):
        from rcontinuity import ModulusCurve
        short = ModulusCurve(radii=np.array([1e-3, 1e-2]), rho_hat=np.array([1e-3, 1e-2]), sample_counts=[1, 1])
        verdict = distance_trace(ppa_abs, S0, 1e-6, modulus=short)
        assert verdict.link_out_of_range  # witness norms sit far above 1e-2
        assert verdict.link_ok

    def test_link_audit_skips_witnesses_without_an_iterate(self):
        trace = make_synthetic_trace([[0.5]], witnesses=[(1, [0.1]), (-1, [0.1]), (0, [0.1])],
                                     xi_values=[0.1, 0.1, 0.1])
        curve = ModulusCurve(radii=np.array([0.05, 1.0]), rho_hat=np.array([0.05, 1.0]), sample_counts=[1, 1])
        verdict = distance_trace(trace, S0, 1e-6, modulus=curve)
        assert (verdict.link_checked, verdict.link_violations, verdict.link_out_of_range) == (1, [0], [])

    def test_empty_region_rejected(self, ppa_abs):
        with pytest.raises(ValueError):
            Region([])


class TestCertificateRecord:
    def test_json_shape(self, gdm_quad):
        record = check_h3(gdm_quad, 2.0).to_json_dict()
        assert set(record) == {"hypothesis", "params", "pass", "first_violation", "vacuous"}
        assert record["pass"] is True
        assert record["first_violation"] is None

    def test_vacuous_never_passes(self):
        trace = make_synthetic_trace([[1.0], [0.5]], witnesses=[(0, [1.0])], xi_values=[0.5])
        cert = check_h2(trace, 1.0)
        assert cert.vacuous and not cert.passed


# -- the array checks against the per-step loops they replaced ---------------

_ATOL = 1e-12


def reference_collect(pairs, tail_ok=True):
    """``(step_indices, first_violation, vacuous, passed)`` from ``(index, ok)``
    pairs, as the loop of ``_collect`` found them."""
    first = next((k for k, ok in pairs if not ok), None)
    vacuous = not pairs
    return [k for k, _ in pairs], first, vacuous, not vacuous and first is None and tail_ok


def reference_h1(trace, alpha):
    """``(index, drop, bound)`` per step, as ``check_h1`` looped; ok is ``drop >= bound``."""
    f, steps = trace.f_values.tolist(), trace.step_norms.tolist()
    return [(k, f[k] - f[k + 1], alpha * steps[k] ** 2 - _ATOL) for k in range(len(trace) - 1)]


def reference_relative_error(trace, side, beta):
    """``(index, ok)`` per paired witness, as ``_relative_error`` looped."""
    steps, pairs = trace.step_norms.tolist(), []
    for k, w in zip(trace.witness_indices.tolist(), list(trace.witness_points)):
        step = k - 1 if side == "next" else k
        if 0 <= step <= len(trace) - 2:
            pairs.append((k, float(np.linalg.norm(w)) <= beta * steps[step] + _ATOL))
    return pairs


def reference_rclass(trace, alpha, beta):
    """``(index, norm, bound)`` per witness and the tail verdict, as
    ``check_rclass`` looped; ok is ``norm <= bound``."""
    xi = trace.xi_values.tolist()
    triples = [(k, float(np.linalg.norm(w)), alpha * x ** beta + _ATOL)
               for k, w, x in zip(trace.witness_indices.tolist(), list(trace.witness_points), xi)]
    tail = xi[-10:]
    nonincreasing = all(b <= a + 1e-15 for a, b in zip(tail[:-1], tail[1:]))
    return triples, nonincreasing and tail[-1] <= 10.0 * trace.stop.step_tol


def reference_rho_at(curve, r):
    if r > curve.radii[-1]:
        return None
    if r <= curve.radii[0]:
        return float(curve.rho_hat[0])
    return float(np.interp(r, curve.radii, curve.rho_hat))


def reference_link_audit(trace, distances, curve):
    """``(checked, violations, out_of_range)``, as ``distance_trace`` looped,
    skipping witnesses whose index names no iterate."""
    checked, violations, out_of_range = 0, [], []
    for k, w in zip(trace.witness_indices.tolist(), list(trace.witness_points)):
        if not 0 <= k < len(distances):
            continue
        bound = reference_rho_at(curve, float(np.linalg.norm(w)))
        if bound is None:
            out_of_range.append(k)
            continue
        checked += 1
        if distances[k] > 1.1 * bound + _ATOL:
            violations.append(k)
    return checked, violations, out_of_range


def reference_trace_rows(trace, distances):
    """The rows ``trace_to_csv`` built per iterate, with its two dicts."""
    wit_at = {k: w for k, w in zip(trace.witness_indices.tolist(), list(trace.witness_points))}
    xi_at = {k: x for k, x in zip(trace.witness_indices.tolist(), trace.xi_values.tolist())}
    steps, f, ledger = (None if a is None else a.tolist()
                        for a in (trace.step_norms, trace.f_values, trace.fejer_ledger))
    rows = []
    for k, x in enumerate(trace.iterates):
        row = [k] + [float(v) for v in x]
        row.append(steps[k] if k < len(steps) else None)
        row.append(f[k] if f is not None else None)
        if k in wit_at:
            row += [float(np.linalg.norm(wit_at[k])), xi_at[k]]
        else:
            row += [None, None]
        row.append(distances[k])
        if ledger is not None:
            row.append(ledger[k] if k < len(ledger) else None)
        rows.append(row)
    return rows


def fmt(value) -> str:
    """Shortest round-trip rendering of a scalar; None becomes the empty cell."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows):
    """The reference CSV writer: a header line, then one ``fmt`` cell per value."""
    lines = [",".join(header), *(",".join(fmt(v) for v in row) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def _off_threshold(triples):
    """True when every ``(index, lhs, rhs)`` comparison is clear of its threshold
    by more than 1e-9 relative: numpy's ``**`` and Python's ``pow`` may round
    apart in the last bit, which flips a comparison only at the threshold."""
    return all(abs(a - b) > 1e-9 * (1.0 + abs(b)) for _, a, b in triples)


_COORD = st.floats(-4.0, 4.0)


@st.composite
def synthetic_traces(draw):
    """A 1-d or 2-d synthetic trace with function values, a Fejér ledger on
    some draws, and witnesses whose indices may be negative, out of range or
    repeated; the witness list may be empty."""
    dim = draw(st.integers(1, 2))
    n = draw(st.integers(1, 12))
    point = st.lists(_COORD, min_size=dim, max_size=dim)
    iterates = draw(st.lists(point, min_size=n, max_size=n))
    m = draw(st.integers(0, 14))
    witnesses = draw(st.lists(st.tuples(st.integers(-2, n + 1), point), min_size=m, max_size=m))
    xi = draw(st.lists(st.floats(0.0, 4.0), min_size=m, max_size=m))
    f_values = draw(st.lists(_COORD, min_size=n, max_size=n))
    stop = StopRule(step_tol=draw(st.sampled_from([1e-6, 0.5, 4.0])))
    trace = make_synthetic_trace(iterates, witnesses, xi, f_values=f_values, stop=stop)
    if draw(st.booleans()):
        ledger = draw(st.lists(_COORD, min_size=n - 1, max_size=n - 1))
        trace = dataclasses.replace(trace, fejer_ledger=ledger)
    return trace, witnesses


def _same(cert, reference):
    indices, first, vacuous, passed = reference
    assert cert.step_indices.tolist() == indices
    assert cert.first_violation == first
    assert cert.vacuous is vacuous
    assert cert.passed is passed


_PARAMS = st.floats(0.1, 4.0)
# positive floats from 1e-300 to about 1e300, with short and long mantissas
_MANTISSA = st.one_of(st.integers(1, 99).map(str), st.floats(1.0, 10.0).map(repr))
_MAGNITUDE = st.builds(lambda m, e: float(f"{m}e{e}"), _MANTISSA, st.integers(-300, 298))
_CASES = settings(derandomize=True, max_examples=150, deadline=None)


class TestArrayChecksMatchReference:
    @_CASES
    @given(synthetic_traces())
    def test_witness_norms_are_the_per_row_norms(self, case):
        trace, witnesses = case
        expected = [float(np.linalg.norm(np.asarray(w, dtype=float))) for _, w in witnesses]
        assert np.array_equal(trace.witness_norms, expected)
        steps = [float(np.linalg.norm(b - a)) for a, b in zip(trace.iterates[:-1], trace.iterates[1:])]
        assert np.array_equal(trace.step_norms, steps)
        assert trace.witness_points.shape == (len(witnesses), trace.dim)

    @_CASES
    @given(synthetic_traces(), _PARAMS)
    def test_h1(self, case, alpha):
        trace, _ = case
        triples = reference_h1(trace, alpha)
        assume(_off_threshold(triples))
        _same(check_h1(trace, alpha), reference_collect([(k, a >= b) for k, a, b in triples]))

    @_CASES
    @given(synthetic_traces(), _PARAMS, st.sampled_from([(check_h2, "next"), (check_h3, "current")]))
    def test_h2_h3(self, case, beta, check):
        trace, witnesses = case
        check, side = check
        if not witnesses:
            cert = check(trace, beta)
            assert cert.vacuous and not cert.passed
            return
        _same(check(trace, beta), reference_collect(reference_relative_error(trace, side, beta)))

    @_CASES
    @given(synthetic_traces(), _PARAMS, st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]))
    def test_rclass(self, case, alpha, beta):
        trace, witnesses = case
        if not witnesses:
            cert = check_rclass(trace, alpha, beta)
            assert cert.vacuous and not cert.passed
            return
        triples, tail_ok = reference_rclass(trace, alpha, beta)
        assume(_off_threshold(triples))
        cert = check_rclass(trace, alpha, beta)
        assert cert.tail_ok is tail_ok
        _same(cert, reference_collect([(k, a <= b) for k, a, b in triples], tail_ok))

    @_CASES
    @given(synthetic_traces(), st.lists(st.floats(1e-3, 8.0), min_size=1, max_size=5, unique=True),
           st.data())
    def test_link_audit(self, case, radii, data):
        trace, _ = case
        # some witness norms as radii, so that norms sit exactly on the grid's ends
        ties = [r for r in trace.witness_norms.tolist() if r > 0]
        if ties:
            radii += data.draw(st.lists(st.sampled_from(ties), max_size=2))
        radii = sorted(set(radii))
        rho = data.draw(st.lists(st.floats(0.0, 4.0), min_size=len(radii), max_size=len(radii)))
        curve = ModulusCurve(radii=np.array(radii), rho_hat=np.array(rho), sample_counts=[1] * len(radii))
        region = Region([[0.0] * trace.dim])
        distances = distance_trace(trace, region, 1e-6).distances
        verdict = distance_trace(trace, region, 1e-6, modulus=curve)
        expected = reference_link_audit(trace, distances, curve)
        assert (verdict.link_checked, verdict.link_violations, verdict.link_out_of_range) == expected

    @_CASES
    @given(synthetic_traces())
    def test_trace_csv_bytes(self, case):
        trace, _ = case
        distances = distance_trace(trace, Region([[0.0] * trace.dim]), 1e-6).distances
        header = ["k"] + [f"x{i}" for i in range(trace.dim)] + ["delta", "f_value", "witness_norm", "xi",
                                                                 "distance"]
        if trace.fejer_ledger is not None:
            header.append("fejer_ledger")
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            trace_to_csv(trace, got, distances=distances)
            write_csv(want, header, reference_trace_rows(trace, distances))
            assert got.read_bytes() == want.read_bytes()

    @_CASES
    @given(st.data())
    def test_modulus_csv_bytes(self, data):
        radii = sorted(data.draw(st.lists(_MAGNITUDE, min_size=1, max_size=12, unique=True)))
        n = len(radii)
        rho = data.draw(st.lists(st.just(0.0) | _MAGNITUDE, min_size=n, max_size=n))
        counts = data.draw(st.lists(st.integers(0, 10 ** 12), min_size=n, max_size=n))
        curve = ModulusCurve(radii=np.array(radii), rho_hat=np.array(rho), sample_counts=counts)
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            modulus_to_csv(curve, got)
            write_csv(want, ["sigma", "rho_hat", "samples"],
                      zip(curve.radii, curve.rho_hat, curve.sample_counts))
            assert got.read_bytes() == want.read_bytes()
