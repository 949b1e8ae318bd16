"""The CSV writers against ``repr``: the vectorized renderer byte for byte
on every kind of double, and ``trace_to_csv`` against the writer it
replaced, which rendered every cell with its own ``repr``."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rcontinuity import (IterateTrace, ModulusCurve, Region, catalog_lookup, distance_trace, make_synthetic_trace,
                         run_dca, run_gdm, run_ppa, run_qpower_prox, run_shifted_ppa, serialize)
from rcontinuity.serialize import modulus_to_csv, trace_to_csv
from rcontinuity.solvers import StopRule


def reference_trace_to_csv(trace, path: Path, distances=None) -> None:
    """The trace writer as it was: one ``repr`` per cell, ``xi`` included."""
    n = len(trace)
    header = ["k"] + [f"x{i}" for i in range(trace.dim)] + ["delta", "f_value", "witness_norm", "xi"]
    indices = trace.witness_indices
    inside = (indices >= 0) & (indices < n)
    last = np.full(n, -1)
    np.maximum.at(last, indices[inside], np.flatnonzero(inside))

    def witnessed(values):
        return np.array(values.tolist() + [None], dtype=object)[last]

    def padded(values):
        return [None] * n if values is None else values.tolist() + [None] * (n - len(values))

    columns = [*trace.iterates.T.tolist(), padded(trace.step_norms), padded(trace.f_values),
               witnessed(trace.witness_norms), witnessed(trace.xi_values)]
    if distances is not None:
        header.append("distance")
        columns.append(np.asarray(distances, dtype=float).tolist())
    if trace.fejer_ledger is not None:
        header.append("fejer_ledger")
        columns.append(padded(trace.fejer_ledger))
    cells = [map(str, range(n)), *(("" if v is None else repr(v) for v in c) for c in columns)]
    lines = map(",".join, zip(*cells))
    Path(path).write_text("\n".join([",".join(header), *lines]) + "\n", encoding="utf-8", newline="")


def _same_bytes(trace, tmp_path: Path, distances=None) -> None:
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    trace_to_csv(trace, got, distances=distances)
    reference_trace_to_csv(trace, want, distances=distances)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("run", [
    lambda: run_gdm(catalog_lookup("quad"), 0.5, [1.0]),
    lambda: run_gdm(catalog_lookup("quad"), 0.5, [1e200]),
    lambda: run_gdm(catalog_lookup("flat-exp"), 1.0, [0.0375]),
    lambda: run_ppa(catalog_lookup("abs-subdiff"), 0.3, [1.0]),
    lambda: run_dca(catalog_lookup("dc-quad"), 0.5, [1.0]),
    lambda: run_dca(catalog_lookup("dc-quad"), 1e300, [1e10]),
    lambda: run_qpower_prox(catalog_lookup("double-well"), 1.0, 1.5, [2.0], StopRule(max_iter=100)),
    lambda: run_qpower_prox(catalog_lookup("quad2"), 0.5, 2.0, [2.0, 2.0]),
    lambda: run_shifted_ppa(catalog_lookup("quad2"), 0.2, 0.9, [-1.0, 3.0]),
], ids=["gdm", "gdm-overflow", "gdm-subnormal", "ppa", "dca", "dca-divergence", "qpower", "qpower-2d",
        "shifted-ppa-2d"])
def test_solver_traces(run, tmp_path):
    trace = run()
    assert trace.xi_values.tobytes() == trace.step_norms.tobytes()
    distances = distance_trace(trace, Region([[0.0] * trace.dim]), 1e-6).distances
    _same_bytes(trace, tmp_path)
    _same_bytes(trace, tmp_path, distances)


@pytest.mark.parametrize("xi", [
    [0.0, 0.25],  # the step norms themselves
    [-0.0, 0.25],  # == the first step norm 0.0, but its repr differs
    [0.0, math.nan],
    [math.nan, math.inf],
    [0.25, 0.0],  # the same values, swapped
], ids=["equal", "negative-zero", "nan", "nan-inf", "swapped"])
def test_synthetic_traces(xi, tmp_path):
    trace = make_synthetic_trace([[1.0], [1.0], [1.25]], witnesses=[(1, [0.5]), (2, [-0.5])], xi_values=xi)
    assert trace.step_norms.tolist() == [0.0, 0.25]
    _same_bytes(trace, tmp_path)


def test_nan_step_norms_and_unordered_witnesses(tmp_path):
    # witnesses out of index order, two at one index, one outside the trace, and NaN in both columns
    trace = IterateTrace(algorithm="synthetic", iterates=[[0.0], [1.0], [2.0]], step_norms=[math.nan, -0.0],
                         stop=StopRule(), termination="max_iter", witness_indices=[2, 0, 2, 5],
                         witness_points=[[1.0], [2.0], [3.0], [4.0]], xi_values=[math.nan, -0.0, 1.0, 2.0])
    _same_bytes(trace, tmp_path)
    same = IterateTrace(algorithm="synthetic", iterates=[[0.0], [1.0], [2.0]], step_norms=[math.nan, -0.0],
                        stop=StopRule(), termination="max_iter", witness_indices=[1, 0],
                        witness_points=[[1.0], [2.0]], xi_values=[math.nan, -0.0])
    _same_bytes(same, tmp_path)


def test_signed_zeros_nan_and_inf_shared_across_columns(tmp_path):
    # 0.0 and -0.0 in both coordinates, and the same values again in every other column
    trace = IterateTrace(algorithm="synthetic", iterates=[[0.0, -0.0], [-0.0, 0.0], [0.5, -0.5], [0.5, 1e-320]],
                         step_norms=[-0.0, 0.5, math.inf], stop=StopRule(), termination="max_iter",
                         f_values=[math.nan, -0.0, 0.5, -math.inf], witness_indices=[0, 3, 3, 1],
                         witness_points=[[-0.0, 0.0], [0.5, 0.0], [0.0, -0.5], [1e-320, 0.0]],
                         xi_values=[-math.nan, 0.0, 0.5, -0.0], fejer_ledger=[0.0, -0.0])
    _same_bytes(trace, tmp_path)
    _same_bytes(trace, tmp_path, distances=[0.5, -0.0, math.nan, math.inf])


def test_one_iterate_traces(tmp_path):
    _same_bytes(make_synthetic_trace([[2.5]], witnesses=[], xi_values=[]), tmp_path)
    trace = IterateTrace(algorithm="synthetic", iterates=[[-0.0, 2.5]], step_norms=[], stop=StopRule(),
                         termination="max_iter", f_values=[-0.0], witness_indices=[0], witness_points=[[2.5, -0.0]],
                         xi_values=[2.5], fejer_ledger=[])
    _same_bytes(trace, tmp_path)
    _same_bytes(trace, tmp_path, distances=[-0.0])


def test_modulus_csv_shares_reprs_across_columns(tmp_path):
    curve = ModulusCurve(radii=np.array([0.25, 0.5, 1.0]), rho_hat=np.array([0.0, 0.5, math.inf]),
                         sample_counts=[3, 0, 7])
    modulus_to_csv(curve, tmp_path / "modulus.csv")
    assert (tmp_path / "modulus.csv").read_text() == "sigma,rho_hat,samples\n0.25,0.0,3\n0.5,0.5,0\n1.0,inf,7\n"


def _assert_renders_as_repr(values, want=None) -> None:
    """``serialize._float_cells`` gives each value's ``repr`` (``want``), byte for byte."""
    values = np.asarray(values, dtype=float)
    cells = np.zeros((len(values), serialize._CELL), np.uint8)
    serialize._float_cells(values, cells)
    want = [repr(v) for v in values.tolist()] if want is None else want
    shown = cells != 0
    if shown.sum(axis=1).tolist() != [len(w) for w in want] or cells[shown].tobytes() != "".join(want).encode():
        got = [bytes(row[row != 0]).decode() for row in cells]
        assert [(w, g) for w, g in zip(want, got) if w != g][:5] == []


def _neighbours(values, ulps=3):
    """Each value and the doubles up to ``ulps`` steps below and above it."""
    bits = np.asarray(values, dtype=float).view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    return bits.ravel().view(np.float64)


def _signed(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


_RNG = np.random.default_rng(20)
_SEVENTEEN = [v for v in _RNG.random(4000).tolist() if len(repr(v).lstrip("0.").replace(".", "")) == 17]
_CASES = {
    "specials": [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                 *np.array([0x7FF0000000000001, 0xFFF8000000000001], dtype=np.uint64).view(np.float64)],
    "powers-of-two": _signed(np.ldexp(1.0, np.arange(-1074, 1024))),
    # the largest subnormals, the smallest normals and 5e-324
    "subnormal-boundary": _signed(_neighbours([2.2250738585072014e-308], 40).tolist() + [5e-324, 1e-320, 1e-310]),
    "around-2**53": _signed(np.concatenate([2.0 ** 53 + np.arange(-600, 601), 2.0 ** 54 + np.arange(-600, 601)])),
    "powers-of-ten": _signed(_neighbours([float(f"1e{k}") for k in range(-307, 309)], 1).tolist()
                             + [float(f"1e{k}") for k in range(-323, -307)]),
    # repr writes 0.0001 but 1e-05, and 9999999999999998.0 but 1e+16
    "format-switches": _signed(_neighbours([1e-5, 1e-4, 9999999999999998.0, 1e16, 0.001, 1e15, 123456789012345680.0])),
    "one-digit": _signed([d * 10.0 ** k for d in range(1, 10) for k in range(-25, 26)]),
    "seventeen-digits": _signed(_SEVENTEEN + [0.1 + 0.2, 1 / 3, 2 / 3, 1.7976931348623157e308]),
    "random-normals": _RNG.standard_normal(3000) * 10.0 ** _RNG.integers(-300, 300, 3000),
}


@pytest.mark.parametrize("vector_min, block", [(None, None), (0, None), (0, 7), (10 ** 9, None)],
                         ids=["as-set", "kernel", "kernel-in-blocks-of-7", "repr"])
@pytest.mark.parametrize("case", list(_CASES))
def test_renderer_matches_repr(case, vector_min, block, monkeypatch):
    # each case whole, on both sides of _VECTOR_MIN and of the value block
    if vector_min is not None:
        monkeypatch.setattr(serialize, "_VECTOR_MIN", vector_min)
    if block is not None:
        monkeypatch.setattr(serialize, "_VALUE_BLOCK", block)
    _assert_renders_as_repr(_CASES[case])


@pytest.fixture(scope="module")
def random_bits():
    """A million uniform bit patterns, NaNs, infinities and subnormals among
    them, and their reprs (about 3 s: most have exponents far from 0)."""
    values = np.random.default_rng(7).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64).view(np.float64)
    return values, [repr(v) for v in values.tolist()]


@pytest.mark.parametrize("block", [None, 999], ids=["as-set", "blocks-of-999"])
def test_renderer_matches_repr_on_random_bits(block, random_bits, monkeypatch):
    if block is not None:
        monkeypatch.setattr(serialize, "_VALUE_BLOCK", block)
    _assert_renders_as_repr(*random_bits)


@pytest.mark.parametrize("extra, kernel_calls", [(-1, 0), (0, 1), (serialize._VALUE_BLOCK - serialize._VECTOR_MIN, 1),
                                                 (serialize._VALUE_BLOCK - serialize._VECTOR_MIN + 1, 2)],
                         ids=["below-vector-min", "at-vector-min", "one-block", "one-block-and-one"])
def test_the_kernel_runs_from_vector_min_normal_values_in_blocks(extra, kernel_calls, monkeypatch):
    calls = []
    layout = serialize._layout
    monkeypatch.setattr(serialize, "_layout", lambda bits: calls.append(len(bits)) or layout(bits))
    values = np.concatenate([np.arange(1, serialize._VECTOR_MIN + extra + 1) / 7, [0.0, -0.0, math.inf, math.nan, 5e-324]])
    _assert_renders_as_repr(values)
    assert len(calls) == kernel_calls  # zeros, infinities, NaNs and subnormals do not count


def _random_trace(n: int, seed: int) -> IterateTrace:
    """A 2-d trace with a ledger whose columns mix every kind of double."""
    rng = np.random.default_rng(seed)

    def column(size):
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
        special = rng.random(size) < 0.05
        values[special] = rng.choice([0.0, -0.0, math.inf, -math.nan, 5e-324, 1e16, 1e-5], special.sum())
        return values

    witnesses = np.sort(rng.integers(-1, n + 1, n // 2))
    return IterateTrace(algorithm="synthetic", iterates=rng.standard_normal((n, 2)) * 1e3, step_norms=column(n - 1),
                        stop=StopRule(), termination="max_iter", f_values=column(n), witness_indices=witnesses,
                        witness_points=rng.standard_normal((len(witnesses), 2)), xi_values=column(len(witnesses)),
                        fejer_ledger=column(n - 1))


@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 4097])
def test_row_blocks(n, tmp_path):
    # on both sides of the 2,048-row block
    trace = _random_trace(n, n)
    _same_bytes(trace, tmp_path)
    _same_bytes(trace, tmp_path, distances=np.random.default_rng(n).random(n))


@pytest.mark.parametrize("run, n, distances", [
    # the benchmark's full-pipeline trace, with the distance column
    (lambda: run_gdm(catalog_lookup("quad"), 1e-3, [1.0]), 16113, True),
    # the benchmark's shifted-PPA trace: two coordinates and the ledger
    (lambda: run_shifted_ppa(catalog_lookup("quad2"), 5e-4, 0.002, [2.0, 2.0]), 10947, False),
], ids=["gdm", "shifted-ppa"])
def test_the_writer_stays_within_12_mib(run, n, distances, tmp_path):
    # the string writer this one replaced peaked at 10.0 MiB on GDM; one byte
    # matrix for the whole file instead of row blocks peaks at 13.3 MiB there
    trace = run()
    assert len(trace) == n
    d = distance_trace(trace, catalog_lookup("quad").solution_set, 1e-6).distances if distances else None
    tracemalloc.start()
    try:
        trace_to_csv(trace, tmp_path / "trace.csv", distances=d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20
