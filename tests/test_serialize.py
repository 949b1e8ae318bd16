"""``trace_to_csv`` against the writer it replaced, which rendered every cell
with its own ``repr``; the writer now calls ``repr`` once per distinct bit
pattern of all its float columns."""

import math
from pathlib import Path

import numpy as np
import pytest

from rcontinuity import (IterateTrace, ModulusCurve, Region, catalog_lookup, distance_trace, make_synthetic_trace,
                         run_dca, run_gdm, run_ppa, run_qpower_prox, run_shifted_ppa)
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
    distances = distance_trace(trace, Region.from_points([[0.0] * trace.dim]), 1e-6).distances
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
    curve = ModulusCurve(map_name="shared", base_point=np.zeros(1), window=None, radii=np.array([0.25, 0.5, 1.0]),
                         rho_hat=np.array([0.0, 0.5, math.inf]), sample_counts=[3, 0, 7], seed=0, scheme="grid")
    modulus_to_csv(curve, tmp_path / "modulus.csv")
    assert (tmp_path / "modulus.csv").read_text() == "sigma,rho_hat,samples\n0.25,0.0,3\n0.5,0.5,0\n1.0,inf,7\n"
