"""Deterministic CSV/JSON writers.

Numbers are rendered with the shortest round-trip decimal representation,
columns keep a fixed order, and lines end with a bare newline, so reruns of
the same computation produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from itertools import accumulate
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .analysis import ModulusCurve
from .solvers import IterateTrace


def _write_lines(path: Path, header: Sequence[str], lines: Iterable[str]) -> None:
    Path(path).write_text("\n".join([",".join(header), *lines]) + "\n", encoding="utf-8", newline="")


def _float_cells(*columns: np.ndarray) -> List[list]:
    """The cells of float columns: each value's shortest round-trip ``repr``.

    ``repr`` runs once per distinct value of all the columns together, and
    values are told apart by their bits, not by float equality: ``-0.0 == 0.0``
    though their reprs differ, and a NaN equals nothing, itself included."""
    values = np.concatenate([np.asarray(c, dtype=float) for c in columns])
    distinct, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    cells = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)[inverse].tolist()
    ends = list(accumulate(len(c) for c in columns))
    return [cells[start:end] for start, end in zip([0, *ends], ends)]


def write_json(path: Path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
        newline="",
    )


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def modulus_to_csv(curve: ModulusCurve, path: Path) -> None:
    cells = [*_float_cells(curve.radii, curve.rho_hat), map(str, curve.sample_counts)]
    _write_lines(path, ["sigma", "rho_hat", "samples"], map(",".join, zip(*cells)))


def trace_to_csv(trace: IterateTrace, path: Path, distances: Optional[List[float]] = None) -> None:
    """One row per iterate: index, coordinates, step norm, then whichever of
    function value, witness norm, xi, distance, and ledger entry exist.  A
    row shows the last witness recorded at its index."""
    n = len(trace)
    header = ["k"] + [f"x{i}" for i in range(trace.dim)]
    header += ["delta", "f_value", "witness_norm", "xi"]
    indices = trace.witness_indices
    inside = (indices >= 0) & (indices < n)
    last = np.full(n, -1)  # -1, a row without a witness, picks the trailing empty cell below
    np.maximum.at(last, indices[inside], np.flatnonzero(inside))

    def padded(cells: list) -> list:
        return cells + [""] * (n - len(cells))

    def witnessed(cells: list) -> list:
        return np.array(cells + [""], dtype=object)[last].tolist()

    f_values = np.empty(0) if trace.f_values is None else trace.f_values
    columns = [*((padded, x) for x in trace.iterates.T), (padded, trace.step_norms), (padded, f_values),
               (witnessed, trace.witness_norms), (witnessed, trace.xi_values)]
    if distances is not None:
        header.append("distance")
        columns.append((padded, np.asarray(distances, dtype=float)))
    if trace.fejer_ledger is not None:
        header.append("fejer_ledger")
        columns.append((padded, trace.fejer_ledger))
    rendered = _float_cells(*(values for _, values in columns))
    cells = [map(str, range(n)), *(shape(c) for (shape, _), c in zip(columns, rendered))]
    _write_lines(path, header, map(",".join, zip(*cells)))
