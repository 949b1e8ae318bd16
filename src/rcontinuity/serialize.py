"""Deterministic CSV/JSON writers.

Numbers are rendered with the shortest round-trip decimal representation,
columns keep a fixed order, and lines end with a bare newline, so reruns of
the same computation produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .analysis import ModulusCurve
from .solvers import IterateTrace


def _write_lines(path: Path, header: Sequence[str], lines: Iterable[str]) -> None:
    Path(path).write_text("\n".join([",".join(header), *lines]) + "\n", encoding="utf-8", newline="")


def _cells(values: Iterable) -> Iterator[str]:
    """Cells of a float column whose entries are Python floats or None: the
    shortest round-trip ``repr``, or the empty cell."""
    return ("" if v is None else repr(v) for v in values)


def write_json(path: Path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
        newline="",
    )


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def modulus_to_csv(curve: ModulusCurve, path: Path) -> None:
    cells = [_cells(curve.radii.tolist()), _cells(curve.rho_hat.tolist()), map(str, curve.sample_counts)]
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
    last = np.full(n, -1)  # -1, a row without a witness, picks the trailing None below
    np.maximum.at(last, indices[inside], np.flatnonzero(inside))

    def witnessed(values: np.ndarray) -> np.ndarray:
        return np.array(values.tolist() + [None], dtype=object)[last]

    def padded(values: Optional[np.ndarray]) -> list:
        return [None] * n if values is None else values.tolist() + [None] * (n - len(values))

    columns = [*trace.iterates.T.tolist(), padded(trace.step_norms), padded(trace.f_values),
               witnessed(trace.witness_norms), witnessed(trace.xi_values)]
    if distances is not None:
        header.append("distance")
        columns.append(np.asarray(distances, dtype=float).tolist())
    if trace.fejer_ledger is not None:
        header.append("fejer_ledger")
        columns.append(padded(trace.fejer_ledger))
    cells = [map(str, range(n)), *(_cells(c) for c in columns)]
    _write_lines(path, header, map(",".join, zip(*cells)))
