"""Deterministic CSV/JSON writers.

Numbers are rendered with the shortest round-trip decimal representation,
columns keep a fixed order, and lines end with a bare newline, so reruns of
the same computation produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .analysis import ModulusCurve
from .solvers import IterateTrace


def fmt(value) -> str:
    """Shortest round-trip rendering of a scalar; None becomes the empty cell."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def write_json(path: Path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
        newline="",
    )


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def modulus_to_csv(curve: ModulusCurve, path: Path) -> None:
    rows = [
        (sigma, rho, count)
        for sigma, rho, count in zip(curve.radii, curve.rho_hat, curve.sample_counts)
    ]
    write_csv(path, ["sigma", "rho_hat", "samples"], rows)


def trace_to_csv(trace: IterateTrace, path: Path, distances: Optional[List[float]] = None) -> None:
    """One row per iterate: index, coordinates, step norm, then whichever of
    function value, witness norm, xi, distance, and ledger entry exist."""
    dim = trace.dim
    header = ["k"] + [f"x{i}" for i in range(dim)]
    header += ["delta", "f_value", "witness_norm", "xi"]
    if distances is not None:
        header.append("distance")
    if trace.fejer_ledger is not None:
        header.append("fejer_ledger")
    wit_at = {k: w for k, w in zip(trace.witness_indices, trace.witness_points)}
    xi_at = {k: x for k, x in zip(trace.witness_indices, trace.xi_values)}
    rows = []
    for k, x in enumerate(trace.iterates):
        row: list = [k] + [float(v) for v in x]
        row.append(trace.step_norms[k] if k < len(trace.step_norms) else None)
        row.append(trace.f_values[k] if trace.f_values is not None else None)
        if k in wit_at:
            row.append(float(np.linalg.norm(wit_at[k])))
            row.append(xi_at[k])
        else:
            row += [None, None]
        if distances is not None:
            row.append(distances[k])
        if trace.fejer_ledger is not None:
            row.append(trace.fejer_ledger[k] if k < len(trace.fejer_ledger) else None)
        rows.append(row)
    write_csv(path, header, rows)
