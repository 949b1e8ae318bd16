"""Shared brute-force oracles for the test suite.

These deliberately avoid the library's own estimation paths: distances are
minimized by zooming grid refinement and modulus curves are rebuilt from a
dense evaluation, so the tests cross-check two independent routes.
"""

from __future__ import annotations

import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import settings

import rcontinuity
from rcontinuity import excess

# Every property test draws the same examples on every run; a test's own
# ``@settings`` still sets its example count.  ``--hypothesis-profile=default``
# asks for fresh random examples.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

# Hypothesis also draws from the literals of every local module loaded when it
# draws, and ``import rcontinuity`` loads no submodule: load them all before the
# first draw, so that the package's literals are in that pool whichever tests run.
for _module in pkgutil.iter_modules(rcontinuity.__path__):
    if _module.name != "__main__":
        importlib.import_module(f"rcontinuity.{_module.name}")


def refine_brute_distance(distance_free_points, x, lo, hi, levels=5, per_level=800):
    """Minimize ``||x - p||`` over a product region by zooming grid search.

    ``distance_free_points(grid) -> (m, d) array`` maps a coordinate grid to
    candidate member points (identity for boxes, clipping for constrained
    kinds).  The zoom window never leaves the initial bounds, so grid points
    stay inside box-shaped regions.  Accuracy is roughly
    ``(hi - lo) * (4 / per_axis) ** levels``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo0 = np.atleast_1d(np.asarray(lo, dtype=float))
    hi0 = np.atleast_1d(np.asarray(hi, dtype=float))
    lo, hi = lo0.copy(), hi0.copy()
    dim = x.size
    per_axis = max(3, int(round(per_level ** (1.0 / dim))))
    best = None
    for _ in range(levels):
        axes = [np.linspace(lo[i], hi[i], per_axis) for i in range(dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        grid = np.stack([m.ravel() for m in mesh], axis=1)
        members = distance_free_points(grid)
        dists = np.linalg.norm(members - x, axis=1)
        j = int(np.argmin(dists))
        best = float(dists[j])
        center = grid[j]
        span = (hi - lo) * (2.0 / per_axis)
        lo = np.maximum(center - span, lo0)
        hi = np.minimum(center + span, hi0)
    return best


def brute_force_modulus(m, xbar, window, radii, n_dense=4096):
    """Dense 1-d reconstruction of the excess envelope over each radius."""
    xbar = np.atleast_1d(np.asarray(xbar, dtype=float))
    assert m.dim_in == 1, "dense oracle is one-dimensional"
    if m.window_required:
        reference = m.eval(xbar, window.scaled(10.0))
    else:
        reference = m.eval(xbar, None)
    rmax = float(radii[-1])
    offsets = np.linspace(-rmax, rmax, n_dense)
    vals = [excess(m.eval(xbar + np.array([t]), window), reference) for t in offsets]
    rho = []
    running = 0.0
    for r in radii:
        mask = np.abs(offsets) <= r
        worst = max((v for v, keep in zip(vals, mask) if keep), default=0.0)
        running = max(running, worst)
        rho.append(running)
    return np.asarray(rho)


def curves_agree(a, b, rel=0.1, atol=1e-12) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), atol)
    return bool(np.all(np.abs(a - b) <= rel * scale + atol))


# --- membership distances, one point at a time ---------------------------------
#
# The per-point ``value_dist`` closures the catalog had before membership
# distances became row-wise, kept as the reference ``member_dist_rows`` must
# reproduce bit for bit, by map name.

def _ref_rm1_value_dist(x, y):
    v, w = float(x[0]), float(y[0])
    if v == 0.0:
        return abs(w)
    return min(abs(w - v), abs(w - 1.0 / v))


def _ref_abs_subdiff_value_dist(x, y):
    v, w = float(x[0]), float(y[0])
    if v > 0.0:
        return abs(w - 1.0)
    if v < 0.0:
        return abs(w + 1.0)
    return max(abs(w) - 1.0, 0.0)


def _ref_abs_subdiff_inverse_value_dist(y, x):
    w, v = float(y[0]), float(x[0])
    if abs(w) > 1.0:
        return math.inf
    if abs(w) < 1.0:
        return abs(v)
    if w == 1.0:
        return max(-v, 0.0)
    return max(v, 0.0)


reference_value_dists = {
    "rm1": _ref_rm1_value_dist,
    "abs-subdiff": _ref_abs_subdiff_value_dist,
    "abs-subdiff-inverse": _ref_abs_subdiff_inverse_value_dist,
}


def reference_member_dist(m, x, y, window=None) -> float:
    """``d(y, A(x))`` one point at a time: the scalar closure above where the
    map has one, else the distance from ``y`` to ``m.eval(x, window)``, ``inf``
    where that is empty."""
    if m.name in reference_value_dists:
        return reference_value_dists[m.name](np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    vals = m.eval(x, window)
    return math.inf if vals.is_empty else float(vals.distance_rows(np.atleast_1d(y)[None])[0])


@pytest.fixture
def tmp_out(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    return out
