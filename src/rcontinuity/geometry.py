"""Finite-dimensional vector geometry: distances, one-sided excess, compact
windows, solution regions, and deterministic samplers.

Everything here is a pure function of its inputs (no shared mutable state),
so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class EmptyTargetError(ValueError):
    """Distance queried against an empty target set."""


class ParamError(ValueError):
    """An argument outside its range; ``param`` names it."""

    def __init__(self, param: str, message: str):
        self.param = param
        super().__init__(message)


def as_point(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce a scalar or sequence to a finite 1-d float vector.

    Raises on NaN/Inf coordinates and, when ``dim`` is given, on a
    dimension mismatch.
    """
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"a point must be a nonempty 1-d vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    if dim is not None and p.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {p.size}")
    return p


@dataclass(frozen=True)
class PointSet:
    """A finite (possibly empty) set of points of equal dimension.

    ``points`` is stored as an ``(n, dim)`` float array.  Empty sets keep an
    explicit dimension so downstream code can stay shape-consistent.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[1] == 0:
            raise ValueError(f"PointSet needs an (n, dim) array, got shape {pts.shape}")
        if pts.size and not np.isfinite(pts).all():
            raise ValueError("all coordinates must be finite")
        object.__setattr__(self, "points", pts)

    @classmethod
    def empty(cls, dim: int) -> "PointSet":
        return cls(np.empty((0, dim)))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def is_empty(self) -> bool:
        return self.points.shape[0] == 0

    def __len__(self) -> int:
        return self.points.shape[0]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.points)

    def distance_rows(self, pts) -> np.ndarray:
        """Distance from each row of an ``(n, dim)`` array to the nearest
        point of the set; an empty set is an error."""
        if self.is_empty:
            raise EmptyTargetError("distance to an empty point set is undefined")
        return _nearest(as_rows(pts, self.dim), self.points)


def as_rows(pts, dim: int) -> np.ndarray:
    """``pts`` as a finite ``(n, dim)`` float array, validated as a PointSet
    (so a 1-d array is a column of 1-d points)."""
    rows = PointSet(pts).points
    if rows.shape[1] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {rows.shape[1]}")
    return rows


#: Row-point pairs per block in :func:`_nearest`, so that its temporaries stay
#: near 0.5 MB however many rows a batched evaluation produces.
_PAIR_BLOCK = 1 << 16


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)`` of a real 1-d vector, bit for bit where that is
    finite, at about a third of its cost: numpy's own path, ``sqrt(v.dot(v))``.
    Where the square overflows (coordinates above about 1.3e154) for a finite
    ``v``, it is ``m * ||v / m||`` with ``m = max|v|``; the overflow warns
    unless the caller ignores it, as a solver run does once per run."""
    r = math.sqrt(v.dot(v))
    if r == math.inf and np.isfinite(v).all():
        m = float(np.abs(v).max())
        u = v / m
        return m * math.sqrt(u.dot(u))
    return r


def _norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=-1)``, bit for bit where that is finite.  It
    squares the coordinates, so it reads ``inf`` for finite vectors of norm
    above about 1.3e154; those are recomputed scaled by an exact power of two,
    without an overflow warning.  In 1-d the norm is ``|v|`` itself, which no
    square underflows."""
    if v.shape[-1] == 1:
        return np.abs(v[..., 0])
    with np.errstate(over="ignore"):
        r = np.linalg.norm(v, axis=-1)
        over = np.isinf(r)
        if over.any():
            r[over] = np.linalg.norm(v[over] * 2.0 ** -600, axis=-1) * 2.0 ** 600
    return r


def _nearest(rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each row of ``rows`` to its nearest row of ``points``.

    In 1-d the distance is ``|x - p|`` itself, not a norm that squares it (and
    so underflows below about 1.5e-162); elsewhere the two agree bit for bit.
    With two points or more, only the row's neighbours in the sorted points are
    measured (rounding is monotone, so one of them has the least difference)."""
    if points.shape[1] == 1:
        x, p = rows[:, 0], points[:, 0]
        if p.size == 1:
            return np.abs(x - p[0])
        p = np.sort(p)
        i = np.searchsorted(p, x)
        return np.minimum(np.abs(x - p[np.maximum(i - 1, 0)]), np.abs(x - p[np.minimum(i, p.size - 1)]))
    step = max(1, _PAIR_BLOCK // points.shape[0])
    with np.errstate(over="ignore"):  # an overflowing square reads inf, recomputed below
        blocks = [np.linalg.norm(rows[i:i + step, None, :] - points[None, :, :], axis=2).min(axis=1)
                  for i in range(0, rows.shape[0], step)]
    d = np.concatenate(blocks) if blocks else np.empty(0)
    # a row's minimum reads inf only where all of its norms overflowed; only
    # those rows are recomputed, so the common case does no per-pair work
    over = np.isinf(d)
    if over.any():
        d[over] = _norms(rows[over, None, :] - points[None, :, :]).min(axis=1)
    return d


@dataclass(frozen=True)
class Window:
    """A compact axis-aligned box or closed ball.

    ``extent`` holds per-axis half-widths for boxes and a scalar radius for
    balls.  Extents must be strictly positive, so the window is compact with
    nonempty interior by construction.
    """

    kind: str  # "box" | "ball"
    center: np.ndarray
    extent: np.ndarray

    def __post_init__(self):
        if self.kind not in ("box", "ball"):
            raise ValueError(f"unknown window kind {self.kind!r}")
        c = as_point(self.center)
        if self.kind == "box":
            e = np.atleast_1d(np.asarray(self.extent, dtype=float))
            if e.size == 1:
                e = np.full(c.size, float(e[0]))
            if e.size != c.size:
                raise DimensionMismatchError("extent and center dimensions differ")
        else:
            e = np.atleast_1d(float(np.asarray(self.extent).reshape(-1)[0]))
        if not np.all(np.isfinite(e)) or np.any(e <= 0):
            raise ValueError("window extents must be strictly positive and finite")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "extent", e)

    @classmethod
    def box(cls, center, halfwidths) -> "Window":
        return cls("box", as_point(center), halfwidths)

    @classmethod
    def ball(cls, center, radius: float) -> "Window":
        return cls("ball", as_point(center), radius)

    @property
    def dim(self) -> int:
        return self.center.size

    def contains_rows(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized containment test for an (n, dim) array."""
        if pts.shape[1] != self.dim:
            raise DimensionMismatchError(f"expected dimension {self.dim}, got {pts.shape[1]}")
        if self.kind == "box":
            return np.all(np.abs(pts - self.center) <= self.extent, axis=1)
        return _norms(pts - self.center) <= self.extent[0]

    def scaled(self, factor: float) -> "Window":
        """Same center, extents multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Window(self.kind, self.center, self.extent * factor)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "center": [float(v) for v in self.center],
            "extent": [float(v) for v in self.extent],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Window":
        return cls(d["kind"], np.asarray(d["center"], dtype=float), np.asarray(d["extent"], dtype=float))


@dataclass(frozen=True)
class Region:
    """An exact solution-set descriptor with a closed-form distance oracle.

    Supported kinds: a finite point list, an axis-aligned box, an affine
    subspace (anchor plus orthonormal basis columns), and a closed ball.
    ``distance_rows`` (and ``distance``, its one-point form) is exact for
    every kind.
    """

    kind: str  # "points" | "box" | "affine" | "ball"
    points: Optional[np.ndarray] = None
    center: Optional[np.ndarray] = None
    halfwidths: Optional[np.ndarray] = None
    radius: Optional[float] = None
    anchor: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None  # (dim, k), orthonormal columns

    def __post_init__(self):
        if self.kind == "points":
            ps = PointSet(self.points if self.points is not None else np.empty((0, 1)))
            if ps.is_empty:
                raise ValueError("a point-list region must be nonempty")
            object.__setattr__(self, "points", ps.points)
        elif self.kind == "box":
            c = as_point(self.center)
            h = np.atleast_1d(np.asarray(self.halfwidths, dtype=float))
            if h.size == 1:
                h = np.full(c.size, float(h[0]))
            if h.size != c.size or np.any(h < 0):
                raise ValueError("box halfwidths must be nonnegative and match the center")
            object.__setattr__(self, "center", c)
            object.__setattr__(self, "halfwidths", h)
        elif self.kind == "ball":
            c = as_point(self.center)
            r = float(self.radius)
            if r < 0:
                raise ValueError("ball radius must be nonnegative")
            object.__setattr__(self, "center", c)
            object.__setattr__(self, "radius", r)
        elif self.kind == "affine":
            a = as_point(self.anchor)
            b = np.asarray(self.basis, dtype=float)
            if b.ndim != 2 or b.shape[0] != a.size or b.shape[1] == 0:
                raise ValueError("affine basis must be a (dim, k) matrix")
            gram = b.T @ b
            if not np.allclose(gram, np.eye(b.shape[1]), atol=1e-12):
                raise ValueError("affine basis columns must be orthonormal (tol 1e-12)")
            object.__setattr__(self, "anchor", a)
            object.__setattr__(self, "basis", b)
        else:
            raise ValueError(f"unknown region kind {self.kind!r}")

    @classmethod
    def from_points(cls, points: Sequence) -> "Region":
        return cls("points", points=points)

    @classmethod
    def box(cls, center, halfwidths) -> "Region":
        return cls("box", center=as_point(center), halfwidths=halfwidths)

    @classmethod
    def ball(cls, center, radius: float) -> "Region":
        return cls("ball", center=as_point(center), radius=radius)

    @classmethod
    def affine(cls, anchor, basis) -> "Region":
        return cls("affine", anchor=as_point(anchor), basis=np.asarray(basis, dtype=float))

    @property
    def dim(self) -> int:
        if self.kind == "points":
            return self.points.shape[1]
        if self.kind == "affine":
            return self.anchor.size
        return self.center.size

    def distance_rows(self, pts) -> np.ndarray:
        """Exact Euclidean distance from each row of an ``(n, dim)`` array to
        the region."""
        rows = as_rows(pts, self.dim)
        if self.kind == "points":
            return _nearest(rows, self.points)
        if self.kind == "box":
            return _norms(np.maximum(np.abs(rows - self.center) - self.halfwidths, 0.0))
        if self.kind == "ball":
            return np.maximum(0.0, _norms(rows - self.center) - self.radius)
        r = rows - self.anchor
        return _norms(r - (r @ self.basis) @ self.basis.T)

    def distance(self, x) -> float:
        """Exact Euclidean distance from the point ``x`` to the region."""
        return distance_to_set(x, self)

    def project(self, x) -> np.ndarray:
        """A nearest point of the region to ``x``."""
        p = as_point(x, self.dim)
        if self.kind == "points":
            return self.points[int(np.argmin(_norms(self.points - p)))].copy()
        if self.kind == "box":
            return np.clip(p, self.center - self.halfwidths, self.center + self.halfwidths)
        if self.kind == "ball":
            with np.errstate(over="ignore"):  # _norm rescales a square that overflows
                d = _norm(p - self.center)
            if d <= self.radius:
                return p.copy()
            return self.center + (p - self.center) * (self.radius / d)
        return self.anchor + self.basis @ (self.basis.T @ (p - self.anchor))

    def sample(self, count: int) -> PointSet:
        """Deterministic representative points of the region.

        For point lists the list is cycled; for boxes/balls a grid sample is
        used; for affine subspaces coefficients range over ``[-1, 1]``.
        """
        check_sample("grid", count)
        if self.kind == "points":
            idx = np.arange(count) % self.points.shape[0]
            return PointSet(self.points[idx])
        if self.kind == "box":
            h = np.where(self.halfwidths > 0, self.halfwidths, 1e-300)
            w = Window.box(self.center, h)
            pts = sample_window(w, "grid", count).points
            return PointSet(np.where(self.halfwidths > 0, pts, self.center))
        if self.kind == "ball":
            if self.radius == 0:
                return PointSet(np.tile(self.center, (count, 1)))
            return sample_window(Window.ball(self.center, self.radius), "grid", count)
        k = self.basis.shape[1]
        coeff = sample_window(Window.box(np.zeros(k), 1.0), "grid", count).points
        return PointSet(self.anchor + coeff @ self.basis.T)

    def reference_points(self) -> np.ndarray:
        """A few exact members, used for nonemptiness checks."""
        if self.kind == "points":
            return self.points
        if self.kind == "affine":
            return self.anchor.reshape(1, -1)
        return self.center.reshape(1, -1)


TargetSet = Union[PointSet, Region]


def distance_to_set(x, target: TargetSet) -> float:
    """Euclidean distance from a point to a point set or region.

    Exact minimum for a finite :class:`PointSet`, closed form for every
    :class:`Region` kind.  An empty point-set target is an error.
    """
    return float(target.distance_rows(as_point(x)[None, :])[0])


def excess(a: PointSet, b: TargetSet) -> float:
    """One-sided excess ``sup_{p in a} d(p, b)``.

    Empty ``a`` gives 0 (the empty set lies inside everything).  Nonempty
    ``a`` against an empty point set signals unbounded excess by returning
    ``inf`` rather than raising.
    """
    if a.is_empty:
        return 0.0
    if isinstance(b, PointSet) and b.is_empty:
        return math.inf
    return float(b.distance_rows(a.points).max())


def _grid_axis_counts(count: int, dim: int) -> int:
    m = max(1, int(math.ceil(count ** (1.0 / dim))))
    while m ** dim < count:
        m += 1
    return m


def _unit_grid(count: int, dim: int) -> np.ndarray:
    """First ``count`` points of the smallest symmetric lattice in [-1,1]^dim.

    Axes include both endpoints whenever more than one point per axis is
    requested; the single-point lattice sits at the origin.
    """
    m = _grid_axis_counts(count, dim)
    axis = np.linspace(-1.0, 1.0, m) if m > 1 else np.zeros(1)
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    lattice = np.stack([g.ravel() for g in grids], axis=1)
    return lattice[:count]


def _halton(dim: int, seed: int):
    """A scrambled Halton sampler.  ``scipy.stats`` is imported here, so only
    the runs that sample Halton points pay for loading it."""
    from scipy.stats import qmc

    return qmc.Halton(d=dim, scramble=True, seed=seed)


#: The sampling schemes of :func:`sample_window`.
SCHEMES = ("grid", "halton")


def check_sample(scheme: str, count: int, count_name: str = "count") -> None:
    """Raise ``ParamError`` unless :func:`sample_window` can draw ``count``
    points by ``scheme``; ``count_name`` names the argument ``count`` came in
    as (an estimator's ``grid_count``, say)."""
    if not count >= 1:
        raise ParamError(count_name, f"{count_name} must be >= 1")
    if scheme not in SCHEMES:
        raise ParamError("scheme", f"scheme must be one of {', '.join(SCHEMES)}")


def sample_window(w: Window, scheme: str, count: int, seed: int = 0) -> PointSet:
    """Deterministic sample of ``count`` points inside a window.

    Schemes: ``"grid"`` (product lattice; in 1-d evenly spaced including both
    endpoints) and ``"halton"`` (scrambled Halton sequence, reproducible for a
    fixed seed).  Grid sampling of a ball in dimension >= 2 grids the inscribed
    box so that containment stays exact.
    """
    check_sample(scheme, count)
    d = w.dim
    if scheme == "grid":
        unit = _unit_grid(count, d)
        if w.kind == "box":
            pts = w.center + unit * w.extent
        elif d == 1:
            pts = w.center + unit * w.extent[0]
        else:
            pts = w.center + unit * (w.extent[0] / math.sqrt(d))
        return PointSet(pts)
    if w.kind == "box":
        u = _halton(d, seed).random(count)
        return PointSet(w.center + (2.0 * u - 1.0) * w.extent)
    # Ball + Halton: consume the sequence in order, rejecting points outside
    # the ball, so the accepted set is a deterministic function of the seed.
    sampler = _halton(d, seed)
    rows = []
    guard = 0
    while len(rows) < count:
        batch = sampler.random(max(count, 64))
        cand = w.center + (2.0 * batch - 1.0) * w.extent[0]
        rows.extend(cand[w.contains_rows(cand)])
        guard += 1
        if guard > 1000:
            raise RuntimeError("ball rejection sampling failed to fill the request")
    return PointSet(np.asarray(rows[:count]))


def unit_directions(count: int, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic unit vectors; alternating signs in 1-d, Halton-derived
    Gaussian directions otherwise."""
    if dim == 1:
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(count)])
    from scipy.special import ndtri

    u = _halton(dim, seed).random(count)
    z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return z / norms
