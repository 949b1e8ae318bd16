"""Finite-dimensional vector geometry: distances, one-sided excess, compact
windows, solution sets, and deterministic samplers.

Everything here is a pure function of its inputs (no shared mutable state),
so concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


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


@dataclass(frozen=True, eq=False, repr=False)
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
        point of the set; ``inf`` for every row when the set is empty."""
        rows = as_rows(pts, self.dim)
        return np.full(len(rows), math.inf) if self.is_empty else _nearest(rows, self.points)


def as_rows(pts, dim: int) -> np.ndarray:
    """``pts`` as a finite ``(n, dim)`` float array, validated as a PointSet
    (so a 1-d array is a column of 1-d points)."""
    rows = PointSet(pts).points
    if rows.shape[1] != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {rows.shape[1]}")
    return rows


#: Row-point pairs per block in :func:`_pair_blocks`, so that the temporaries of
#: :func:`_nearest` and :func:`_kth_nearest` in d >= 2 stay near 0.5 MB per
#: coordinate however many rows a batched evaluation or a trace produces (in 1-d
#: both sort instead and scan no pairs); also the largest batch of a Halton draw
#: in a ball of fewer points.
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


def _norm1(d: float) -> float:
    """:func:`_norm` of the one-element vector ``[d]`` on a Python float:
    ``sqrt(d * d)``, and ``|d|`` where the square overflows."""
    r = math.sqrt(d * d)
    return abs(d) if r == math.inf else r


def _pow(v, exponent: float):
    """Python's float ``**`` on a float (or a number, such as a numpy scalar,
    taken as one), and per element on an array of at least one dimension
    (numpy's power rounds differently), with the IEEE limit where ``**`` overflows.
    The array path is one comprehension over the column; only a column where
    ``**`` overflows takes the per-element path."""
    if type(v) is not float:
        if isinstance(v, np.ndarray) and v.ndim:
            values = v.tolist()
            try:
                return np.array([t ** exponent for t in values], dtype=float)
            except OverflowError:
                return np.array([_pow(t, exponent) for t in values], dtype=float)
        v = float(v)  # a numpy scalar, an int or a 0-d array takes the float path
    try:
        return v ** exponent
    except OverflowError:  # Python raises where IEEE arithmetic gives +-inf
        with np.errstate(over="ignore"):
            return float(np.power(v, exponent))


def _norm_rows(v: np.ndarray) -> np.ndarray:
    """:func:`_norm` of each row of an ``(n, dim)`` array, bit for bit, in one
    array operation: a stacked ``matmul`` takes each row's dot product as
    ``v.dot(v)`` does.  ``norm(v, axis=1)`` sums the squares another way and
    differs in the last bit (for 1,110 of the 10,946 witnesses of a 2-d
    shifted-PPA run, numpy 2.4 on x86-64), and step and witness norms are
    written to ``trace.csv``.  Finite rows whose square overflows are rescaled
    as :func:`_norm` does it, without a warning; like ``_norm``, no row is
    rescaled where its square underflows."""
    with np.errstate(over="ignore"):
        r = np.sqrt(np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0])
        over = np.isinf(r)
        if over.any():
            over &= np.isfinite(v).all(axis=1)
            m = np.abs(v[over]).max(axis=1)
            r[over] = m * _norm_rows(v[over] / m[:, None])
    return r


def _norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=-1)``, bit for bit where that is finite and at
    least ``2**-511``.  It squares the coordinates, so the sum of squares
    overflows for finite vectors of norm above about 1.3e154 and is subnormal
    or 0 below ``2**-511``; those norms are taken on ``v`` scaled by an exact
    power of two, without an overflow warning (Blue, ACM TOMS 1978, scales the
    same way).  In 1-d the norm is ``|v|`` itself, which squares nothing."""
    if v.shape[-1] == 1:
        return np.abs(v[..., 0])
    with np.errstate(over="ignore"):  # a norm past the float range reads inf, as numpy's does
        r = np.linalg.norm(v, axis=-1)
        if r.size and not 2.0 ** -511 <= r.min() <= r.max() < math.inf:  # the common case builds no mask
            for off, scale in ((np.isinf(r), 2.0 ** -600), (r < 2.0 ** -511, 2.0 ** 600)):
                if off.any():
                    r[off] = np.linalg.norm(v[off] * scale, axis=-1) / scale
    return r


def _pair_blocks(rows: np.ndarray, points: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """The :func:`_norms` distances from every row of ``rows`` to every row of
    ``points``, as ``(i, block)`` with ``block[j, l]`` the distance from
    ``rows[i + j]`` to ``points[l]``; a block holds about ``_PAIR_BLOCK``
    distances.  A difference past the float range reads inf, without a warning
    where the caller ignores overflow, as each caller does once per call."""
    step = max(1, _PAIR_BLOCK // points.shape[0])
    for i in range(0, rows.shape[0], step):
        yield i, _norms(rows[i:i + step, None, :] - points[None, :, :])


def _nearest(rows: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Distance from each row of ``rows`` to its nearest row of ``points``, by
    :func:`_norms`.  In 1-d it is ``|x - p|``; with two points or more, only
    the row's neighbours in the sorted points are measured (rounding is
    monotone, so one of them has the least difference).  A distance past the
    float range reads inf."""
    with np.errstate(over="ignore"):
        if points.shape[1] == 1:
            x, p = rows[:, 0], points[:, 0]
            if p.size == 1:
                return np.abs(x - p[0])
            p = np.sort(p)
            i = np.searchsorted(p, x)
            return np.minimum(np.abs(x - p[np.maximum(i - 1, 0)]), np.abs(x - p[np.minimum(i, p.size - 1)]))
        blocks = [block.min(axis=1) for _, block in _pair_blocks(rows, points)]
    return np.concatenate(blocks) if blocks else np.empty(0)


def _kth_nearest(pts: np.ndarray, k: int) -> np.ndarray:
    """For each row of ``pts``, the distance to its ``k``-th nearest other row
    (``k = 0`` is the nearest), as a full sort of its :func:`_norms` to the
    other rows gives it; a distance past the float range reads inf.

    In 1-d the points are sorted once and each is measured to its ``k + 1``
    neighbours on either side (rounding is monotone, so its ``k + 1`` nearest
    others are among them), and the ``k``-th of those ``2 (k + 1)`` distances
    is taken, inf standing for a neighbour past either end.  In d >= 2 every
    pair is measured, in :func:`_pair_blocks` row blocks."""
    with np.errstate(over="ignore"):
        if pts.shape[1] == 1:
            order = np.argsort(pts[:, 0], kind="stable")
            s = pts[order, 0]
            near = np.full((s.size, 2 * (k + 1)), np.inf)
            for j in range(1, k + 2):
                gap = np.abs(s[j:] - s[:-j])
                near[:-j, j - 1] = gap  # to the j-th neighbour on the right
                near[j:, k + j] = gap  # to the j-th neighbour on the left
            kth = np.empty(s.size)
            kth[order] = np.partition(near, k, axis=1)[:, k]
            return kth
        kth = np.empty(pts.shape[0])
        for i, block in _pair_blocks(pts, pts):
            rows = np.arange(block.shape[0])
            block[rows, i + rows] = np.inf  # a point is not its own neighbour
            kth[i:i + rows.size] = np.partition(block, k, axis=1)[:, k]
    return kth


def _in_float_range(center: np.ndarray, extent: np.ndarray) -> bool:
    """Whether ``center ± extent`` is finite on every axis, ``extent`` being one half-width per axis or one
    for all: ``|center_i| + extent_i`` in Python floats, which overflow to inf without a warning."""
    c, e = center.tolist(), extent.tolist()
    return all(math.isfinite(abs(x) + h) for x, h in zip(c, e * (len(c) // len(e))))


@dataclass(frozen=True, eq=False, repr=False)
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
        e = np.asarray(self.extent, dtype=float).reshape(-1)
        if self.kind == "box":
            if e.size == 1:
                e = np.full(c.size, float(e[0]))
            if e.size != c.size:
                raise DimensionMismatchError("extent and center dimensions differ")
        elif e.size != 1:
            raise ValueError(f"a ball's extent is one radius, got {e.size} values")
        if not (np.all(e > 0) and _in_float_range(c, e)):
            raise ValueError("window extents must be strictly positive, and center ± extent finite")
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
        with np.errstate(over="ignore"):  # an extent past the float range is refused as inf
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


@dataclass(frozen=True, eq=False, repr=False)
class Region(PointSet):
    """A solution set: a nonempty finite point list.

    It is a :class:`PointSet`, so ``distance_rows`` (and ``distance``, its
    one-point form) is the exact distance to the nearest point.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.is_empty:
            raise ValueError("a solution set must be nonempty")

    def distance(self, x) -> float:
        """Exact Euclidean distance from the point ``x`` to the set."""
        return float(self.distance_rows(as_point(x)[None, :])[0])

    def project(self, x) -> np.ndarray:
        """The first of the points of the set nearest to ``x``."""
        p = as_point(x, self.dim)
        return self.points[int(np.argmin(_norms(self.points - p)))].copy()


def excess(a: PointSet, b: PointSet) -> float:
    """One-sided excess ``sup_{p in a} d(p, b)``.

    Empty ``a`` gives 0 (the empty set lies inside everything); nonempty ``a``
    against an empty ``b`` gives ``inf``, since every distance to it is.
    """
    if a.is_empty:
        return 0.0
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


def _primes(count: int) -> list:
    """The first ``count`` primes."""
    primes: list = []
    k = 2
    while len(primes) < count:
        if all(k % p for p in primes):
            primes.append(k)
        k += 1
    return primes


class _Halton:
    """The scrambled Halton sequence (Owen 2017, arXiv:1706.02808) that scipy
    1.17.1's ``qmc.Halton(d=dim, scramble=True, seed=seed)`` draws, bit for bit;
    successive :meth:`random` calls continue it.

    Coordinate ``k`` of point ``i`` is a base-``b`` radical inverse of ``i``
    (``b`` the ``k``-th prime) whose digit at level ``j`` goes through the
    ``j``-th of ``ceil(54 / log2(b)) - 1`` seeded permutations: the sum of
    ``perm[j][digit_j] * b**-(j+1)`` added from level 0 up, as scipy's kernel
    adds its ``remainder * b2r`` products."""

    def __init__(self, dim: int, seed: int):
        rng = np.random.default_rng(seed)
        self._terms = []  # per prime, the (levels, b) array of perm[j][r] * b**-(j+1)
        for b in _primes(dim):
            perm = np.repeat(np.arange(b)[None], math.ceil(54 / math.log2(b)) - 1, axis=0)
            rng.permuted(perm, axis=1, out=perm)  # draws what scipy's per-row shuffle draws
            scale = np.full(len(perm), float(b))
            scale[0] = 1.0 / b
            np.divide.accumulate(scale, out=scale)  # 1/b, then each level's divided by b
            self._terms.append(perm * scale[:, None])
        self._drawn = 0

    def random(self, n: int) -> np.ndarray:
        """The next ``n`` points, an ``(n, dim)`` array in [0, 1)."""
        first, self._drawn = self._drawn, self._drawn + n
        index = np.arange(first, first + n)
        out = np.empty((n, len(self._terms)))
        for k, terms in enumerate(self._terms):
            b, levels = terms.shape[1], len(terms)
            # table[m]: the sum over the levels below j of an index whose residue mod `size` is m,
            # one outer sum per level (IEEE + commutes, so terms[j][t] + table[m] is the kernel's sum)
            table, size, j = terms[0], b, 1
            while size * b <= n and j < levels:
                table = (terms[j][:, None] + table).ravel()
                size, j = size * b, j + 1
            q, r = np.divmod(index, size)
            acc = table[r]
            while first + n > size and j < levels:  # some index has a digit at level j
                q, r = np.divmod(q, b)
                acc += terms[j][r]
                size, j = size * b, j + 1
            tail = terms[j:, 0].tolist()  # digit 0 at every index from here on
            for t in [sum(tail)] if b == 2 else tail:  # in base 2 each level adds its own bit: every sum is exact
                if t:  # adding +0.0 to a nonnegative sum changes no bit
                    acc += t
            out[:, k] = acc
        return out


#: The sampling schemes of :func:`sample_window`.
SCHEMES = ("grid", "halton")

#: Halton candidates a draw in a ball may consume: about a second's work,
#: enough for 64 points up to d = 14.
_BALL_BUDGET = 1 << 21


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
    box so that containment stays exact.  A Halton draw in a ball that needs
    more than ``_BALL_BUDGET`` candidates is refused, naming ``scheme``.
    """
    check_sample(scheme, count)
    d = w.dim
    if scheme == "grid":
        unit = _unit_grid(count, d)
        if w.kind == "box":
            pts = w.center + unit * w.extent
        else:
            pts = w.center + unit * (w.extent[0] / math.sqrt(d))
        return PointSet(pts)
    sampler = _Halton(d, seed)
    if w.kind == "box":
        return PointSet(w.center + (2.0 * sampler.random(count) - 1.0) * w.extent)
    # Ball + Halton: consume the sequence in order, rejecting points outside
    # the ball, so the accepted set is a deterministic function of the seed.
    share = math.exp(d / 2 * math.log(math.pi / 4) - math.lgamma(d / 2 + 1))  # the ball's share of its box
    pts = np.empty((count, d))
    filled = drawn = 0
    while filled < count:
        # refused before the first batch if the expected candidates exceed the budget, or once it is spent
        if drawn == _BALL_BUDGET or count > _BALL_BUDGET * share:
            raise ParamError("scheme", f"a Halton draw of {count} points in a {d}-d ball needs more than "
                                       f"{_BALL_BUDGET} candidates; use the grid scheme")
        # the candidates the missing points are expected to take: 64 at least, and at most
        # _PAIR_BLOCK (or count, if larger) and what is left of the budget
        batch = min(max(64, math.ceil((count - filled) / share)), max(count, _PAIR_BLOCK), _BALL_BUDGET - drawn)
        cand = w.center + (2.0 * sampler.random(batch) - 1.0) * w.extent[0]
        inside = cand[w.contains_rows(cand)][:count - filled]
        pts[filled:filled + len(inside)] = inside
        filled, drawn = filled + len(inside), drawn + batch
    return PointSet(pts)


def unit_directions(count: int, dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic unit vectors: alternating signs in 1-d, otherwise the
    Halton points of the box ``[-1, 1]^dim`` (:func:`sample_window`), each
    divided by its norm."""
    if dim == 1:
        return np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(count)])
    # sample_window draws one point at least, so no direction is an empty slice of one
    z = sample_window(Window.box(np.zeros(dim), 1.0), "halton", max(count, 1), seed).points[:count]
    norms = _norms(z)
    norms[norms == 0] = 1.0
    return z / norms[:, None]
