"""Numerical estimation of regularity: modulus curves, power-law fits,
closed-graph probing, Lojasiewicz-exponent fitting, desingularization
(PLK-style) checks, full-rank inverse-Lipschitz certification, and a
calmness estimator for comparison.

All estimators are deterministic for fixed seeds.  Map values are evaluated
in one ``SetValuedMap.eval_rows`` batch per radius or sample set, every
closed-graph sequence in one batch whose chains advance together, and
membership distances in one ``member_dist_rows`` call; they are reduced per
sample in sample order, so every result equals that of a loop evaluating one
sample at a time, bit for bit.  Grid callers of a scalar function take it
row-wise, by ``setmap.oracle_rows``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import (PointSet, Window, _in_float_range, _norm_rows, _norms, _pow, as_point, check_sample,
                       excess, sample_window, unit_directions)
from .setmap import (OperatorEntry, ParamError, SetValuedMap, ValueOverflowError, WindowDimensionError,
                     WindowRequiredError, oracle_rows)


@dataclass(frozen=True, eq=False, repr=False)
class ModulusCurve:
    """Estimated continuity modulus over a radius grid.

    ``rho_hat[i]`` bounds the excess of windowed values over the base value
    for displacements up to ``radii[i]``; a running maximum keeps the curve
    nondecreasing.  ``divergent`` marks curves that met unbounded excess.
    """

    radii: np.ndarray
    rho_hat: np.ndarray
    sample_counts: List[int]
    divergent: bool = False

    def __post_init__(self):
        r = _radius_grid(self.radii)
        v = np.asarray(self.rho_hat, dtype=float)
        if v.shape != r.shape:
            raise ValueError("radii and rho_hat must be matching 1-d arrays")
        if len(self.sample_counts) != r.size:
            raise ParamError("sample_counts", "sample_counts must have one entry per radius")
        bad = np.flatnonzero(~(v >= 0))  # NaN too; inf marks a divergent curve
        if bad.size:
            raise ParamError(f"rho_hat[{bad[0]}]", "modulus values must be nonnegative")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "rho_hat", v)


@dataclass(frozen=True, repr=False)
class HolderFit:
    """Power-law fit ``rho(r) ~ L * r**theta`` of a modulus curve."""

    L_hat: Optional[float]
    theta_hat: Optional[float]
    residual: Optional[float]
    degenerate: Optional[bool]

    def to_json_dict(self) -> dict:
        return asdict(self)


def estimate_modulus(
    m: SetValuedMap,
    xbar,
    k: Optional[Window],
    radii: Sequence[float],
    samples_per_radius: int = 64,
    seed: int = 0,
    scheme: str = "grid",
) -> ModulusCurve:
    """Sampled excess envelope of ``x -> A(x) ∩ K`` against the base value.

    The base value is evaluated unwindowed when the map permits it, otherwise
    with a window ten times larger than ``k``.  For every radius, sample
    points fill the ball around the base point and the worst excess is
    recorded; a running maximum enforces monotonicity in the radius.
    """
    reference = check_modulus(m, xbar, k, radii, samples_per_radius, scheme)
    return _modulus_curve(m, xbar, k, radii, samples_per_radius, seed, scheme, reference)


def _modulus_curve(m: SetValuedMap, xbar, k: Optional[Window], radii: Sequence[float], samples_per_radius: int,
                   seed: int, scheme: str, reference: PointSet) -> ModulusCurve:
    """:func:`estimate_modulus` on arguments :func:`check_modulus` accepted,
    against the base value ``reference`` it returned."""
    xb = as_point(xbar, m.dim_in)
    offsets = sample_window(Window.ball(np.zeros(m.dim_in), 1.0), scheme, samples_per_radius, seed).points
    rho: List[float] = []
    running = 0.0
    for r in radii:
        # the worst excess over the samples is the excess of all their values
        try:
            running = max(running, excess(m.eval_rows(xb + r * offsets, k)[0], reference))
        except ValueOverflowError:  # a value at infinite distance from the reference
            running = math.inf
        rho.append(running)
    # an infinite excess at any radius stays in the running maximum
    return ModulusCurve(radii, np.asarray(rho), [len(offsets)] * len(radii), divergent=math.isinf(running))


def check_modulus(m: SetValuedMap, xbar, k: Optional[Window], radii: Sequence[float],
                  samples_per_radius: int, scheme: str) -> PointSet:
    """Raise ``ParamError`` naming the argument unless :func:`estimate_modulus` can run (positive, strictly
    increasing radii, a sample per radius, a known scheme, a window ``m`` accepts, a sample ball and a base
    window within the float range, a finite, nonempty base value); return the base value."""
    r = _radius_grid(radii)
    check_sample(scheme, samples_per_radius, "samples_per_radius")
    m.check_window(k)
    xb = as_point(xbar, m.dim_in)
    if not _in_float_range(xb, r[-1:]):
        raise ParamError("radii", "the sample ball, |xbar_i| + radii[-1], leaves the float range")
    try:
        reference = _base_value(m, xb, k)
    except ValueOverflowError as exc:
        raise ParamError("xbar", f"at the base point: {exc}") from None
    if reference.is_empty:
        raise ParamError("xbar", f"map {m.name!r} is empty at the base point")
    return reference


def _radius_grid(radii) -> np.ndarray:
    """``radii`` as a float array, else ``ParamError`` naming the first ``radii[i]`` that is not
    positive (NaN included), or ``radii`` unless they are nonempty, 1-d and strictly increasing."""
    r = np.asarray(radii, dtype=float)
    bad = np.flatnonzero(~(r > 0))
    if bad.size:
        raise ParamError(f"radii[{bad[0]}]", "radii must be positive")
    if r.ndim != 1 or r.size == 0 or np.any(np.diff(r) <= 0):
        raise ParamError("radii", "radii must be a nonempty, strictly increasing list")
    return r


def _base_value(m: SetValuedMap, xb: np.ndarray, k: Optional[Window]) -> PointSet:
    """The base value ``A(xbar)`` that excesses are measured against: unwindowed, or in ``k`` scaled
    ten times when the map requires a window, a ``ParamError`` naming ``window`` if that overflows."""
    try:
        base_window = k.scaled(10.0) if m.window_required else None
    except ValueError as exc:
        raise ParamError("window", f"the tenfold base window: {exc}") from None
    return m.eval(xb, base_window)


def fit_holder(curve: ModulusCurve) -> HolderFit:
    """Log-log least squares fit of a modulus curve.

    Zero entries carry no log-log information and are excluded; fewer than
    three positive entries makes the fit degenerate.  A divergent curve has
    no fit: every field is ``None``.
    """
    if curve.divergent:
        return HolderFit(None, None, None, None)
    mask = curve.rho_hat > 0
    if int(mask.sum()) < 3:
        return HolderFit(L_hat=None, theta_hat=None, residual=0.0, degenerate=True)
    logs = np.log(curve.radii[mask])
    logv = np.log(curve.rho_hat[mask])
    slope, intercept = np.polyfit(logs, logv, 1)
    pred = slope * logs + intercept
    residual = float(np.sqrt(np.mean((pred - logv) ** 2)))
    return HolderFit(L_hat=float(np.exp(intercept)), theta_hat=float(slope), residual=residual, degenerate=False)


@dataclass(frozen=True, eq=False, repr=False)
class GraphTestResult:
    """Outcome of the sequential closed-graph probe."""

    verdict: str  # "pass" | "fail" | "inconclusive"
    witness: Optional[np.ndarray]
    chains_converged: int
    chains_total: int

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


_START_RADIUS = 0.5


def closed_graph_test(
    m: SetValuedMap,
    xbar,
    k: Window,
    n_sequences: int = 8,
    tol: float = 1e-6,
    seed: int = 0,
    depth: int = 60,
    max_chains_per_sequence: int = 8,
) -> GraphTestResult:
    """Probe whether limits of convergent selections stay inside the base value.

    Sequences approach the base point along seeded directions at the radii
    ``_START_RADIUS * 2**-j``, ``j <= depth``.  Selections are built by nearest-neighbor
    chaining; a chain counts as convergent when its gaps vanish with a
    geometric-type ratio and the projected remaining motion is below the
    acceptance slack.  Failure reports the violating limit; no convergent
    chain at all is inconclusive rather than a failure.
    """
    xb = as_point(xbar, m.dim_in)
    limit_tol = 0.1 * tol
    dirs = unit_directions(n_sequences, m.dim_in, seed).reshape(-1, m.dim_in)
    steps = np.ldexp(_START_RADIUS, -np.arange(depth + 1))  # _START_RADIUS * 2**-j, exactly
    # row (s, j) of the batch is the j-th point of sequence s
    vals, owner = m.eval_rows((xb + steps[None, :, None] * dirs[:, None, :]).reshape(-1, m.dim_in), k)
    pts = vals.points
    counts = np.bincount(owner, minlength=dirs.shape[0] * (depth + 1)).reshape(-1, depth + 1)
    offsets = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
    starts = np.minimum(counts[:, 0], max_chains_per_sequence)
    live = (counts[:, 1:] > 0).all(axis=1)  # an empty value breaks every chain of its sequence
    seq = np.repeat(np.flatnonzero(live), starts[live])  # the sequence of each chain
    chains = np.empty((seq.size, depth + 1, pts.shape[1]))
    chains[:, 0] = pts[_ranges(offsets[live, 0], starts[live])[0]]
    for j in range(1, depth + 1):
        # each chain takes the nearest in its segment of cand, the first on ties as argmin does
        n = counts[seq, j]
        cand, first = _ranges(offsets[seq, j], n)
        d = _norms(pts[cand] - np.repeat(chains[:, j - 1], n, axis=0))
        hits = np.flatnonzero(d == np.repeat(np.minimum.reduceat(d, first), n))
        chains[:, j] = pts[cand[hits[np.searchsorted(hits, first)]]]
    gaps = _norms(np.diff(chains, axis=1))
    converged = np.flatnonzero([_chain_converged(g, limit_tol) for g in gaps])
    ends = chains[converged, -1]
    far = np.flatnonzero(m.member_dist_rows(np.tile(xb, (converged.size, 1)), ends, k) > tol)
    if far.size:
        # the first failure in chain order counts the chains up to it: the
        # converged ones, and all before it, broken sequences' chains included
        c = converged[far[0]]
        broken = np.cumsum(np.where(live, 0, starts))
        return GraphTestResult("fail", ends[far[0]], int(far[0]) + 1, int(c) + 1 + int(broken[seq[c]]))
    return GraphTestResult("pass" if converged.size else "inconclusive", None, int(converged.size), int(starts.sum()))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The index ranges ``starts[i] .. starts[i] + lengths[i] - 1``, concatenated,
    and the position in the result where each range begins."""
    first = np.cumsum(lengths) - lengths
    return np.repeat(starts - first, lengths) + np.arange(lengths.sum()), first


def _chain_converged(gaps: np.ndarray, limit_tol: float) -> bool:
    """Accept chains whose tail gaps decay at a sub-unit ratio with a small
    projected remainder, plus exactly stationary chains."""
    if gaps.size == 0 or gaps[-1] == 0.0:
        return True
    tail = gaps[-6:]
    moved = tail[:-1] > 0
    ratios = tail[1:][moved] / tail[:-1][moved]
    if not ratios.size:
        return True
    rate = float(np.median(ratios))
    return rate < 0.97 and float(gaps[-1]) * rate / (1.0 - rate) <= limit_tol


@dataclass(frozen=True, eq=False, repr=False)
class LojFit:
    """Envelope fit of ``d(x, S)**theta <= c * |f(x)|`` on a window."""

    theta_hat: Optional[float]
    c_hat: Optional[float]
    window: Window
    failed: bool
    level_exponents: List[float]
    max_ratio_points: List[Tuple[float, float]]  # (x-coordinate norm, ratio) diagnostics

    def to_json_dict(self) -> dict:
        return {
            "theta_hat": self.theta_hat,
            "c_hat": self.c_hat,
            "failed": self.failed,
            "level_exponents": self.level_exponents,
            "window": self.window.to_dict(),
        }


_LOJA_LEVELS = 3
_LOJA_EXPONENT_CAP = 100.0


def lojasiewicz_fit(entry: OperatorEntry, k: Window, grid_count: int = 2001) -> LojFit:
    """Fit the distance-to-zero-set power inequality for a scalar function.

    The exponent is estimated on ``_LOJA_LEVELS`` shrinking bands around the
    zero set over refining grids (the first grid takes ``f`` at every point, a
    refinement level only at the points of its band, where ``0 < d <= band``);
    blow-up past ``_LOJA_EXPONENT_CAP`` at any level sets the
    failure flag (no finite exponent works), as do too few band points (or all
    at one distance, so no slope) at every level and an ``f`` that reads 0 off
    the zero set (it underflows on tiny windows).  Points where ``f`` is not
    finite (it overflows on huge windows) join no band, as zeros of ``f`` do.  On success the scale is the exact
    envelope maximum of ``d**theta / |f|`` over the full grid; a maximum that
    overflows fails the fit too.
    """
    pts0, d0 = check_lojasiewicz(entry, k, grid_count)
    f0 = oracle_rows(entry.f, pts0)
    # a point carries log-log information where f is finite and nonzero and
    # the distance positive (and finite: it overflows past about 1.8e308)
    mask0 = np.isfinite(f0) & (f0 != 0.0) & np.isfinite(d0) & (d0 > 0.0)
    if not mask0.any():
        return LojFit(None, None, k, True, [], [])
    d_max = float(d0[mask0].max())

    level_exponents: List[float] = []
    for level in range(_LOJA_LEVELS):
        band = d_max * 4.0 ** (-level)
        if level:
            pts = sample_window(k, "grid", grid_count * (2 ** level), seed=0).points
            d = entry.solution_set.distance_rows(pts)
        else:
            pts, d = pts0, d0
        near = (d > 0.0) & (d <= band)
        # a refinement level takes f only on its band rows, in grid order
        d, f = d[near], (oracle_rows(entry.f, pts[near]) if level else f0[near])
        mask = np.isfinite(f) & (f != 0.0)
        if int(mask.sum()) < 5 or d[mask].min() == d[mask].max():  # no spread in log d: no slope
            continue
        slope = float(np.polyfit(np.log(d[mask]), np.log(np.abs(f[mask])), 1)[0])
        level_exponents.append(slope)
    if not level_exponents or any(not np.isfinite(t) or t > _LOJA_EXPONENT_CAP for t in level_exponents):
        return LojFit(None, None, k, True, level_exponents, [])

    theta = level_exponents[-1]
    d, f = d0[mask0], np.abs(f0[mask0])
    with np.errstate(over="ignore"):  # where d**theta overflows the ratio need not: take it in logs
        ratios = d ** theta / f
        ratios = np.where(np.isinf(ratios), np.exp(theta * np.log(d) - np.log(f)), ratios)
    if np.isinf(ratios.max()):  # no finite scale
        return LojFit(None, None, k, True, level_exponents, [])
    order = np.argsort(ratios)[::-1][:3]
    diag = list(zip(_norm_rows(pts0[mask0][order]).tolist(), ratios[order].tolist()))
    return LojFit(float(theta), float(ratios.max()), k, False, level_exponents, diag)


def check_lojasiewicz(entry: OperatorEntry, k: Optional[Window], grid_count: int) -> Tuple[np.ndarray, np.ndarray]:
    """Raise unless :func:`lojasiewicz_fit` can run: ``ParamError`` for a
    ``grid_count`` below 1, ``MissingOracleError`` without ``f``, ``ParamError``
    for a window that is missing, not of the domain's dimension, disjoint from
    the solution set, or whose first grid has no point at a positive distance
    from it (every grid point is a solution, or the distances underflow to 0).
    Return that grid's points and their distances."""
    check_sample("grid", grid_count, "grid_count")
    entry.need("f")
    if k is None:
        raise WindowRequiredError("window", "the Lojasiewicz fit needs a compact window")
    if k.dim != entry.dim_in:
        raise WindowDimensionError("window", f"window must have dimension {entry.dim_in}")
    if not k.contains_rows(entry.solution_set.points).any():
        raise ParamError("window", "the solution set does not meet the window")
    pts = sample_window(k, "grid", grid_count, seed=0).points
    d = entry.solution_set.distance_rows(pts)
    if not (d > 0.0).any():
        raise ParamError("window", "no grid point is at a positive distance from the solution set "
                                   "(every grid point is a solution, or the distances underflow): nothing to fit")
    return pts, d


@dataclass(frozen=True, eq=False, repr=False)
class PlkConfig:
    """Power-law desingularization parameters ``phi(t) = M * t**(1 - q)``.

    The constructor enforces the shape constraints (positive scale, band
    height and neighborhood radius, exponent in [0, 1)) and names the first
    field that breaks one in a ``ParamError``, so the desingularizing function
    is valid by construction.
    """

    M: float
    q_exp: float
    eta: float
    neighborhood_radius: float

    def __post_init__(self):
        for name in ("M", "eta", "neighborhood_radius"):
            if not getattr(self, name) > 0:
                raise ParamError(name, f"{name} must be positive")
        if not 0.0 <= self.q_exp < 1.0:
            raise ParamError("q_exp", "q_exp must lie in [0, 1)")

    def phi_prime(self, t):
        """``phi'(t)`` on a float or per element of an array; ``inf`` where
        ``t ** -q_exp`` overflows."""
        return self.M * (1.0 - self.q_exp) * _pow(t, -self.q_exp)


@dataclass(frozen=True, eq=False, repr=False)
class PlkResult:
    verdict: str  # "pass" | "fail" | "inconclusive"
    violations: List[np.ndarray]
    checked: int
    min_product: Optional[float]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "checked": self.checked,
            "min_product": self.min_product,
            "violations": [[float(v) for v in p] for p in self.violations[:10]],
        }


def check_plk_exponent(
    entry: OperatorEntry,
    xbar,
    cfg: PlkConfig,
    grid_count: int = 257,
) -> PlkResult:
    """Test ``phi'(f(x) - f(xbar)) * d(0, subgrad f(x)) >= 1`` on the band.

    The grid covers the neighborhood ball and keeps only points with
    ``f(xbar) < f(x) < f(xbar) + eta`` (strictly).  An empty band yields an
    inconclusive verdict, never a pass.  Where ``phi'`` is not finite
    (``t ** -q`` overflows for a tiny ``t``; against a subnormal ``M``,
    ``M * (1 - q)`` may round to 0 and ``phi'`` read NaN) the product is taken
    in logs, so it is finite where it is in exact arithmetic, and 0, a
    violation, at a zero slope.
    """
    ball = check_plk(entry, xbar, cfg, grid_count)
    fbar = entry.f(ball.center)
    pts = sample_window(ball, "grid", grid_count).points
    fvals = oracle_rows(entry.f, pts)
    band = np.flatnonzero((fbar < fvals) & (fvals < fbar + cfg.eta))
    if not band.size:
        return PlkResult("inconclusive", [], 0, None)
    # d(0, subgrad f(x)) per band point, inf where the subgradient is empty
    slopes = entry.subgrad.member_dist_rows(pts[band], np.zeros((band.size, entry.dim_out)))
    t = fvals[band] - fbar
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi = cfg.phi_prime(t)
        products = phi * slopes
        over = ~np.isfinite(phi)
        products[over] = np.exp(math.log(cfg.M) + math.log1p(-cfg.q_exp) - cfg.q_exp * np.log(t[over])
                                + np.log(slopes[over]))
    violations = list(pts[band[products < 1.0 - 1e-12]])
    # Python's min: a NaN product is skipped unless it comes first
    return PlkResult("fail" if violations else "pass", violations, band.size, min(products.tolist()))


def check_plk(entry: OperatorEntry, xbar, cfg: PlkConfig, grid_count: int) -> Window:
    """Raise unless :func:`check_plk_exponent` can run (``ParamError`` for a ``grid_count`` below 1 or, naming
    ``xbar``, a ball past the float range; ``MissingOracleError`` without its oracles); return the ball."""
    check_sample("grid", grid_count, "grid_count")
    entry.need("f", "subgrad")
    try:
        return Window.ball(as_point(xbar, entry.dim_in), cfg.neighborhood_radius)
    except ValueError as exc:
        raise ParamError("xbar", f"the neighborhood ball: {exc}") from None


@dataclass(frozen=True, eq=False, repr=False)
class InverseLipschitzResult:
    c_hat: float
    verdict: str  # "full-rank" | "rank-deficient"
    bound_violations: List[np.ndarray]
    checked: int

    @property
    def full_rank(self) -> bool:
        return self.verdict == "full-rank"


_S_SAMPLES = 25


def certify_inverse_lipschitz(entry: OperatorEntry, k: Window, test_samples: int = 50, tol: float = 1e-8,
                              seed: int = 0, tube_radius: float = 0.1) -> InverseLipschitzResult:
    """Smallest-singular-value certificate for the inverse of a smooth map.

    ``c_hat`` is the minimum singular value of the Jacobian over the first
    ``_S_SAMPLES`` solution-set points that lie in the window.  With full
    rank, ``d(x, S) <= (1 + tol) * ||F(x)|| / c_hat`` is spot-checked on one
    Halton tube of ``test_samples // len(anchors)`` points (at least one) laid
    around each of them, where ``F`` is the entry's forward map (the map whose
    zero set is the solution set and whose Jacobian is registered).
    """
    entry.need("jac")
    if entry.dim_out < entry.dim_in:
        raise ValueError("the range dimension must be at least the domain dimension")
    region = entry.solution_set
    anchors = region.points[k.contains_rows(region.points)][:_S_SAMPLES]
    if not len(anchors):
        raise ValueError("no solution point inside the window")
    # one stacked SVD: LAPACK runs per matrix, so each anchor's values are its own
    jacs = np.stack([np.atleast_2d(entry.jac(u)) for u in anchors])
    c_hat = float(np.linalg.svd(jacs, compute_uv=False)[:, -1].min())
    if c_hat <= tol:
        return InverseLipschitzResult(c_hat, "rank-deficient", [], 0)

    per_anchor = max(1, test_samples // len(anchors))
    tube = sample_window(Window.ball(np.zeros(entry.dim_in), tube_radius), "halton", per_anchor, seed).points
    xs = (anchors[:, None, :] + tube).reshape(-1, entry.dim_in)
    vals, owner = entry.forward.eval_rows(xs)
    if not (np.bincount(owner, minlength=len(xs)) == 1).all():
        raise ValueError("the certificate needs a single-valued forward map")
    violations = list(xs[region.distance_rows(xs) > (1.0 + tol) * _norm_rows(vals.points) / c_hat])
    return InverseLipschitzResult(c_hat, "full-rank", violations, len(xs))


@dataclass(frozen=True, eq=False, repr=False)
class CalmnessResult:
    kappa_hat: float
    vacuous: bool


def calmness_estimate(
    m: SetValuedMap,
    xbar,
    ybar,
    u_radius: float,
    v_radius: float,
    samples: int = 128,
    seed: int = 0,
    scheme: str = "grid",
) -> CalmnessResult:
    """Worst sampled ratio ``d(y, A(xbar)) / ||x - xbar||`` over a local tube.

    Only output values inside the ball of radius ``v_radius`` around ``ybar``
    count, which is exactly the weakness of the calm estimate: if every
    sampled value set misses that ball, the result is flagged vacuous.
    """
    xb = as_point(xbar, m.dim_in)
    yb = as_point(ybar, m.dim_out)
    vwin = Window.ball(yb, v_radius)
    if m.member_dist(xb, yb, vwin) > 1e-9:
        raise ValueError("the base output is not a value of the map at the base point")
    reference = _base_value(m, xb, vwin)
    xs = sample_window(Window.ball(xb, u_radius), scheme, samples, seed).points
    vals, owner = m.eval_rows(xs, vwin)
    # per sample, the excess of its values over the reference
    worst = np.zeros(len(xs))
    np.maximum.at(worst, owner, reference.distance_rows(vals.points))
    dxs = _norm_rows(xs - xb)
    # at dx = 0 the 0/0 convention: the sample contributes nothing
    keep = (np.bincount(owner, minlength=len(xs)) > 0) & (dxs > 0.0)
    ratios = (worst[keep] / dxs[keep]).tolist()
    return CalmnessResult(kappa_hat=max([0.0] + ratios), vacuous=not ratios)
