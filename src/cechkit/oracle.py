"""Brute-force ground truth for intersection decisions, scales and AABBs.

Test-suite oracle only, never used by the production algorithms and
written without them: from cechkit it takes only the DiskSystem and Box
containers.  Intended for d <= 3.

:func:`oracle_minimax` brackets the minimax value min_x max_i ||x - c_i|| / r_i
between the objective at a point, an upper bound, and a Lagrange dual
value, a lower bound, so its slack is a certified duality gap.
:func:`oracle_aabb` bisects each box end on hyperplane slices, each a
system of d - 1 dimensions that :func:`oracle_minimax` decides.  Its grids
are products of axes, and its objective sums the squared distances to the
centers axis by axis (:func:`_squared_distances`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .aabb import Box
from .geometry import DiskSystem

# Dual terms below this are dropped: above it, a subnormal rounding moves a
# sum of at most (d + 1)^2 terms by less than 2^-100 of itself.
TINY = 2.0**-960
UNIT_ROUNDOFF = 2.0**-53


@dataclass(frozen=True)
class OracleConfig:
    initial_grid: int = 16
    refinement_rounds: int = 6

    def __post_init__(self):
        if self.initial_grid < 2 or self.refinement_rounds < 1:
            raise ValueError("oracle config values must be positive (grid >= 2, rounds >= 1)")


# oracle_aabb bisects each box end to a bracket of this fraction of the
# span (the largest per-axis spread of the centers plus the largest radius).
AABB_STOP = 1e-9


class MinimaxResult(NamedTuple):
    value: float
    point: np.ndarray
    slack: float
    history: tuple[float, ...]


def _grid_refine(objective, lower, upper, cfg: OracleConfig, lipschitz: float):
    """Minimize a convex Lipschitz objective over a box by grid refinement.

    objective maps the k >= 1 axes of a round's grid, as the open mesh
    ``np.ix_(*axes)``, to the (n,) * k grid of values in C order.  Each round
    the window shrinks to the bounding box of the grid points whose value is
    within half a Lipschitz cell diagonal of the round minimum; for a convex
    objective that box is certified to contain the true minimizer, so the
    final value is within lipschitz * ||final step|| / 2 of the minimum.
    Returns (best value, best point, final per-axis step, per-round best values).
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = cfg.initial_grid
    best_value = math.inf
    best_point = 0.5 * (lower + upper)
    history = []
    lo, hi = lower.copy(), upper.copy()
    step = (hi - lo) / max(n - 1, 1)
    while True:
        axes = [np.linspace(a, b, n) for a, b in zip(lo, hi)]
        values = objective(np.ix_(*axes))
        idx = np.unravel_index(int(np.argmin(values)), values.shape)
        if values[idx] < best_value:
            best_value = float(values[idx])
            best_point = np.array([axis[i] for axis, i in zip(axes, idx)])
        history.append(best_value)
        if len(history) == cfg.refinement_rounds:
            break
        # The true minimizer is within half a cell diagonal of its nearest
        # grid point, so the sublevel set below min + L*halfdiag contains it.
        margin = 0.5 * lipschitz * float(np.linalg.norm(step))
        near = np.nonzero(values <= float(values[idx]) + margin)
        new_lo = np.maximum([axis[i].min() for axis, i in zip(axes, near)] - step, lo)
        new_hi = np.minimum([axis[i].max() for axis, i in zip(axes, near)] + step, hi)
        floor = (hi - lo) / 4.0  # cap the per-round shrink
        mid = 0.5 * (new_lo + new_hi)
        new_lo = np.minimum(new_lo, mid - 0.5 * floor)
        new_hi = np.maximum(new_hi, mid + 0.5 * floor)
        lo, hi = np.maximum(new_lo, lower), np.minimum(new_hi, upper)
        step = (hi - lo) / max(n - 1, 1)
    return best_value, best_point, step, tuple(history)


def _squared_distances(coords, centers):
    """sum_q (x_q - c_iq)^2 for coordinate arrays x_q that broadcast together
    (a grid's open mesh, or a point list's columns), disks on the last axis.
    A grid costs one (m, n) term per axis, added in axis order: for d <= 7 the
    order in which np.sum adds a point's coordinates, bit for bit.  The disks
    run first in memory, where a max over them is an elementwise reduction.
    """
    total = sum(np.subtract.outer(centers[:, q], x) ** 2 for q, x in enumerate(coords))
    return total.transpose(*range(1, total.ndim), 0)


def _equal_ratio_points(centers, radii, subsets, unit):
    """Candidate minimax points of the subsystems ``subsets`` (n, k), k >= 2.

    For each row S, the points x of the affine hull of S's centers where
    every disk of S has one ratio ||x - c_i|| / r_i = sqrt(t).  With
    x = c_0 + sum_j y_j (c_j - c_0), the differences of the squared
    equations are linear, G y = (b - t delta) / 2, and the first equation is
    then a quadratic in t.  A pair's roots, t = D^2 / (r_0 +- r_1)^2 at
    y = r_0 / (r_0 +- r_1), are taken in closed form, since the quadratic's
    discriminant cancels when the radii differ widely.  Lengths are in
    ``unit``, a power of two.  Returns the points, their barycentric weights
    (1 - sum y, y), which at the minimax point of S are its KKT multipliers
    over r_i^2, and the rows of ``subsets`` they belong to: one or two per
    subset with affinely independent centers, none for the others.
    """
    origin = centers[subsets[:, 0]]
    a = (centers[subsets[:, 1:]] - origin[:, None, :]) / unit
    rho = radii[subsets] / unit
    gram = a @ a.transpose(0, 2, 1)
    diagonal = np.diagonal(gram, axis1=1, axis2=2)
    (rows,) = np.nonzero(np.linalg.det(gram) > 1e-12 * np.prod(diagonal, axis=1))
    a, rho = a[rows], rho[rows]
    if subsets.shape[1] == 2:
        # Two roots per row, of weights (+-r_1, r_0) / (r_0 +- r_1).
        r0, r1 = np.broadcast_arrays(rho[:, :1], [1.0, -1.0] * rho[:, 1:])
        weights = (np.stack([r1, r0], axis=2) / (r0 + r1)[:, :, None]).reshape(-1, 2)
        roots = np.repeat(rows, 2)
        valid = np.all(np.isfinite(weights), axis=1)  # equal radii have one root
        weights, roots = weights[valid], roots[valid]
        # x = c_0 + w_1 (c_1 - c_0) = c_1 + w_0 (c_0 - c_1): start from the
        # center of the larger weight, which x lies nearer.
        index = np.arange(len(roots))
        near = (np.abs(weights[:, 1]) > np.abs(weights[:, 0])).astype(int)
        ends = centers[subsets[roots]]
        base, far = ends[index, near], ends[index, 1 - near]
        return base + weights[index, 1 - near][:, None] * (far - base), weights, roots
    rho2 = rho * rho
    rhs = 0.5 * np.stack([np.sum(a * a, axis=2), rho2[:, 1:] - rho2[:, :1]], axis=2)
    y = np.linalg.solve(gram[rows], rhs)  # (n', k - 1, 2): y = y0 - t y1
    u = y.transpose(0, 2, 1) @ a
    u0, u1 = u[:, 0], u[:, 1]
    qa, qc = np.sum(u1 * u1, axis=1), np.sum(u0 * u0, axis=1)
    qb = 2.0 * np.sum(u0 * u1, axis=1) + rho2[:, 0]
    q = 0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * qc, 0.0)), qb))
    t = np.stack([q / qa, qc / q], axis=1).ravel()  # both roots of qa t^2 - qb t + qc
    roots = np.repeat(np.arange(len(rows)), 2)
    valid = np.isfinite(t) & (t >= 0.0)
    t, roots = t[valid], roots[valid]
    coords = y[roots, :, 0] - t[:, None] * y[roots, :, 1]
    weights = np.concatenate([1.0 - np.sum(coords, axis=1, keepdims=True), coords], axis=1)
    points = origin[rows[roots]] + unit * (u0[roots] - t[:, None] * u1[roots])
    return points, weights, rows[roots]


def _dual_bound(centers, radii, subsets, weights, unit):
    """The largest sqrt(h) over the rows, before the rounding margin.

    For weights w >= 0 on the disks of a row S, let alpha_i = w_i r_i^2.
    Weak duality: at the minimiser x*, ||x* - c_i||^2 <= mu^2 r_i^2, so
        h = min_x sum alpha_i ||x - c_i||^2 / r_i^2 <= mu^2 sum alpha_i,
    and the minimum over x is the weighted variance of the centers,
        sum_{i<j} w_i w_j ||c_i - c_j||^2 / sum w_i.
    So mu^2 >= sum_{i<j} w_i w_j D_ij / (sum w_i  sum w_i r_i^2), a ratio of
    sums of nonnegative terms.  Any weights give a bound: negative ones are
    cut to 0 and each row is divided by its largest weight, so no term
    overflows; a row without a positive weight gives NaN and drops out.
    Lengths are in ``unit``.
    """
    w = np.maximum(weights, 0.0)
    w = w / np.max(w, axis=1, keepdims=True)
    chosen = centers[subsets]
    diff = (chosen[:, :, None, :] - chosen[:, None, :, :]) / unit
    numerator = np.sum(w[:, :, None] * w[:, None, :] * np.sum(diff * diff, axis=3), axis=(1, 2))
    denominator = 2.0 * np.sum(w, axis=1) * np.sum(w * (radii[subsets] / unit) ** 2, axis=1)
    usable = (numerator > TINY) & (denominator > TINY)
    return math.sqrt(float(np.max(numerator[usable] / denominator[usable], initial=0.0)))


def _polish(objective, centers, radii, point, unit):
    """Active-set polish of ``point``: the equal-ratio points of every subset
    of 2 to d + 1 of the d + 2 disks with the largest ratios at ``point``
    (at the minimum, which is positive here, at least two disks are
    active).  ``objective`` takes coordinate arrays, as on the grid.
    Returns the value and the point of the best of ``point`` and the
    candidates, and the largest dual bound of their weights."""
    m, d = centers.shape
    ratios = np.linalg.norm(point - centers, axis=1) / radii
    top = np.sort(np.argsort(ratios, kind="stable")[max(m - d - 2, 0):])
    lower, upper = centers.min(axis=0), centers.max(axis=0)
    value = float(objective(point[:, None])[0])
    bound = 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for size in range(2, min(len(top), d + 1) + 1):
            subsets = np.array(list(combinations(top, size)))
            points, weights, rows = _equal_ratio_points(centers, radii, subsets, unit)
            bound = max(bound, _dual_bound(centers, radii, subsets[rows], weights, unit))
            # The minimiser lies in the centers' box, and moving a point into
            # that box brings it nearer to every center.
            points = np.clip(points[np.all(np.isfinite(points), axis=1)], lower, upper)
            if len(points):
                values = objective(points.T)
                best = int(np.argmin(values))
                if values[best] < value:
                    value, point = float(values[best]), points[best]
    return value, point, bound


def oracle_minimax(M: DiskSystem, cfg: OracleConfig | None = None) -> MinimaxResult:
    """min over x of max_i ||x - c_i|| / r_i, with a certified error bound.

    The objective f is convex and its minimiser lies in the centers'
    bounding box.  A coarse grid refinement over that box finds a start,
    an active-set polish (:func:`_polish`) improves it, and ``value`` is f at
    the returned ``point``: an upper bound U.  ``slack`` is U - L for a lower
    bound L, the larger of the grid's Lipschitz bound (grid value minus
    max_i 1/r_i times half the final cell diagonal) and the Lagrange dual
    bound of the polish's multipliers (:func:`_dual_bound`) less a rounding
    margin; so value - slack <= minimum <= value + slack, and the slack is
    never wider than the grid's alone.  ``history`` is the grid's per-round
    values followed by ``value``.
    """
    cfg = cfg or OracleConfig()
    centers, radii = M.centers, M.radii

    def objective(coords):
        return np.max(np.sqrt(_squared_distances(coords, centers)) / radii, axis=-1)

    lower = centers.min(axis=0)
    upper = centers.max(axis=0)
    if np.all(upper - lower == 0.0):
        point = centers[0].copy()
        value = float(objective(point[:, None])[0])
        return MinimaxResult(value, point, 0.0, (value,))
    lipschitz = float(np.max(1.0 / radii))
    value, point, step, history = _grid_refine(objective, lower, upper, cfg, lipschitz)
    grid_bound = value - 0.5 * lipschitz * float(np.linalg.norm(step))
    # A power of two at least the system's extent: dividing by it is exact,
    # keeps every squared length of the polish and the bound below d, and
    # scales with the system.
    unit = math.ldexp(1.0, math.frexp(float(np.max(upper - lower) + np.max(radii)))[1])
    value, point, dual = _polish(objective, centers, radii, point, unit)
    # Rounding margin, with u = 2^-53 and rel(z) the relative error of a
    # computed z.  Every operation rounds with a factor 1 + delta, |delta| <= u,
    # and a sum of n nonnegative terms in any order gains at most (n - 1) u.
    # - Dual bound of a row of k <= d + 1 disks: c_i - c_j rounds once (its
    #   square twice), the square once, the d-term sum d - 1 times, then
    #   w_i w_j and the product with D_ij twice, the k^2-term sum k^2 - 1
    #   times; sum w is k - 1 roundings, sum w rho^2 is k + 1, their product
    #   and the quotient one each.  So rel(L^2) <= n u with
    #   n = d + k^2 + 2k + 5 <= d^2 + 5d + 8 (k = d + 1), and the square root
    #   adds one more: rel(L) <= (n / 2 + 1) u.  Division by ``unit`` is exact
    #   (TINY bounds what underflow can move).
    # - The value: x - c_i, its square, the d-term sum, the square root and
    #   the division by r_i give rel(f) <= ((d + 2) / 2 + 2) u = (d + 6) u / 2.
    # Then L - margin <= mu follows from rel(L), and mu <= U + slack needs
    # 2 rel(f) U more, as mu <= f(x) <= U (1 + rel(f)).  The factor 2 covers
    # the second-order terms and the rounding of U - L.  The grid's bound is
    # taken as computed, so the slack is never wider than the grid's alone;
    # it is within rounding of mu only where f rises at the Lipschitz rate
    # all the way from the minimiser to a grid point half a cell diagonal
    # away, as on the symmetric collinear systems of the tests.
    d = M.dimension
    margin = 2.0 * ((d * d + 5 * d + 8) / 2 + 1 + (d + 6)) * UNIT_ROUNDOFF * max(value, dual)
    lower_bound = min(max(grid_bound, dual - margin), value)
    return MinimaxResult(value, point, value - lower_bound, (*history, value))


def oracle_intersects(M: DiskSystem, cfg: OracleConfig | None = None) -> bool:
    """True iff the minimax value is at most 1 + slack.

    The slack is a certified duality gap, so the true minimax value lies
    within it of ``value``: callers should treat |value - 1| <= slack as
    indeterminate (use :func:`oracle_minimax` directly to read the band).
    """
    result = oracle_minimax(M, cfg)
    return result.value <= 1.0 + result.slack


def _slice_meets(centers, radii, q: int, t: float, cfg: OracleConfig | None) -> int:
    """Whether the hyperplane x_q = t meets the intersection of the disks:
    1 when it does, -1 when it does not, 0 when :func:`oracle_minimax`
    cannot tell within its slack.

    The hyperplane cuts disk i in a (d - 1)-disk about c_i without its
    coordinate q, of squared radius r_i^2 - (t - c_iq)^2; it meets the
    intersection iff every cut is non-empty and the cuts meet.
    """
    rho2 = radii**2 - (t - centers[:, q]) ** 2
    if np.min(rho2) <= 0.0:
        return -1
    if centers.shape[1] == 1:
        return 1
    result = oracle_minimax(DiskSystem.from_arrays(np.delete(centers, q, axis=1), np.sqrt(rho2)), cfg)
    if result.value + result.slack < 1.0:
        return 1
    return -1 if result.value - result.slack > 1.0 else 0


def oracle_aabb(M: DiskSystem, cfg: OracleConfig | None = None) -> Box | None:
    """Per-axis extremes of the intersection by bisection on slice decisions.

    :func:`oracle_minimax` of M decides first: None when its band lies
    above 1, and the single-point box at its point when the band holds 1,
    where M is tangent to within the slack.  Otherwise that point lies
    inside every disk, and each end of each axis is bisected between the
    point's coordinate, whose slice meets, and the end of the disks'
    common extent on that axis, by :func:`_slice_meets`, until the bracket
    is at most ``AABB_STOP`` times the span wide, its midpoint rounds to one
    of its ends, or a slice is undecided.  Each end is its bracket's meeting
    side, so the box lies inside the intersection's, by at most the stop
    width where neither of the last two happened.  Lengths are in a power
    of two at least the span, so no slice system underflows and scaling M
    by 2^k scales the box bit for bit.  ``cfg`` goes to every
    oracle_minimax call.
    """
    start = oracle_minimax(M, cfg)
    if start.value - start.slack > 1.0:
        return None
    if abs(start.value - 1.0) <= start.slack:
        return Box(np.stack([start.point, start.point], axis=1))
    extent = float(np.max(np.ptp(M.centers, axis=0)) + np.max(M.radii))
    unit = math.ldexp(1.0, math.frexp(extent)[1])
    centers, radii = M.centers / unit, M.radii / unit
    width = AABB_STOP * extent / unit
    intervals = np.empty((M.dimension, 2))
    for q in range(M.dimension):
        ends = (np.max(centers[:, q] - radii), np.min(centers[:, q] + radii))
        for side, end in enumerate(ends):
            inside, outside = start.point[q] / unit, float(end)
            while abs(outside - inside) > width:
                mid = 0.5 * (inside + outside)
                verdict = _slice_meets(centers, radii, q, mid, cfg) if inside != mid != outside else 0
                if verdict == 0:
                    break
                if verdict > 0:
                    inside = mid
                else:
                    outside = mid
            intervals[q, side] = inside * unit
    return Box(intervals)
