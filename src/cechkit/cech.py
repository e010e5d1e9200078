"""Vietoris-Rips scale, Cech-system decision and Cech-scale bisection."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (DEFAULT_TOL, DiskSystem, PoleEngine, center_distances, check_tol, combination_rows,
                       contains_all_batch, disjoint_pair, gram_rows, span)


def jung_factor(d: int) -> float:
    """Dimension-dependent bound sqrt(2d/(d+1)) on cech/rips scale ratio."""
    return math.sqrt(2.0 * d / (d + 1.0))


@dataclass(frozen=True)
class CechDecision:
    """Outcome of the Cech-system test.

    ``witness`` is a point contained in every disk (present iff
    ``is_cech``); ``generating_subset`` indexes the disks whose boundary
    sphere produced it.
    """

    is_cech: bool
    witness: np.ndarray | None = None
    generating_subset: tuple[int, ...] | None = None
    degeneracy_warning: bool = False


@dataclass(frozen=True)
class ScaleReport:
    """Rips scale, Cech scale approximation and its bisection bracket."""

    rips_scale: float
    cech_scale: float
    eta: float
    bracket: tuple[float, float]
    iterations: int
    witness: np.ndarray | None = None
    degeneracy_warning: bool = False


def pair_ratios(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """(m, m) matrix of ||c_i - c_j|| / (r_i + r_j)."""
    return center_distances(centers) / (radii[None, :] + radii[:, None])


def _widest_pair(centers: np.ndarray, radii: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest pair ratio ||c_i - c_j|| / (r_i + r_j), 0 for one disk,
    and the index pair i < j attaining it (index 0 alone for one disk)."""
    # The matrix is symmetric bit for bit with a zero diagonal, so its first
    # largest entry lies above the diagonal.
    ratios = pair_ratios(centers, radii)
    i, j = divmod(int(np.argmax(ratios)), len(radii))
    return float(ratios[i, j]), np.array([i, j] if i != j else [i])


def rips_scale(M: DiskSystem) -> float:
    """Vietoris-Rips scale: max over pairs of ||c_i - c_j|| / (r_i + r_j)."""
    return _widest_pair(M.centers, M.radii)[0]


def rescale(M: DiskSystem, lam: float) -> DiskSystem:
    """Same centers, radii multiplied by lam > 0 (else GeometryError)."""
    return DiskSystem.from_arrays(M.centers, M.radii * lam)


def candidate_poles(engine: PoleEngine, M: DiskSystem):
    """Every pole candidate of ``engine``, tested against M (whose centers
    are the engine's).

    Yields one block ``(subsets, index, points, inside, deficient)`` per
    subset size, in canonical order: subset size ascending, subsets
    lexicographic, axes ascending, south before north.  ``subsets`` holds
    all C(m, j) index rows of the size; ``index`` picks the n rows that
    yield candidates, ``points`` (n, 2d, d) are their candidates and
    ``inside`` the flat mask of those contained in every disk of M;
    ``deficient`` marks the rows skipped for their affinely dependent
    centers.  A single-point boundary intersection contributes its point
    for every axis and orientation.  Subset size is capped at min(m, d+1):
    larger boundary intersections are generically empty and Helly's
    theorem covers decision completeness.
    """
    d = engine.dimension
    for j in range(1, engine.max_size + 1):
        index, points, deficient = engine.block(j, M.radii)
        inside = contains_all_batch(M, points.reshape(-1, d), engine.tol)
        yield engine.subsets(j), index, points, inside, deficient


def pole_walk(M: DiskSystem, tol: float = DEFAULT_TOL):
    """The :func:`candidate_poles` blocks of M on a new engine, or none when
    M has a disjoint pair (:func:`disjoint_pair`) or is certified empty
    (:func:`certified_empty`): then no candidate would be retained, the
    decision is FALSE and there is no box."""
    check_tol(tol)
    if disjoint_pair(M, tol) or certified_empty(M, tol):
        return ()
    return candidate_poles(PoleEngine(M.centers, tol=tol), M)


def _first_witness(blocks):
    """The first candidate of :func:`candidate_poles` blocks, in canonical
    order, contained in every disk.

    Returns ``(subset, witness, warn)``, with subset and witness None when
    there is none.  ``warn`` says that a subset with affinely dependent
    centers was skipped before the witness, or anywhere when there is none.
    """
    warn = False
    for subsets, index, points, inside, deficient in blocks:
        hits = np.flatnonzero(inside)
        if hits.size:
            _, width, d = points.shape
            row = index[hits[0] // width]
            return subsets[row], points.reshape(-1, d)[hits[0]].copy(), warn or bool(deficient[:row].any())
        warn = warn or bool(deficient.any())
    return None, None, warn


def is_cech_system(M: DiskSystem, tol: float = DEFAULT_TOL) -> CechDecision:
    """Decide whether all disks of M share a common point.

    Enumerates the poles of every i-sphere arising from boundary
    intersections of up to min(m, d+1) disks; the first pole contained in
    all m disks is the witness.  Single-point boundary intersections are
    their own witness candidates.  A disjoint pair decides FALSE before any
    enumeration, with no warning.  So does a certificate
    (:func:`certified_empty`), whose warning is the one the full FALSE walk
    gives: whether some subset of up to d+1 disks has dependent centers.
    """
    check_tol(tol)
    if len(M) == 1:
        return CechDecision(True, witness=M.centers[0].copy(), generating_subset=(0,))
    if disjoint_pair(M, tol):
        return CechDecision(False)
    engine = PoleEngine(M.centers, tol=tol)
    subset, witness, warn = _first_witness(() if certified_empty(M, tol) else candidate_poles(engine, M))
    if subset is None:
        return CechDecision(False, degeneracy_warning=engine.dependent())
    return CechDecision(True, witness=witness, generating_subset=tuple(int(i) for i in subset), degeneracy_warning=warn)


def cech_scale(M: DiskSystem, eta: float = 1e-6, tol: float = DEFAULT_TOL) -> ScaleReport:
    """Approximate the Cech scale of M by bisection with precision eta.

    Returns the Rips scale nu when the nu-rescaled system already
    intersects (exact for one or two disks, and for coincident centers,
    where nu = 0); otherwise the bracket [nu, sqrt(2d/(d+1)) nu] is halved
    while it is wider than eta and has a float strictly inside, and the
    upper endpoint is returned: a certified scale at which the rescaled
    system intersects, with ``witness`` a point of it.  The degeneracy
    warning covers every decision made.

    The bisection is replayed from the exact scale mu of :func:`cech_basis`:
    a midpoint above mu is answered TRUE unwalked, and any other is decided,
    FALSE unwalked when the basis of mu certifies it (:func:`dual_bound`).
    The upper end must then walk TRUE; decisions are monotone in the scale,
    so it vouches for every replayed step and the report is that of the
    bisection that decides every step, which runs instead when it fails.
    Once nu is FALSE the warning is whether some subset has dependent
    centers: a FALSE walk visits them all, any other walk only some.
    """
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ValueError(f"eta must be finite and positive, got {eta}")
    check_tol(tol)
    nu = rips_scale(M)
    lo = hi = nu
    iterations, warn, witness = 0, False, M.centers[0].copy()
    if nu > 0.0:
        # Rescaling keeps the centers, so one engine serves every walk; each
        # scale is decided once, and the upper end and second pass reuse it.
        engine = PoleEngine(M.centers, tol=tol)
        mu, basis, weights = cech_basis(M)
        certifies = dual_bound(M, basis, weights, tol)

        @functools.cache
        def decide(lam):
            return _first_witness(() if certifies(lam) else candidate_poles(engine, rescale(M, lam)))

        _, witness, warn = decide(nu)
        if witness is None:
            warn = engine.dependent()
            for replay in (True, False):
                lo, hi, iterations = nu, jung_factor(M.dimension) * nu, 0
                while hi - lo > eta:
                    mid = 0.5 * (lo + hi)
                    if not lo < mid < hi:  # adjacent floats: eta is below their spacing
                        break
                    iterations += 1
                    if (replay and mid > mu) or decide(mid)[1] is not None:
                        hi = mid
                    else:
                        lo = mid
                witness = decide(hi)[1]
                if witness is not None:
                    break
    return ScaleReport(nu, hi, eta, (lo, hi), iterations, witness=witness, degeneracy_warning=warn)


# Rounds of basis pivoting in certified_empty: 419 seeded systems (d 2-4,
# m 3-29), each rescaled to Cech scale 1 + eps for eps = 1e-8, 1e-6, 1e-3
# and 0.1, all certified within 6 rounds.
CERTIFY_ROUNDS = 8


def dual_bound(M: DiskSystem, basis: np.ndarray, weights: np.ndarray, tol: float = DEFAULT_TOL):
    """The test ``certifies(lam)``: whether the disks ``basis`` of M,
    weighted by ``weights`` >= 0, prove that no point passes
    :func:`contains_all_batch` on ``rescale(M, lam)``, so that a walk of it
    would retain no candidate.  The terms free of lam are computed here,
    once per basis.

    Let u = 2^-53.  Rescaling keeps the centers and makes the radii
    x_i = fl(lam r_i) <= lam r_i (1 + u), and the containment test accepts
    p for disk i when fl(||p - c_i||) <= fl(x_i + fl(tol x_i)).  The right
    side is at most lam r_i (1 + tol) (1 + u)^3, and the left side at least
    ||p - c_i|| (1 - u)^((d + 4) / 2) (the differences, their squares,
    d - 1 additions and the square root).  So every accepted p has, for
    every disk i,

        ||p - c_i|| / r_i <= rho g,  rho = lam (1 + tol),
        g = (1 + u)^3 / (1 - u)^((d + 4) / 2).

    Let b = weights / sum(weights), R = sum b_i r_i^2 and x* = sum b_i c_i,
    the minimiser of sum b_i ||x - c_i||^2.  Then alpha_i = b_i r_i^2 / R
    are convex weights, and for any point p

        max_i ||p - c_i||^2 / r_i^2 >= sum alpha_i ||p - c_i||^2 / r_i^2
                                   >= N / R,  N = sum b_i ||x* - c_i||^2,

    so N > rho^2 g^2 R leaves no accepted p.  The test evaluates N and R on
    the basis divided by the power of two above its extent (exact) and
    centred on its last member.  The absolute margin (d + 4) 2^-48 D^2
    taken off N, with D the largest centred center norm, holds the rounding
    of the centring (at most 2 u D^2), of x* (second order) and of N itself
    (at most 4 (2d + 4) u D^2).  The test takes rho times F = 1 + 1e-12 +
    (d + 14) u.  Computing rho rounds three times (tol lam, the sum and
    the product with F), its square and the product with R-hat twice, and
    R-hat is at least R (1 - u)^(d + 2) (squares, products and at most d
    additions); the test thus implies N > rho^2 R F-hat^2 (1 - u)^(d + 10),
    which is at least rho^2 g^2 R when F-hat >= 1 + (d + 10) u to first
    order.  F's own rounding costs 2 u, and the last 2 u of its (d + 14) u
    hold the second-order terms.  Its 1e-12 is the factor of the
    disjoint-pair exit, so a pair basis certifies no sooner than that exit.

    N / R is at most the squared Cech scale mu^2 of the basis, and equal to
    it for the barycentric coordinates of the basis's minimax point (the KKT
    multipliers alpha of min_x max_i ||x - c_i||^2 / r_i^2, divided by
    r_i^2): then the bound certifies whenever mu exceeds rho by the margins.
    """
    d = M.dimension
    centers, radii = M.centers[basis], M.radii[basis]
    unit = 2.0 ** math.frexp(span(centers, radii))[1]
    centers = centers / unit
    centers = centers - centers[-1]
    b = weights / weights.sum()
    mean = b @ centers
    spread = float(b @ np.sum((mean - centers) ** 2, axis=1) - (d + 4) * 2.0**-48 * np.max(np.sum(centers**2, axis=1)))
    power, factor = float(b @ (radii / unit) ** 2), 1.0 + 1e-12 + (d + 14) * 2.0**-53

    def certifies(lam: float) -> bool:
        rho = (lam + tol * lam) * factor
        return spread > rho * rho * power

    return certifies


def certified_empty(M: DiskSystem, tol: float = DEFAULT_TOL) -> bool:
    """Whether :func:`dual_bound` proves, at M's own scale, that no
    point passes containment in every disk of M.

    By Jung's bound the Cech scale is at most sqrt(2d/(d+1)) nu, so when
    that is at most 1 nothing can be certified and no search runs.
    Otherwise the search starts from the pair attaining nu; each round takes
    the :func:`cech_basis` of its at most d+2 disks, tests its bound, and
    adds to the basis the disk farthest, relative to its radius, from the
    basis's minimax point.  It stops when a bound certifies, when no disk
    lies farther than the basis's own scale (then the basis is M's and its
    bound has failed), or after CERTIFY_ROUNDS rounds.
    """
    nu, members = _widest_pair(M.centers, M.radii)
    if jung_factor(M.dimension) * nu <= 1.0:
        return False
    for _ in range(CERTIFY_ROUNDS):
        scale, basis, weights = cech_basis(M, members)
        if dual_bound(M, basis, weights, tol)(1.0):
            return True
        point = weights @ M.centers[basis] / weights.sum()
        ratios = np.sqrt(np.sum((M.centers - point) ** 2, axis=1)) / M.radii
        far = int(np.argmax(ratios))
        if not ratios[far] > scale or far in basis:
            return False
        members = np.append(basis, far)
    return False


def _meets(centers: np.ndarray, radii: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`subset_roots` of an (N, j) index array, and the barycentric
    coordinates of each first-meet point on the first j-1 centers of its
    row (the last center takes the rest)."""
    # B^2 and 4AC are fourth powers of length, but the roots are scale-free:
    # dividing by the power of two above the extent (never multiplying, so
    # no center overflows) leaves every later rounding unchanged.
    unit = 2.0 ** max(math.frexp(span(centers, radii))[1], 0)
    centers, radii = centers / unit, radii / unit
    members, normals, gram, full = gram_rows(centers, rows)
    sq = radii[rows] ** 2
    # Columns: the constant part and the t-coefficient of the right-hand side.
    rhs = 0.5 * np.stack([np.sum(normals**2, axis=2), sq[:, -1:] - sq[:, :-1]], axis=2)
    coef = np.linalg.solve(gram, rhs)
    u, v = (coef.transpose(0, 2, 1) @ normals).transpose(1, 0, 2)
    A, C = np.sum(v * v, axis=1), np.sum(u * u, axis=1)
    B = sq[:, -1] - 2.0 * np.sum(u * v, axis=1)
    disc = B * B - 4.0 * A * C
    with np.errstate(invalid="ignore", divide="ignore"):
        # Cancellation-free smaller root; A = 0 (equal radii) gives C / B.
        t = 2.0 * C / (B + np.sqrt(disc))
        bary = coef[..., 0] + t[:, None] * coef[..., 1]
        valid = full & (disc >= 0.0) & (B > 0.0) & (bary >= 0.0).all(axis=1) & (bary.sum(axis=1) <= 1.0)
        return np.where(valid, np.sqrt(t), np.nan), bary


def subset_roots(centers: np.ndarray, radii: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Closed-form Cech scale of each disk subset of an (N, j) index array.

    With t = lambda^2 the Gram right-hand side of a subset T is affine in t,
    so the center of its rescaled boundary spheres is p(t) = c + u + t v
    and their squared radius r^2(t) = -A t^2 + B t - C is a concave
    quadratic.  Its smaller root t_T is where the spheres first meet, in
    one point.  When that point lies in the convex hull of T's centers
    (barycentric coordinates >= 0, the KKT condition of
    min_x max_i ||x - c_i|| / r_i) sqrt(t_T) is T's Cech scale; the
    result is NaN otherwise, and for affinely dependent centers, where a
    proper subset carries the scale.
    """
    return _meets(centers, radii, rows)[0]


def cech_basis(M: DiskSystem, members: np.ndarray | None = None) -> tuple[float, np.ndarray, np.ndarray]:
    """Exact Cech scale of the disks ``members`` of M (default all), with a
    basis that attains it.

    The problem min_x max_i ||x - c_i|| / r_i is LP-type of combinatorial
    dimension d+1, so the scale is the largest valid :func:`subset_roots`
    root over the subsets of at most d+1 members; pairs give their Rips
    ratio, and one disk gives 0.  Returns ``(scale, basis, weights)``: the
    indices into M of the subset attaining it, and the barycentric
    coordinates, on its centers, of its minimax point.
    """
    members = np.arange(len(M)) if members is None else members
    scale, pair = _widest_pair(M.centers[members], M.radii[members])
    basis = members[pair]
    weights = M.radii[basis[::-1]] / M.radii[basis].sum()  # the pair's touching point
    for j in range(3, min(len(members), M.dimension + 1) + 1):
        rows = members[combination_rows(len(members), j)]
        roots, bary = _meets(M.centers, M.radii, rows)
        best = int(np.argmax(np.fmax(roots, -np.inf)))
        if roots[best] > scale:
            scale, basis = float(roots[best]), rows[best]
            weights = np.append(bary[best], 1.0 - bary[best].sum())
    return scale, basis, weights


def exact_cech_scale(M: DiskSystem) -> float:
    """Exact Cech scale of M: min over x of max_i ||x - c_i|| / r_i
    (:func:`cech_basis`)."""
    return cech_basis(M)[0]
