"""Vietoris-Rips scale, Cech-system decision and Cech-scale bisection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (DEFAULT_TOL, DiskSystem, PoleEngine, center_distances, combination_rows, contains_all_batch,
                       disjoint_pair, gram_rows)


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


def rips_scale(M: DiskSystem) -> float:
    """Vietoris-Rips scale: max over pairs of ||c_i - c_j|| / (r_i + r_j)."""
    return float(np.max(pair_ratios(M.centers, M.radii)[np.triu_indices(len(M), 1)], initial=0.0))


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
    M has a disjoint pair (:func:`disjoint_pair`), which retains no
    candidate: then the decision is FALSE with no degeneracy warning, and
    there is no box."""
    if disjoint_pair(M, tol):
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
    enumeration (:func:`pole_walk`).
    """
    if len(M) == 1:
        return CechDecision(True, witness=M.centers[0].copy(), generating_subset=(0,))
    subset, witness, warn = _first_witness(pole_walk(M, tol))
    if subset is None:
        return CechDecision(False, degeneracy_warning=warn)
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

    The bisection is replayed from :func:`exact_cech_scale` mu: a midpoint
    farther than a tolerance band from mu takes the decision ``mid > mu``
    unwalked, one inside the band is walked, and then the upper end must
    walk TRUE (its witness is reported) and the lower end FALSE.  The walked
    decision is monotone in the scale, so the certified ends vouch for every
    replayed step and the report is that of the bisection that walks every
    step, which runs instead when an end fails.  The warning is the same
    either way: the FALSE walk at nu already visits every subset.
    """
    if not (eta > 0.0 and math.isfinite(eta)):
        raise ValueError(f"eta must be finite and positive, got {eta}")
    nu = rips_scale(M)
    lo = hi = nu
    iterations, warn, witness = 0, False, M.centers[0].copy()
    if nu > 0.0:
        # Rescaling keeps the centers, so one engine serves every walk, and
        # each scale is walked once: the ends and the fallback reuse walks.
        engine = PoleEngine(M.centers, tol=tol)
        walked = {}

        def decide(lam):
            nonlocal warn
            if lam not in walked:
                _, walked[lam], skipped = _first_witness(candidate_poles(engine, rescale(M, lam)))
                warn = warn or skipped
            return walked[lam]

        witness = decide(nu)
        if witness is None:
            top, mu = jung_factor(M.dimension) * nu, exact_cech_scale(M)
            # Containment reaches tol (1 + lam r_i) past each disk, so a walk
            # can turn TRUE up to tol (lam + 1 / min r) below mu, and above mu
            # only by rounding.  On the 119 bisecting systems of
            # tests/test_engine.py walks turn TRUE at most 0.94 of that reach
            # below mu and never FALSE above it; the factor 8 is margin.
            band = 8.0 * tol * (mu + 1.0 / float(M.radii.min()))
            for replay in (True, False):
                lo, hi, iterations = nu, top, 0
                while hi - lo > eta:
                    mid = 0.5 * (lo + hi)
                    if not lo < mid < hi:  # adjacent floats: eta is below their spacing
                        break
                    iterations += 1
                    if (mid > mu) if replay and abs(mid - mu) > band else decide(mid) is not None:
                        hi = mid
                    else:
                        lo = mid
                witness = decide(hi)
                if witness is not None and decide(lo) is None:
                    break
    return ScaleReport(nu, hi, eta, (lo, hi), iterations, witness=witness, degeneracy_warning=warn)


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
    # B^2 and 4AC are fourth powers of length, but the roots are scale-free:
    # dividing by the power of two above the extent (never multiplying, so
    # no center overflows) leaves every later rounding unchanged.
    unit = 2.0 ** max(math.frexp(float(np.ptp(centers, axis=0).max() + radii.max()))[1], 0)
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
        return np.where(valid, np.sqrt(t), np.nan)


def exact_cech_scale(M: DiskSystem) -> float:
    """Exact Cech scale of M: min over x of max_i ||x - c_i|| / r_i.

    The problem is LP-type of combinatorial dimension d+1, so the scale is
    the largest valid :func:`subset_roots` root over the subsets of at most
    d+1 disks; pairs give their Rips ratio, and one disk gives 0.
    """
    scale = rips_scale(M)
    for j in range(3, min(len(M), M.dimension + 1) + 1):
        scale = float(np.fmax.reduce(subset_roots(M.centers, M.radii, combination_rows(len(M), j)), initial=scale))
    return scale
