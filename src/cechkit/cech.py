"""Vietoris-Rips scale, Cech-system decision and Cech-scale bisection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DEFAULT_TOL, DiskSystem, PoleEngine, contains_all_grouped


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
    diff = centers[None, :, :] - centers[:, None, :]
    # plain sqrt-of-sum-of-squares: bit-reproducible by the naive per-pair
    # formula, unlike BLAS-backed np.linalg.norm
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    return dist / (radii[None, :] + radii[:, None])


def rips_scale(M: DiskSystem) -> float:
    """Vietoris-Rips scale: max over pairs of ||c_i - c_j|| / (r_i + r_j)."""
    m = len(M)
    if m == 1:
        return 0.0
    return float(np.max(pair_ratios(M.centers, M.radii)[np.triu_indices(m, 1)]))


def rescale(M: DiskSystem, lam: float) -> DiskSystem:
    """Same centers, radii multiplied by lam > 0 (else GeometryError)."""
    return DiskSystem.from_arrays(M.centers, M.radii * lam)


def _first_witness(engine: PoleEngine, active: np.ndarray, radii: np.ndarray, tol: float):
    """Per active group of ``engine`` with the given (a, k) radii: the first
    candidate, in canonical order, contained in all disks of the group.

    Returns ``(size, row, witness, warn)`` per group: the witness's subset
    is row ``row`` of ``engine.local(size)``, and size 0 marks a group with
    no witness.  The degeneracy warning covers the subsets enumerated up to
    the witness.
    """
    a, d = len(active), engine.dimension
    witness, warn = np.full((a, d), np.nan), np.zeros(a, dtype=bool)
    size, row = np.zeros(a, dtype=np.intp), np.zeros(a, dtype=np.intp)
    # The undecided groups: positions, group numbers, centers and radii.
    todo, centers = np.arange(a), engine.group_centers[active]
    for j in range(1, engine.max_size + 1):
        index, points, jittered = engine.block(j, active, radii)
        if not len(index):
            continue
        count = len(engine.local(j))
        owner = index // count
        hits = np.flatnonzero(contains_all_grouped(centers, radii, points, owner, tol))
        jitter = jittered.any()
        if not hits.size and not jitter:
            continue
        # Candidates are sorted by group: keep each group's first hit.
        rows = hits // points.shape[1]
        first = np.ones(len(rows), dtype=bool)
        first[1:] = owner[rows[1:]] != owner[rows[:-1]]
        hits, rows = hits[first], rows[first]
        groups = owner[rows]
        if jitter:
            # A jittered subset counts up to its group's witness subset.
            limit = np.full(len(todo), len(index))
            limit[groups] = rows
            jit = np.flatnonzero(jittered)
            warn[todo[owner[jit][jit <= limit[owner[jit]]]]] = True
        if not hits.size:
            continue
        won = todo[groups]
        witness[won] = points.reshape(-1, d)[hits]
        size[won], row[won] = j, index[rows] % count
        undecided = np.ones(len(todo), dtype=bool)
        undecided[groups] = False
        if not undecided.any():
            break
        todo, active, centers, radii = todo[undecided], active[undecided], centers[undecided], radii[undecided]
    return size, row, witness, warn


def is_cech_system(M: DiskSystem, tol: float = DEFAULT_TOL) -> CechDecision:
    """Decide whether all disks of M share a common point.

    Enumerates the poles of every i-sphere arising from boundary
    intersections of up to min(m, d+1) disks; the first pole contained in
    all m disks is the witness.  Single-point boundary intersections are
    their own witness candidates.
    """
    if len(M) == 1:
        return CechDecision(True, witness=M.centers[0].copy(), generating_subset=(0,))
    engine = PoleEngine(M.centers, tol=tol)
    size, row, witness, warn = _first_witness(engine, np.zeros(1, dtype=np.intp), M.radii[None], tol)
    if not size[0]:
        return CechDecision(False, degeneracy_warning=bool(warn[0]))
    subset = tuple(int(i) for i in engine.local(size[0])[row[0]])
    return CechDecision(True, witness=witness[0], generating_subset=subset, degeneracy_warning=bool(warn[0]))


def bisect_scales(engine: PoleEngine, radii: np.ndarray, nu: np.ndarray, eta: float, tol: float = DEFAULT_TOL):
    """Bisect the Cech scales of every group of ``engine`` in lockstep.

    ``radii`` (n, k) are the groups' radii and ``nu`` (n,) their Rips
    scales.  A group intersecting at nu stops there (exact for one or two
    disks); the others bisect inside [nu, sqrt(2d/(d+1)) nu] while their
    bracket is wider than eta, one shared decision per step for all of
    them.  Returns ``(lo, hi, iterations, witness, found, warn)`` per group:
    hi is the certified scale, ``witness[i]`` a point of group i's disks
    rescaled to hi (valid where ``found``), and ``warn`` the degeneracy
    warning of every decision made for the group.
    """
    n = len(nu)
    lo, hi = nu.copy(), nu.copy()
    iterations = np.zeros(n, dtype=int)
    warn = np.zeros(n, dtype=bool)
    # nu = 0 (coincident centers): every rescaling intersects.
    found = nu == 0.0
    witness = np.full((n, engine.dimension), np.nan)
    witness[found] = engine.group_centers[found, 0]

    def decide(active, lam):
        size, _, point, jittered = _first_witness(engine, active, radii[active] * lam[:, None], tol)
        hit = size > 0
        warn[active] |= jittered
        witness[active[hit]] = point[hit]
        found[active[hit]] = True
        return hit

    todo = np.flatnonzero(~found)
    miss = todo[~decide(todo, nu[todo])]
    hi[miss] = jung_factor(engine.dimension) * nu[miss]
    active = miss[hi[miss] - lo[miss] > eta]
    while active.size:
        mid = 0.5 * (lo[active] + hi[active])
        hit = decide(active, mid)
        iterations[active] += 1
        hi[active[hit]] = mid[hit]
        lo[active[~hit]] = mid[~hit]
        active = active[hi[active] - lo[active] > eta]
    late = miss[~found[miss]]
    if late.size:
        decide(late, hi[late])
    return lo, hi, iterations, witness, found, warn


def cech_scale(M: DiskSystem, eta: float = 1e-6, tol: float = DEFAULT_TOL) -> ScaleReport:
    """Approximate the Cech scale of M by bisection with precision eta.

    Returns the Rips scale immediately when the nu-rescaled system already
    intersects (exact for one or two disks); otherwise bisects inside
    [nu, sqrt(2d/(d+1)) nu] and returns the upper endpoint, a certified
    scale at which the rescaled system intersects.
    """
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    nu = rips_scale(M)
    # Rescaling keeps the centers, so one engine serves every step.
    engine = PoleEngine(M.centers, tol=tol)
    lo, hi, iterations, witness, found, warn = bisect_scales(engine, M.radii[None], np.array([nu]), eta, tol)
    return ScaleReport(
        nu, float(hi[0]), eta, (float(lo[0]), float(hi[0])), int(iterations[0]),
        witness=witness[0] if found[0] else None,
        degeneracy_warning=bool(warn[0]),
    )
