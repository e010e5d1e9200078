"""Vietoris-Rips scale, Cech-system decision and Cech-scale bisection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    DEFAULT_TOL,
    DiskSystem,
    PoleEngine,
    candidate_poles,
    contains_all_batch,
)


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


def rips_scale(M: DiskSystem) -> float:
    """Vietoris-Rips scale: max over pairs of ||c_i - c_j|| / (r_i + r_j)."""
    m = len(M)
    if m == 1:
        return 0.0
    best = 0.0
    for i in range(m - 1):
        diff = M.centers[i + 1 :] - M.centers[i]
        # plain sqrt-of-sum-of-squares: bit-reproducible by the naive
        # per-pair formula, unlike BLAS-backed np.linalg.norm
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        ratio = dist / (M.radii[i + 1 :] + M.radii[i])
        best = max(best, float(np.max(ratio)))
    return best


def rescale(M: DiskSystem, lam: float) -> DiskSystem:
    """Same centers, radii multiplied by lam > 0 (else GeometryError)."""
    return DiskSystem.from_arrays(M.centers, M.radii * lam)


def _first_witness(M: DiskSystem, blocks, tol: float) -> CechDecision:
    """The first candidate of ``blocks`` contained in all disks of M, if any.

    The degeneracy warning covers the subsets enumerated up to the witness.
    """
    warn = False
    for subsets, points, jittered in blocks:
        if not len(subsets):
            continue
        flat = points.reshape(-1, M.dimension)
        hit = np.flatnonzero(contains_all_batch(M, flat, tol))
        if hit.size:
            s = int(hit[0]) // points.shape[1]
            return CechDecision(
                True,
                witness=flat[hit[0]].copy(),
                generating_subset=tuple(int(i) for i in subsets[s]),
                degeneracy_warning=warn or bool(jittered[: s + 1].any()),
            )
        warn = warn or bool(jittered.any())
    return CechDecision(False, degeneracy_warning=warn)


def is_cech_system(M: DiskSystem, tol: float = DEFAULT_TOL) -> CechDecision:
    """Decide whether all disks of M share a common point.

    Enumerates the poles of every i-sphere arising from boundary
    intersections of up to min(m, d+1) disks; the first pole contained in
    all m disks is the witness.  Single-point boundary intersections are
    their own witness candidates.
    """
    if len(M) == 1:
        return CechDecision(True, witness=M.centers[0].copy(), generating_subset=(0,))
    return _first_witness(M, candidate_poles(M, tol), tol)


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
    if nu == 0.0:
        # Single disk or coincident centers: every rescaling intersects.
        return ScaleReport(0.0, 0.0, eta, (0.0, 0.0), 0, witness=M.centers[0].copy())
    # Rescaling keeps the centers, so one engine serves every step.
    engine = PoleEngine(M.centers, tol)

    def decide(lam: float) -> CechDecision:
        scaled = rescale(M, lam)
        return _first_witness(scaled, engine.blocks(scaled), tol)

    decision = decide(nu)
    if decision.is_cech:
        return ScaleReport(
            nu, nu, eta, (nu, nu), 0,
            witness=decision.witness,
            degeneracy_warning=decision.degeneracy_warning,
        )
    lo, hi = nu, jung_factor(M.dimension) * nu
    witness = None
    warn = decision.degeneracy_warning
    iterations = 0
    while hi - lo > eta:
        mid = 0.5 * (lo + hi)
        decision = decide(mid)
        warn = warn or decision.degeneracy_warning
        iterations += 1
        if decision.is_cech:
            hi = mid
            witness = decision.witness
        else:
            lo = mid
    if witness is None:
        decision = decide(hi)
        warn = warn or decision.degeneracy_warning
        witness = decision.witness
    return ScaleReport(nu, hi, eta, (lo, hi), iterations, witness=witness, degeneracy_warning=warn)
