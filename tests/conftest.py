"""Shared fixtures and random-system helpers for the test suite."""

import math

import numpy as np
import pytest

from cechkit import DEFAULT_TOL, DiskSystem, cech_scale, rescale, rips_scale

SQRT2 = math.sqrt(2.0)

# Rescalings relative to the Rips scale: below it a pair is disjoint, at
# the Jung factor (at most 1.225) every system intersects.
FACTORS = (0.95, 1.05, 1.15, 1.3)

# Systems with affinely dependent subsets or pairs whose normal is a
# coordinate axis (a degenerate axis).  The "shared" triples have
# boundaries through one circle (two points in 2-D).
DEGENERATE = {
    "collinear-2d-axis": ([[0, 0], [1, 0], [2, 0]], [1.0, 1.0, 1.0]),
    "collinear-2d-shared": ([[0, 0], [1, 0], [2, 0]], [SQRT2, 1.0, SQRT2]),
    "collinear-3d-shared": ([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [SQRT2, 1.0, SQRT2]),
    "collinear-2d-diagonal": ([[0, 0], [1, 1], [2, 2]], [1.2, 1.0, 1.5]),
    "collinear-2d-extra": ([[0, 0], [1, 0], [2, 0], [1, 0.5]], [1.2, 1.0, 1.3, 0.9]),
    "collinear-3d-axis": ([[0, 0, 0], [0, 0, 1], [0, 0, 2]], [1.2, 1.0, 1.2]),
    "collinear-3d-skew": ([[0, 0, 0], [1, 2, 3], [2, 4, 6], [1, 1, 1]], [3.0, 2.5, 4.0, 2.0]),
    "coplanar-3d": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], [0.9, 0.9, 0.9, 0.9]),
    "coplanar-3d-tilted": ([[0, 0, 0], [1, 0, 1], [0, 1, 1], [1, 1, 2], [0.5, 0.5, 0.3]],
                           [1.0, 1.1, 0.9, 1.2, 0.8]),
    "duplicate-2d": ([[0, 0], [1, 0.2], [0.4, 0.9], [0, 0]], [1.0, 0.8, 0.9, 1.0]),
    "duplicate-3d": ([[0, 0, 0], [1, 0.2, 0.1], [0.3, 0.8, 0.5], [1, 0.2, 0.1]], [1.0, 0.9, 0.8, 0.9]),
}


# Lattice systems: centers in {0, 1, 2}^d, so many subsets are collinear,
# coplanar or repeat a center.
LATTICE_SEED = 7002
LATTICE_SIZES = (4, 5, 6, 7, 8)
LATTICE_PER_SIZE = 3


def lattice_systems():
    """``(name, system)`` for LATTICE_PER_SIZE seeded lattice systems per
    d in (2, 3) and m in LATTICE_SIZES, none with all centers equal."""
    rng = np.random.default_rng(LATTICE_SEED)
    for d in (2, 3):
        for m in LATTICE_SIZES:
            for i in range(LATTICE_PER_SIZE):
                M = DiskSystem.from_arrays(rng.integers(0, 3, (m, d)), rng.uniform(0.5, 1.5, m))
                while rips_scale(M) == 0.0:  # one repeated center: no rescaling
                    M = DiskSystem.from_arrays(rng.integers(0, 3, (m, d)), rng.uniform(0.5, 1.5, m))
                yield f"lattice-d{d}-m{m}-{i}", M


def scalings(centers, radii):
    """The system of these arrays and its rescalings by FACTORS x its Rips scale."""
    M = DiskSystem.from_arrays(centers, radii)
    nu = rips_scale(M)
    return [M, *(rescale(M, factor * nu) for factor in FACTORS)]


def scale_reach(lam, tol=DEFAULT_TOL):
    """How far above lam the ratio ||p - c_i|| / r_i of a point that
    containment accepts on rescale(M, lam) can reach: each disk's reach is
    its radius times 1 + tol (cechkit.cech.dual_bound)."""
    return tol * lam


def assert_in_bracket(mu, M, bracket, tol=DEFAULT_TOL):
    """Assert that mu, the exact Cech scale of M, lies in a bisection
    bracket of M widened by the containment reach: a bracket end decided
    TRUE can lie up to scale_reach below mu.  The factor 1 + (d + 10) 2^-52
    holds the rounding of the containment test and of mu."""
    lo, hi = bracket
    factor = 1.0 + (M.dimension + 10) * 2.0**-52
    assert (lo - scale_reach(hi, tol)) / factor <= mu <= (hi + scale_reach(hi, tol)) * factor, (lo, mu, hi)


@pytest.fixture
def tangent_point_system() -> DiskSystem:
    """Three 3-d disks whose common intersection is the single point (3,0,0)."""
    return DiskSystem.from_arrays(
        [[4.0, 1.0, 0.0], [4.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
        [SQRT2, SQRT2, 3.0],
    )


@pytest.fixture
def empty_quad_system() -> DiskSystem:
    """Four 3-d disks with pairwise intersections but empty common part."""
    return DiskSystem.from_arrays(
        [[4.0, 1.0, 0.0], [4.0, -1.0, 0.0], [0.0, 1.0, 0.0], [3.0, 0.0, 1.0]],
        [SQRT2, SQRT2, math.sqrt(10.0), 0.9],
    )


@pytest.fixture
def equilateral_system() -> DiskSystem:
    """Three unit disks at the vertices of a unit-side equilateral triangle."""
    return DiskSystem.from_arrays(
        [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]],
        [1.0, 1.0, 1.0],
    )


def random_system(rng: np.random.Generator, d: int, m: int) -> DiskSystem:
    """Random system with centers in [0,1]^d and radii in [0.1, 1]."""
    return DiskSystem.from_arrays(rng.uniform(0.0, 1.0, (m, d)), rng.uniform(0.1, 1.0, m))


def intersecting_simplex_system(
    rng: np.random.Generator, d: int, margin: float = 1.1, eta: float = 1e-8
) -> DiskSystem:
    """Random (d+1)-disk system rescaled so the full intersection is nonempty.

    Rescaling by margin * cech scale guarantees a common point, hence all
    pairs intersect as well.
    """
    M = random_system(rng, d, d + 1)
    mu = cech_scale(M, eta).cech_scale
    return rescale(M, margin * mu)


def _near_regular_simplex(rng: np.random.Generator, d: int) -> DiskSystem:
    """d+1 disks near the vertices of a regular simplex with edge sqrt(2).

    Near-symmetric placement keeps the minimax optimum supported on all
    d+1 disks, so removing any one disk strictly lowers the Cech scale.
    """
    alpha = (1.0 - math.sqrt(d + 1.0)) / d
    vertices = np.vstack([np.eye(d), np.full(d, alpha)])
    centers = vertices + rng.uniform(-0.05, 0.05, (d + 1, d))
    radii = rng.uniform(0.9, 1.1, d + 1)
    return DiskSystem.from_arrays(centers, radii)


def hollow_simplex_system(
    rng: np.random.Generator, d: int, eta: float = 1e-8, max_tries: int = 200
) -> DiskSystem:
    """Random (d+1)-disk system with empty full intersection but every
    leave-one-out subsystem intersecting.

    Draws near-regular simplex systems and rescales to the midpoint
    between the largest leave-one-out Cech scale and the full Cech scale;
    regenerates when that gap is not comfortably wider than the bisection
    precision (the optimum must be supported on all d+1 disks).
    """
    for _ in range(max_tries):
        M = _near_regular_simplex(rng, d)
        mu_full = cech_scale(M, eta).cech_scale
        mu_loo = max(
            cech_scale(M.subsystem([i for i in range(d + 1) if i != j]), eta).cech_scale
            for j in range(d + 1)
        )
        gap = mu_full - mu_loo
        if gap > 1e-3 * mu_full:
            return rescale(M, mu_loo + 0.5 * gap)
    raise RuntimeError("could not build a hollow simplex system")  # pragma: no cover
