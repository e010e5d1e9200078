"""Filtered generalized Cech complex of a disk system."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cech import bisect_scales, pair_ratios
from .geometry import DEFAULT_TOL, DiskSystem, PoleEngine, combination_rows

# (subsystem, subset) rows per lockstep chunk: bounds the engine's arrays and
# the (rows x 2d x d) candidate points however many subsystems there are.
SUBSYSTEM_CHUNK = 4096


@dataclass(frozen=True)
class WeightedSimplex:
    """Simplex entering the filtration at the Cech scale of its disks."""

    vertices: tuple[int, ...]
    scale: float

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))

    @property
    def dimension(self) -> int:
        return len(self.vertices) - 1

    def sort_key(self):
        return (self.scale, self.dimension, self.vertices)


@dataclass(frozen=True)
class Filtration:
    """Simplices sorted by (scale, dimension, lexicographic vertices)."""

    simplices: tuple[WeightedSimplex, ...]
    max_dimension: int

    def scales(self) -> dict[tuple[int, ...], float]:
        return {s.vertices: s.scale for s in self.simplices}

    def at_level(self, lam: float) -> list[WeightedSimplex]:
        return [s for s in self.simplices if s.scale <= lam]


def build_filtration(
    M: DiskSystem, max_dim: int, eta: float = 1e-6, tol: float = DEFAULT_TOL
) -> Filtration:
    """Weighted simplices over all disk subsets of size <= max_dim + 1.

    A simplex enters at the Cech scale of its disk subsystem (exact Rips
    value for pairs); the subsystems of each size are bisected in lockstep,
    in chunks, by :func:`bisect_scales`.  Face monotonicity is enforced by
    clamping to the largest facet scale, a no-op up to eta.
    """
    m, d = len(M), M.dimension
    if not 0 <= max_dim <= m - 1:
        raise ValueError(f"max_dim must be in [0, {m - 1}], got {max_dim}")
    if not eta > 0.0:
        raise ValueError(f"eta must be positive, got {eta}")
    scales: dict[tuple[int, ...], float] = {}
    for i in range(m):
        scales[(i,)] = 0.0
    for i, j in combinations(range(m), 2):
        dist = float(np.linalg.norm(M.centers[i] - M.centers[j]))
        scales[(i, j)] = dist / float(M.radii[i] + M.radii[j])
    ratios = pair_ratios(M.centers, M.radii)
    for k in range(3, max_dim + 2):
        subsets = combination_rows(m, k)
        pairs = combination_rows(k, 2)
        nu = np.max(ratios[subsets[:, pairs[:, 0]], subsets[:, pairs[:, 1]]], axis=1)
        step = max(1, SUBSYSTEM_CHUNK // sum(math.comb(k, j) for j in range(2, min(k, d + 1) + 1)))
        cech = np.empty(len(subsets))
        for start in range(0, len(subsets), step):
            part = slice(start, start + step)
            engine = PoleEngine(M.centers, subsets[part], tol)
            cech[part] = bisect_scales(engine, M.radii[subsets[part]], nu[part], eta, tol)[1]
        for subset, scale in zip(map(tuple, subsets.tolist()), cech.tolist()):
            facet_max = max(scales[subset[:p] + subset[p + 1 :]] for p in range(k))
            scales[subset] = max(scale, facet_max)
    simplices = tuple(
        sorted(
            (WeightedSimplex(v, s) for v, s in scales.items()),
            key=WeightedSimplex.sort_key,
        )
    )
    return Filtration(simplices, max_dim)
