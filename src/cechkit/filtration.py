"""Filtered generalized Cech complex of a disk system."""

from __future__ import annotations

from dataclasses import dataclass

from .cech import pair_ratios, subset_roots
from .geometry import DiskSystem, combination_rows


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


def build_filtration(M: DiskSystem, max_dim: int) -> Filtration:
    """Weighted simplices over all disk subsets of size <= max_dim + 1.

    A simplex enters at the exact Cech scale of its disks, by the
    radius-function recursion: the largest of its facets' scales and, for
    at most d+1 disks, its own valid closed-form root
    (:func:`~cechkit.cech.subset_roots`).  Pairs enter at their Rips ratio.
    No scale is bisected and no tolerance applies.
    """
    m, d = len(M), M.dimension
    if not 0 <= max_dim <= m - 1:
        raise ValueError(f"max_dim must be in [0, {m - 1}], got {max_dim}")
    scales: dict[tuple[int, ...], float] = {(i,): 0.0 for i in range(m)}
    ratios = pair_ratios(M.centers, M.radii)
    for k in range(2, max_dim + 2):
        subsets = combination_rows(m, k)
        if k == 2:
            roots = ratios[subsets[:, 0], subsets[:, 1]].tolist()
        elif k <= d + 1:
            roots = subset_roots(M.centers, M.radii, subsets).tolist()
        else:
            roots = [0.0] * len(subsets)
        for subset, root in zip(map(tuple, subsets.tolist()), roots):
            facet_max = max(scales[subset[:p] + subset[p + 1 :]] for p in range(k))
            # A NaN root (no valid first-meet point) never wins.
            scales[subset] = root if root > facet_max else facet_max
    simplices = tuple(
        sorted(
            (WeightedSimplex(v, s) for v, s in scales.items()),
            key=WeightedSimplex.sort_key,
        )
    )
    return Filtration(simplices, max_dim)
