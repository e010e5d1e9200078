"""Minimal axis-aligned bounding boxes of disk-system intersections."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cech import pole_walk
from .geometry import DEFAULT_TOL, DimensionMismatch, Disk, DiskSystem, GeometryError


@dataclass(frozen=True)
class Box:
    """Product of per-axis intervals [a_q, b_q].

    Degenerate (a_q = b_q) and inverted (a_q > b_q) intervals are both
    representable; an inverted interval certifies emptiness when produced
    by intersecting boxes.
    """

    intervals: np.ndarray
    degeneracy_warning: bool = field(default=False, compare=False)

    def __post_init__(self):
        iv = np.asarray(self.intervals, dtype=float)
        if iv.ndim != 2 or iv.shape[1] != 2:
            raise GeometryError("intervals must be a d x 2 array")
        object.__setattr__(self, "intervals", iv)

    @property
    def dimension(self) -> int:
        return self.intervals.shape[0]

    @property
    def lower(self) -> np.ndarray:
        return self.intervals[:, 0]

    @property
    def upper(self) -> np.ndarray:
        return self.intervals[:, 1]

    @property
    def widths(self) -> np.ndarray:
        return self.upper - self.lower

    def is_proper(self, tol: float = 0.0) -> bool:
        return bool(np.all(self.upper - self.lower >= -tol))

    def is_inverted(self, tol: float = 0.0) -> bool:
        return bool(np.any(self.lower - self.upper > tol))

    def is_degenerate(self, tol: float = 0.0) -> bool:
        return self.is_proper(tol) and bool(np.any(np.abs(self.widths) <= tol))

    def contains_point(self, p, tol: float = 0.0) -> bool:
        p = np.asarray(p, dtype=float)
        return bool(np.all(p >= self.lower - tol) and np.all(p <= self.upper + tol))

    def expand(self, amount: float) -> "Box":
        iv = self.intervals.copy()
        iv[:, 0] -= amount
        iv[:, 1] += amount
        return Box(iv)


def aabb_two_disks(d1: Disk, d2: Disk, tol: float = DEFAULT_TOL) -> Box | None:
    """Minimal AABB of the intersection of two disks, or None when disjoint:
    :func:`aabb_minimal` of the pair (DimensionMismatch when their
    dimensions differ)."""
    return aabb_minimal(DiskSystem((d1, d2)), tol)


def aabb_minimal(M: DiskSystem, tol: float = DEFAULT_TOL) -> Box | None:
    """Minimal AABB of the intersection of all disks of M, or None.

    Enumerates the poles of every i-sphere of the system, retains those
    contained in all m disks (with tolerance), and takes the per-axis
    envelope: lower bound from retained south poles, upper bound from
    retained north poles.  A single-point boundary intersection counts for
    every axis and orientation.  A disjoint pair retains nothing, so it
    returns None before any enumeration (:func:`pole_walk`).
    """
    return pole_envelope(pole_walk(M, tol), M.dimension)


def pole_envelope(blocks, d: int) -> Box | None:
    """The box of :func:`aabb_minimal` from :func:`pole_walk` blocks.

    Its degeneracy warning says that a subset with affinely dependent
    centers was skipped, or that an axis bound had no retained pole."""
    axes = np.arange(d)
    lows, highs = np.full(d, np.inf), np.full(d, -np.inf)
    kept_min, kept_max = np.full(d, np.inf), np.full(d, -np.inf)
    warn = False
    for _, _, points, inside, deficient in blocks:
        warn = warn or bool(deficient.any())
        kept = points.reshape(-1, d)[inside]
        if not len(kept):
            continue
        kept_min = np.minimum(kept_min, kept.min(axis=0))
        kept_max = np.maximum(kept_max, kept.max(axis=0))
        # Coordinate q of the e_q-poles, and which of them were retained.
        poles = points.reshape(-1, d, 2, d)[:, axes, :, axes].transpose(1, 0, 2)
        inside = inside.reshape(-1, d, 2)
        lows = np.minimum(lows, np.where(inside[..., 0], poles[..., 0], np.inf).min(axis=0))
        highs = np.maximum(highs, np.where(inside[..., 1], poles[..., 1], -np.inf).max(axis=0))
    if np.isinf(kept_min).any():  # no candidate retained
        return None
    # A missing bucket can only happen in near-degenerate float
    # configurations; any retained point still bounds the box.
    missing_low, missing_high = np.isinf(lows), np.isinf(highs)
    if missing_low.any() or missing_high.any():
        warn = True
    intervals = np.column_stack(
        [np.where(missing_low, kept_min, lows), np.where(missing_high, kept_max, highs)]
    )
    return Box(intervals, degeneracy_warning=warn)


def box_intersect(boxes: list[Box]) -> Box:
    """Per-axis intersection of boxes: [max of lowers, min of uppers].

    Inverted intervals are returned as data, never raised on.
    """
    if not boxes:
        raise GeometryError("box_intersect needs at least one box")
    d = boxes[0].dimension
    for b in boxes:
        if b.dimension != d:
            raise DimensionMismatch("boxes must share one dimension")
    lower = np.max(np.array([b.lower for b in boxes]), axis=0)
    upper = np.min(np.array([b.upper for b in boxes]), axis=0)
    warn = any(b.degeneracy_warning for b in boxes)
    return Box(np.column_stack([lower, upper]), degeneracy_warning=warn)
