"""Floating-point geometry of disks, sphere intersections and poles.

All operations are pure functions of immutable values; a single tolerance
parameter ``tol`` is threaded through every membership and classification
test.  It is relative to the :func:`span` of the disks a test involves: a
point is in a disk of radius r within tol * r, and a sphere intersection of
a subset is a point when its squared radius is within tol * span^2 of zero.
So no decision depends on the unit of length, and none on a disk the test
does not involve.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

DEFAULT_TOL = 1e-9

# Candidate points per contains_all_batch chunk.
CONTAINS_CHUNK = 256

SOUTH = "south"
NORTH = "north"


class GeometryError(ValueError):
    """Base class for geometric errors."""


class DimensionMismatch(GeometryError):
    pass


class FullSphereError(GeometryError):
    """Two identical disks: their boundary intersection is the whole sphere.

    The caller must treat the two disks as one (deduplicate, see
    :func:`preprocess`).
    """


class DegenerateConfiguration(GeometryError):
    """Affinely dependent centers: the Gram system is rank deficient."""

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


def check_tol(tol: float) -> None:
    """Raise GeometryError unless 0 <= tol <= 1.  :class:`DiskSystem` keeps
    d span^2 finite, so every reach and tol span^2 then stays finite."""
    if not 0.0 <= tol <= 1.0:
        raise GeometryError(f"tol must be finite and nonnegative, at most 1, got {tol}")


def span(centers, radii):
    """The length unit of every tolerance: the largest per-axis spread of the
    (m, d) ``centers`` plus the largest of the (m,) ``radii``."""
    # np.ptp and np.max, without their wrappers' cost on small arrays.
    maximum = np.maximum.reduce
    return maximum(maximum(centers, axis=-2) - np.minimum.reduce(centers, axis=-2), axis=-1) + maximum(radii, axis=-1)


def row_spans(members, radii):
    """:func:`span` of each system of an (N, j, d) stack with (N, j) radii, member
    by member: max and min are exact, so the bits are those of span on each row."""
    by_axis = members.transpose(0, 2, 1)
    return fold(np.maximum, fold(np.maximum, by_axis) - fold(np.minimum, by_axis)) + fold(np.maximum, radii)


def fold(ufunc, a):
    """``ufunc.reduce`` over the last axis of ``a``, one slice at a time in axis order:
    the same bits below 8 entries, at a fraction of a short-axis reduction's cost."""
    total = a[..., 0].copy()
    for k in range(1, a.shape[-1]):
        ufunc(total, a[..., k], out=total)
    return total


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Disk:
    """Closed ball in R^d: center and positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise GeometryError("disk center must be a 1-d vector")
        if not np.all(np.isfinite(c)):
            raise GeometryError("disk center must be finite")
        r = float(self.radius)
        if not (r > 0.0) or not math.isfinite(r):
            raise GeometryError(f"disk radius must be positive, got {r}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def dimension(self) -> int:
        return self.center.size


@dataclass(frozen=True, init=False, eq=False)
class DiskSystem:
    """Finite ordered collection of disks sharing one ambient dimension, held as
    two read-only arrays the system owns: (m, d) ``centers`` and (m,) ``radii``.
    ``M[i]`` and ``M.disks`` build :class:`Disk` objects on demand."""

    centers: np.ndarray
    radii: np.ndarray

    def __init__(self, disks):
        disks = tuple(disks)
        try:
            centers = np.array([k.center for k in disks], dtype=float)
        except ValueError:
            raise DimensionMismatch("all disks must share one dimension") from None
        self.__post_init__(centers, [k.radius for k in disks])

    @classmethod
    def from_arrays(cls, centers, radii) -> "DiskSystem":
        system = cls.__new__(cls)
        system.__post_init__(centers, radii)
        return system

    def __post_init__(self, centers, radii):
        # Every construction ends here: copy, validate, freeze.
        centers, radii = np.array(centers, dtype=float), np.array(radii, dtype=float)
        if centers.ndim != 2 or centers.size < 1 or radii.shape != centers.shape[:1]:
            raise GeometryError(f"need (m, d) centers and (m,) radii, m, d >= 1; got {centers.shape}, {radii.shape}")
        # A NaN or an infinity makes the span NaN or infinite, so a finite
        # span settles finiteness; an infinite one may be a finite overflow.
        with np.errstate(invalid="ignore", over="ignore"):
            extent, d = float(span(centers, radii)), centers.shape[1]
        finite = math.isfinite(extent) or (np.isfinite(centers).all() and np.isfinite(radii).all())
        if not (finite and np.minimum.reduce(radii) > 0.0):
            raise GeometryError("disk centers must be finite and radii finite and positive")
        # A squared distance from a point of any disk to any center is at
        # most d (ptp + r)^2: it must be a float.  Squared lengths below the
        # smallest normal float lose their precision, and a Gram matrix of
        # them its inverse, so (ptp + r)^2 must be at least that.
        if not math.isfinite(d * extent * extent):
            raise GeometryError(f"disk system too large: d (ptp + r)^2 = {d} ({extent:.3g})^2 overflows a float")
        if extent * extent < sys.float_info.min:
            raise GeometryError(f"disk system too small: (ptp + r)^2 = ({extent:.3g})^2 underflows a float")
        centers.flags.writeable = radii.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    @property
    def dimension(self) -> int:
        return self.centers.shape[1]

    @property
    def disks(self) -> tuple[Disk, ...]:
        return tuple(map(Disk, self.centers, self.radii))

    def __len__(self) -> int:
        return len(self.radii)

    def __getitem__(self, i: int) -> Disk:
        return Disk(self.centers[i], self.radii[i])

    def subsystem(self, indices) -> "DiskSystem":
        indices = list(indices)
        return DiskSystem.from_arrays(self.centers[indices], self.radii[indices])


@dataclass(frozen=True)
class ISphere:
    """Sphere intersected with an affine subspace.

    ``normals`` (k x d, linearly independent rows) span the orthogonal
    complement of the affine hull; they are stored unnormalized.  A zero
    radius encodes the single-point case.
    """

    center: np.ndarray
    radius: float
    normals: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        n = np.asarray(self.normals, dtype=float)
        if n.ndim != 2 or n.shape[1] != c.size:
            raise GeometryError("normals must be a k x d matrix")
        if not (self.radius >= 0.0):
            raise GeometryError("sphere radius must be nonnegative")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "normals", n)

    @property
    def dimension(self) -> int:
        return self.center.size

    @property
    def codimension(self) -> int:
        return self.normals.shape[0]

    def tangent_basis(self) -> np.ndarray:
        """Orthonormal basis of the tangent directions (rows)."""
        return tangent_rows(self.normals)


# Tagged union for the boundary intersection of a disk subsystem.


@dataclass(frozen=True)
class EmptyIntersection:
    pass


@dataclass(frozen=True)
class PointIntersection:
    point: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))


@dataclass(frozen=True)
class SphereIntersection:
    sphere: ISphere


IntersectionKind = EmptyIntersection | PointIntersection | SphereIntersection


@dataclass(frozen=True)
class Pole:
    """Point of an i-sphere extremal in one coordinate axis (0-based)."""

    point: np.ndarray
    axis: int
    orientation: str  # SOUTH | NORTH
    degenerate_axis: bool = False

    def __post_init__(self):
        object.__setattr__(self, "point", np.asarray(self.point, dtype=float))
        if self.orientation not in (SOUTH, NORTH):
            raise GeometryError(f"bad orientation {self.orientation!r}")


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def squared_distances(points, centers) -> np.ndarray:
    """||p - c||^2 of (..., d) ``points`` to (..., m, d) ``centers``, shape
    (..., m) by broadcasting: an (n, d) array against one (m, d) array gives
    (n, m).  Every point-to-center distance of the package is the square
    root of this one sum of squares, so equal inputs give equal bits.  The
    squares are added in axis order, coordinate 0 first, one (..., m) slice
    per coordinate: the order in which np.sum adds fewer than 8 entries."""
    total = (points[..., None, 0] - centers[..., 0]) ** 2
    for q in range(1, points.shape[-1]):
        total += (points[..., None, q] - centers[..., q]) ** 2
    return total


def contains(disk: Disk, p, tol: float = DEFAULT_TOL) -> bool:
    """Closed membership test with tolerance: ||p - c|| <= r + tol r, the
    test of :func:`contains_all_batch` on the one disk."""
    p = np.asarray(p, dtype=float)
    if p.shape != disk.center.shape:
        raise DimensionMismatch(
            f"point dimension {p.size} != disk dimension {disk.dimension}"
        )
    check_tol(tol)
    return bool(np.sqrt(squared_distances(p, disk.center[None]))[0] <= _reach(disk.radius, tol))


def _reach(radii, tol: float):
    """Largest center distance the containment test accepts, per disk: r +
    tol * r, the tolerance of the one disk under test, whose span is r.  No
    other disk widens it, so adding a disk never widens another's reach."""
    return radii + tol * radii


def center_distances(centers: np.ndarray) -> np.ndarray:
    """(m, m) matrix of ||c_i - c_j||."""
    return np.sqrt(squared_distances(centers, centers))


def contains_all_batch(system: DiskSystem, points: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Which of an (n, d) array of points lie in every disk (with tolerance).

    Points are tested CONTAINS_CHUNK at a time, so the (points x disks)
    distance arrays stay bounded however many candidates there are.
    """
    bound = _reach(system.radii, tol)
    inside = np.empty(len(points), dtype=bool)
    for start in range(0, len(points), CONTAINS_CHUNK):
        distances = np.sqrt(squared_distances(points[start : start + CONTAINS_CHUNK], system.centers))
        inside[start : start + CONTAINS_CHUNK] = (distances <= bound).all(axis=1)
    return inside


# ---------------------------------------------------------------------------
# Boundary intersections
# ---------------------------------------------------------------------------


def _rank_deficient(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank test of one Gram matrix or of a stack of them.

    Returns ``(deficient, rank, ratio)`` per matrix: a matrix is deficient
    when its largest singular value is below the smallest normal float (it
    is zero, or its squared lengths lost their precision and its inverse
    overflows; rank 0) or its smallest singular value is at most 1e-12 of
    its largest.  ``ratio`` is the computed sigma_min / sigma_max of each
    matrix that takes the SVD, 1 for the others, and below the smallest
    normal float 0 for a zero matrix and NaN for any other.  G is positive
    semidefinite, so sigma_min / sigma_max >= det G / tr(G)^k for k x k G;
    det(G / tr G) > 1e-9 settles full rank with a margin of 1e3 over the
    cutoff and over the rounding of LU when tr G is normal, and only the
    other matrices take the SVD.
    """
    trace = np.trace(gram, axis1=-2, axis2=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        unsettled = ~(np.linalg.det(gram / trace[..., None, None]) > 1e-9)
    unsettled |= (trace < sys.float_info.min) & (gram.shape[-1] > 0)  # no normals: full rank 0
    deficient, rank = np.zeros(unsettled.shape, dtype=bool), np.full(unsettled.shape, gram.shape[-1])
    ratio = np.ones(unsettled.shape)
    if unsettled.any():
        sv = np.linalg.svd(gram[unsettled], compute_uv=False)
        top = sv[..., 0]
        small = top < sys.float_info.min
        deficient[unsettled] = small | (sv[..., -1] <= 1e-12 * top)
        rank[unsettled] = np.where(small, 0, np.sum(sv > 1e-12 * np.maximum(top, 1e-300)[..., None], axis=-1))
        ratio[unsettled] = np.where(small, np.where(top > 0.0, np.nan, 0.0), sv[..., -1] / np.where(small, 1.0, top))
    return deficient, rank, ratio


def gram_rows(centers: np.ndarray, rows: np.ndarray):
    """Members, normals and Gram matrices of an (N, j) array of index rows.

    Normals are taken against the last member.  Returns ``(members,
    normals, gram, full, doubtful, rank)``; ``full`` marks the full-rank
    Gram matrices, ``rank`` is each matrix's rank (:func:`_rank_deficient`),
    and the deficient matrices are replaced by identities so that batched
    solves stay defined.  A deficient row is ``doubtful`` when rounding
    cannot explain its rank test: its ratio exceeds the floor below, or is
    NaN.
    """
    members = centers[rows]
    normals = members[:, :-1] - members[:, -1:]
    gram = normals @ normals.transpose(0, 2, 1)
    deficient, rank, ratio = _rank_deficient(gram)
    # The floor K u (u = 2^-53) bounds the computed ratio of k exactly
    # dependent normals in R^d, with s = ||G-hat||_2 >= 2^-1022 and T =
    # ||N-hat||_F^2 <= k s (1 + d u) / (1 - gamma_d), to first order in u:
    # 1. each normal rounds once, which moves lambda_min by u^2 T at most;
    # 2. each Gram entry sums d products: off by gamma_d ||n_a|| ||n_b||, and
    #    u 2^-1022 <= u s per product that underflows, sigma_min moves by at
    #    most gamma_d T + k d u s <= 2 k d u s (Weyl);
    # 3. LAPACK's SVD is exact for G-hat + delta, ||delta||_2 <= 2 k^2 u s:
    #    2k Householder reflections, each backward stable to about k u.
    # So K = 2 k d + 2 k^2 + 1, whose 1 holds the second-order terms.
    k, d = normals.shape[1:]
    doubtful = deficient & ~(ratio <= (2 * k * d + 2 * k * k + 1) * 2.0**-53)
    gram[deficient] = np.eye(k)
    return members, normals, gram, ~deficient, doubtful, rank


def subset_spheres(centers: np.ndarray, radii: np.ndarray, rows: np.ndarray, tol: float = DEFAULT_TOL):
    """Boundary intersection of each disk subset of an (N, j) index array.

    Solves each row's Gram system (:func:`gram_rows`) for the center in the
    affine hull of its centers, base point its last member, and takes the
    squared radius r^2 as the mean over the members of r_i^2 - ||c - c_i||^2.
    Returns ``(normals, gram, center, r2, point, sphere, rank, doubtful)``:
    ``point`` and ``sphere`` classify each row, and a row that is neither is
    empty, or skipped when its rank is below j - 1.
    """
    j, d = rows.shape[1], centers.shape[1]
    members, normals, gram, full, doubtful, rank = gram_rows(centers, rows)
    rad = radii[rows]
    sq = rad**2
    # A normal's squared length is its member's squared distance to the last.
    rhs = 0.5 * (sq[:, -1:] + squared_distances(members[:, -1], members[:, :-1]) - sq[:, :-1])
    lam = np.linalg.solve(gram, rhs[..., None])
    center = (lam.transpose(0, 2, 1) @ normals)[:, 0] + members[:, -1]
    r2 = fold(np.add, sq - squared_distances(center, members)) / j  # np.mean's arithmetic, below 8 members
    tol_sq = tol * row_spans(members, rad) ** 2
    # The one rule, with each subset's own span: a point within tol_sq of
    # zero squared radius, a sphere above it, else empty.  j - 1 = d normals
    # leave a zero-dimensional affine hull: either its one point lies on
    # every sphere or nothing does.
    point = full & (np.abs(r2) <= tol_sq)
    sphere = full & (r2 > tol_sq) & (j <= d)
    return normals, gram, center, r2, point, sphere, rank, doubtful


def tangent_rows(normals: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the directions orthogonal to (..., k, d)
    ``normals``: the last d - k right singular vectors."""
    return np.linalg.svd(normals, full_matrices=True)[2][..., normals.shape[-2] :, :]


def pole_offsets(normals: np.ndarray, gram: np.ndarray, tol: float = DEFAULT_TOL):
    """Unit steps from the center of each sphere of an (n, k, d) stack of
    independent normals, with their Gram matrices, to its 2d poles.

    Returns ``(offsets, flat)``: (n, 2d, d) steps, south then north per axis,
    and the (n, d) degenerate axes.  Column q of I - N^T (N N^T)^-1 N points
    toward the e_q-north pole.  When its length is at most 2 tol (a
    projected unit vector: no length unit), e_q lies in the span of the
    normals, pi_q is constant on the sphere, and both steps are its first
    tangent direction (:func:`tangent_rows`), or none when it has none.
    """
    k, d = normals.shape[1:]
    proj = np.eye(d) - normals.transpose(0, 2, 1) @ np.linalg.solve(gram, normals)
    norms = np.sqrt(fold(np.add, (proj * proj).transpose(0, 2, 1)))  # the bits of np.linalg.norm(proj, axis=1)
    flat = norms <= 2.0 * tol
    unit = (proj / np.where(flat, 1.0, norms)[:, None, :]).transpose(0, 2, 1)
    offsets = np.stack([-unit, unit], axis=2)
    s, q = np.nonzero(flat)
    if len(s):
        offsets[s, q] = tangent_rows(normals[s])[:, :1] if k < d else 0.0
    return offsets.reshape(-1, 2 * d, d), flat


def reduce_sphere_system(M: DiskSystem, tol: float = DEFAULT_TOL) -> IntersectionKind:
    """Common boundary intersection of 2 <= m <= d+1 disk boundaries: the
    :func:`subset_spheres` row of all m disks, whose normals are
    n_i = c_i - c_m, unnormalized.  Affinely dependent centers raise
    DegenerateConfiguration with the Gram rank."""
    m, d = len(M), M.dimension
    if not 2 <= m <= d + 1:
        raise GeometryError(f"need 2 <= m <= d+1 disks, got m={m}, d={d}")
    normals, _, center, r2, point, sphere, rank, _ = subset_spheres(M.centers, M.radii, np.arange(m)[None], tol)
    if rank[0] < m - 1:
        raise DegenerateConfiguration(f"affinely dependent centers (Gram rank {rank[0]} < {m - 1})", rank=int(rank[0]))
    if sphere[0]:
        return SphereIntersection(ISphere(center[0], math.sqrt(r2[0]), normals[0]))
    return PointIntersection(center[0]) if point[0] else EmptyIntersection()


def intersect_two_spheres(d1: Disk, d2: Disk, tol: float = DEFAULT_TOL) -> IntersectionKind:
    """Intersection of the two boundary spheres of d1 and d2:
    :func:`reduce_sphere_system` of the pair, with the single normal c2 - c1.

    Concentric disks meet nowhere, or in the whole sphere when their radii
    agree within tol * span, as :func:`preprocess` deduplicates them.
    """
    try:
        kind = reduce_sphere_system(DiskSystem((d1, d2)), tol)
    except DegenerateConfiguration:
        if abs(d1.radius - d2.radius) <= tol * float(span((d1.center, d2.center), (d1.radius, d2.radius))):
            raise FullSphereError("identical disks: boundary intersection is the full sphere") from None
        return EmptyIntersection()
    if isinstance(kind, SphereIntersection):
        return SphereIntersection(ISphere(kind.sphere.center, kind.sphere.radius, -kind.sphere.normals))
    return kind


# ---------------------------------------------------------------------------
# Poles
# ---------------------------------------------------------------------------


def poles_general(sphere: ISphere, q: int, tol: float = DEFAULT_TOL) -> tuple[Pole, Pole]:
    """e_q-poles of an i-sphere with k >= 0 linearly independent normals:
    c -/+ r times column q of the walk's projection (:func:`pole_offsets`).
    When e_q lies in the span of the normals the axis is degenerate: pi_q is
    constant on the sphere, and both poles are one on-sphere sample.
    """
    d, k = sphere.dimension, sphere.codimension
    if not 0 <= q < d:
        raise GeometryError(f"axis {q} out of range for dimension {d}")
    # Normals against a zero base point: gram_rows gives them back bit for bit.
    _, normals, gram, _, _, rank = gram_rows(np.vstack([sphere.normals, np.zeros(d)]), np.arange(k + 1)[None])
    if rank[0] < k:
        raise DegenerateConfiguration(f"normals are linearly dependent (Gram rank {rank[0]} < {k})", rank=int(rank[0]))
    offsets, flat = pole_offsets(normals, gram, tol)
    south, north = sphere.center + sphere.radius * offsets[0, 2 * q : 2 * q + 2]
    degenerate = bool(flat[0, q])
    return Pole(south, q, SOUTH, degenerate), Pole(north, q, NORTH, degenerate)


def poles_codim1(sphere: ISphere, q: int, tol: float = DEFAULT_TOL) -> tuple[Pole, Pole]:
    """e_q-poles of a sphere with exactly one normal N: :func:`poles_general`,
    whose direction is then v = e_q - (pi_q(N)/||N||^2) N."""
    if sphere.codimension != 1:
        raise GeometryError("poles_codim1 requires exactly one normal")
    return poles_general(sphere, q, tol)


def boundary_poles(disk: Disk, q: int) -> tuple[Pole, Pole]:
    """e_q-poles of a full disk boundary, the sphere with no normals: c -/+ r e_q."""
    return poles_general(ISphere(disk.center, disk.radius, np.empty((0, disk.dimension))), q)


# ---------------------------------------------------------------------------
# Preprocessing (dominance / dedup) and subset enumeration support
# ---------------------------------------------------------------------------


def preprocess(M: DiskSystem, tol: float = DEFAULT_TOL) -> tuple[DiskSystem, tuple[int, ...]]:
    """Drop every disk that entirely contains another disk of the system.

    Identical disks deduplicate (first occurrence kept).  The intersection
    set is unchanged.  Returns the reduced system and the kept indices.
    """
    check_tol(tol)
    c, r = M.centers, M.radii
    dist = center_distances(c)
    # Each pair is tested with the tolerance of its own two disks.
    scale = tol * (np.abs(c[:, None] - c).max(axis=2) + np.maximum.outer(r, r))  # span of each pair
    identical = (dist <= scale) & (np.abs(r[:, None] - r[None, :]) <= scale)
    # Entry (i, j) drops D_j: a later duplicate of D_i, or a disk containing
    # D_i (redundant for the intersection).
    drop = np.triu(identical, 1) | (~identical & (dist + r[:, None] <= r[None, :] + scale))
    kept = tuple(int(i) for i in np.flatnonzero(~drop.any(axis=0)))
    return M.subsystem(kept), kept


def combination_rows(k: int, j: int) -> np.ndarray:
    """The (C(k, j), j) array of the j-subsets of range(k), lexicographic."""
    n = math.comb(k, j)
    return np.fromiter(chain.from_iterable(combinations(range(k), j)), np.intp, n * j).reshape(n, j)


def pole_block(centers: np.ndarray, radii: np.ndarray, j: int, tol: float = DEFAULT_TOL):
    """Pole candidates of the size-j subsets of the disks (``centers``, ``radii``).

    Returns ``(subsets, points, doubtful)``: the (n, j) index rows, in
    lexicographic order, of the subsets that yield candidates, their
    (n, 2d, d) points (2d poles, or one point 2d times), and whether a
    subset was skipped in doubt (:func:`gram_rows`).  Each row is classified
    by :func:`subset_spheres` and its poles stepped by :func:`pole_offsets`.

    Sizes above min(m, d) add no candidate, so the walk stops there: d+1 spheres with independent
    centers meet in at most one point, which lies on the 0-sphere of each
    d-subset, and both points of a 0-sphere are its poles on each axis not
    orthogonal to them.  A subset with affinely dependent centers yields no
    candidate either: each extra sphere equation is linear in the point and
    either implied by, or inconsistent with, those of a maximal independent
    subset, so its boundary intersection is empty or that of a subset
    enumerated anyway.  Only a skip in doubt can lose a candidate.  Size
    d+1 yields points alone, as :func:`reduce_sphere_system` does.
    """
    m, d = centers.shape
    if j < 1:
        raise GeometryError(f"subset size must be at least 1, got {j}")
    if j == 1:
        # Every disk boundary: c -/+ r e_q per axis.
        points = np.repeat(centers[:, None, :], 2 * d, axis=1).reshape(-1, d, 2, d)
        axes = np.arange(d)
        points[:, axes, 0, axes] -= radii[:, None]
        points[:, axes, 1, axes] += radii[:, None]
        return np.arange(m)[:, None], points.reshape(-1, 2 * d, d), False
    rows = combination_rows(m, j)
    normals, gram, center, r2, point, sphere, _, doubtful = subset_spheres(centers, radii, rows, tol)
    kept = point | sphere
    points = np.repeat(center[kept][:, None, :], 2 * d, axis=1)
    if sphere.any():
        offsets, _ = pole_offsets(normals[sphere], gram[sphere], tol)
        points[sphere[kept]] = center[sphere][:, None, :] + np.sqrt(r2[sphere])[:, None, None] * offsets
    return rows[kept], points, bool(doubtful.any())
