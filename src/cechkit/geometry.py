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
    """Raise GeometryError unless the tolerance is finite and nonnegative."""
    if not 0.0 <= tol < math.inf:
        raise GeometryError(f"tol must be finite and nonnegative, got {tol}")


def span(centers, radii):
    """The length unit of every tolerance: the largest per-axis spread of the
    (m, d) ``centers`` plus the largest of the (m,) ``radii``.  Stacks of
    systems, (..., m, d) and (..., m), give one span each."""
    # np.ptp and np.max, without their wrappers' cost on small arrays.
    maximum = np.maximum.reduce
    return maximum(maximum(centers, axis=-2) - np.minimum.reduce(centers, axis=-2), axis=-1) + maximum(radii, axis=-1)


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
        k, d = self.normals.shape
        _, _, vh = np.linalg.svd(self.normals, full_matrices=True)
        return vh[k:]


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


def contains(disk: Disk, p, tol: float = DEFAULT_TOL) -> bool:
    """Closed membership test with tolerance: ||p - c|| <= r + tol r, the
    test of :func:`contains_all_batch` on the one disk."""
    p = np.asarray(p, dtype=float)
    if p.shape != disk.center.shape:
        raise DimensionMismatch(
            f"point dimension {p.size} != disk dimension {disk.dimension}"
        )
    check_tol(tol)
    return float(np.linalg.norm(p - disk.center)) <= _reach(disk.radius, tol)


def _reach(radii, tol: float):
    """Largest center distance the containment test accepts, per disk: r +
    tol * r, the tolerance of the one disk under test, whose span is r.  No
    other disk widens it, so adding a disk never widens another's reach."""
    return radii + tol * radii


def center_distances(centers: np.ndarray) -> np.ndarray:
    """(m, m) matrix of ||c_i - c_j||.

    The arithmetic of np.linalg.norm over an axis, the square root of a
    plain sum of squares, so every entry is bit-reproducible by the naive
    per-pair formula.
    """
    diff = centers[:, None, :] - centers
    diff *= diff
    return np.sqrt(np.add.reduce(diff, axis=2))


def disjoint_pair(system: DiskSystem, tol: float = DEFAULT_TOL) -> bool:
    """Whether no point can pass :func:`contains_all_batch` for some pair of
    disks: their center distance exceeds the sum of the two reaches by a
    factor 1 + 1e-12, enough for the rounding of every distance involved."""
    reach = _reach(system.radii, tol)
    return bool((center_distances(system.centers) > (reach[:, None] + reach) * (1.0 + 1e-12)).any())


def contains_all_batch(system: DiskSystem, points: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Which of an (n, d) array of points lie in every disk (with tolerance).

    Points are tested CONTAINS_CHUNK at a time, so the (points x disks x d)
    difference array stays bounded however many candidates there are.
    """
    bound = _reach(system.radii, tol)
    inside = np.empty(len(points), dtype=bool)
    for start in range(0, len(points), CONTAINS_CHUNK):
        diff = points[start : start + CONTAINS_CHUNK, None, :] - system.centers
        diff *= diff
        # The arithmetic of np.linalg.norm(diff, axis=2), without its copies.
        inside[start : start + CONTAINS_CHUNK] = (np.sqrt(np.add.reduce(diff, axis=2)) <= bound).all(axis=1)
    return inside


# ---------------------------------------------------------------------------
# Boundary intersections
# ---------------------------------------------------------------------------


def _rank_deficient(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rank test of one Gram matrix or of a stack of them.

    Returns ``(deficient, rank)`` per matrix: a matrix is deficient when its
    largest singular value is below the smallest normal float (it is zero,
    or its squared lengths lost their precision and its inverse overflows;
    rank 0) or its smallest singular value is at most 1e-12 of its largest.
    A k x k Gram matrix G is positive semidefinite, so sigma_min / sigma_max
    >= det G / tr(G)^k; det(G / tr G) > 1e-9 settles full rank with a margin
    of 1e3 over the cutoff and over the rounding of LU when tr G is normal,
    and only the other matrices take the SVD.
    """
    trace = np.trace(gram, axis1=-2, axis2=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        doubt = ~(np.linalg.det(gram / trace[..., None, None]) > 1e-9)
    doubt |= (trace < sys.float_info.min) & (gram.shape[-1] > 0)  # no normals: full rank 0
    deficient, rank = np.zeros(doubt.shape, dtype=bool), np.full(doubt.shape, gram.shape[-1])
    if doubt.any():
        sv = np.linalg.svd(gram[doubt], compute_uv=False)
        top = sv[..., 0]
        small = top < sys.float_info.min
        deficient[doubt] = small | (sv[..., -1] <= 1e-12 * top)
        rank[doubt] = np.where(small, 0, np.sum(sv > 1e-12 * np.maximum(top, 1e-300)[..., None], axis=-1))
    return deficient, rank


def _require_full_rank(gram: np.ndarray, message: str) -> None:
    """Raise DegenerateConfiguration (``message`` may use ``{rank}``)."""
    deficient, rank = _rank_deficient(gram)
    if deficient:
        raise DegenerateConfiguration(message.format(rank=int(rank)), rank=int(rank))


def intersect_two_spheres(d1: Disk, d2: Disk, tol: float = DEFAULT_TOL) -> IntersectionKind:
    """Intersection of the two boundary spheres of d1 and d2.

    Returns the (d-1)-sphere with center on the segment c1-c2, radius from
    Heron's formula and single normal c2 - c1; tangency collapses to a
    point, separation or strict containment to the empty set.
    """
    c1, r1 = d1.center, d1.radius
    c2, r2 = d2.center, d2.radius
    if c1.size != c2.size:
        raise DimensionMismatch("disk dimensions differ")
    diff = c2 - c1
    dist = float(np.linalg.norm(diff))
    scale = tol * float(span((c1, c2), (r1, r2)))
    if dist <= scale:
        if abs(r1 - r2) <= scale:
            raise FullSphereError("identical disks: boundary intersection is the full sphere")
        return EmptyIntersection()
    if dist > r1 + r2 + scale or dist < abs(r1 - r2) - scale:
        return EmptyIntersection()
    t = 0.5 + (r1 * r1 - r2 * r2) / (2.0 * dist * dist)
    center = c1 + t * diff
    if abs(dist - (r1 + r2)) <= scale or abs(dist - abs(r1 - r2)) <= scale:
        return PointIntersection(center)
    s = 0.5 * (dist + r1 + r2)
    radius = 2.0 * math.sqrt(max(s * (s - dist) * (s - r1) * (s - r2), 0.0)) / dist
    return SphereIntersection(ISphere(center, radius, diff[None, :]))


def reduce_sphere_system(M: DiskSystem, tol: float = DEFAULT_TOL) -> IntersectionKind:
    """Common boundary intersection of 2 <= m <= d+1 disk boundaries.

    Solves the Gram system for the center in the affine hull of the
    centers (base point: last disk), recovers the squared radius as
    r^2 = r_k^2 - ||c - c_k||^2, and classifies by the sign of r^2.
    Normals are n_j = c_j - c_m, unnormalized.
    """
    m, d = len(M), M.dimension
    if not 2 <= m <= d + 1:
        raise GeometryError(f"need 2 <= m <= d+1 disks, got m={m}, d={d}")
    base = M.centers[-1]
    N = M.centers[:-1] - base  # (m-1, d)
    gram = N @ N.T
    rhs = 0.5 * (M.radii[-1] ** 2 + np.sum(N * N, axis=1) - M.radii[:-1] ** 2)
    _require_full_rank(gram, f"affinely dependent centers (Gram rank {{rank}} < {m - 1})")
    lam = np.linalg.solve(gram, rhs)
    center = lam @ N + base
    r2_all = M.radii**2 - np.sum((center - M.centers) ** 2, axis=1)
    r2 = float(np.mean(r2_all))
    tol_sq = tol * float(span(M.centers, M.radii)) ** 2
    if r2 < -tol_sq:
        return EmptyIntersection()
    if r2 <= tol_sq or m - 1 == d:
        # m-1 = d normals leave a zero-dimensional affine hull: either the
        # base point lies on every sphere (a single point) or nothing does.
        if r2 <= tol_sq:
            return PointIntersection(center)
        return EmptyIntersection()
    return SphereIntersection(ISphere(center, math.sqrt(r2), N))


# ---------------------------------------------------------------------------
# Poles
# ---------------------------------------------------------------------------


def poles_general(sphere: ISphere, q: int, tol: float = DEFAULT_TOL) -> tuple[Pole, Pole]:
    """e_q-poles of an i-sphere with k >= 0 linearly independent normals.

    Solves the Gram system A w = -N e_q and moves along
    u = e_q + sum_j w_j n_j, the projection of e_q onto the tangent space;
    the poles are c +/- r u/||u||.  When e_q lies in the span of the
    normals the axis is degenerate: pi_q is constant on the sphere, and both
    poles are one on-sphere sample.
    """
    d = sphere.dimension
    if not 0 <= q < d:
        raise GeometryError(f"axis {q} out of range for dimension {d}")
    N = sphere.normals
    gram = N @ N.T
    _require_full_rank(gram, "normals are linearly dependent")
    u = np.linalg.solve(gram, -N[:, q]) @ N
    u[q] += 1.0
    c, r = sphere.center, sphere.radius
    norm = float(np.linalg.norm(u))
    if norm <= 2.0 * tol:  # the norm of a projected unit vector: no length unit
        tangent = sphere.tangent_basis()
        point = c + r * tangent[0] if r != 0.0 and len(tangent) else c
        return Pole(point, q, SOUTH, degenerate_axis=True), Pole(point, q, NORTH, degenerate_axis=True)
    unit = u / norm
    return Pole(c - r * unit, q, SOUTH), Pole(c + r * unit, q, NORTH)


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
    pairs = np.stack(np.indices((len(r), len(r))), axis=-1)
    scale = tol * span(c[pairs], r[pairs])
    identical = (dist <= scale) & (np.abs(r[:, None] - r[None, :]) <= scale)
    # Entry (i, j) drops D_j: a later duplicate of D_i, or a disk containing
    # D_i (redundant for the intersection).
    drop = np.triu(identical, 1) | (~identical & (dist + r[:, None] <= r[None, :] + scale))
    kept = tuple(int(i) for i in np.flatnonzero(~drop.any(axis=0)))
    return M.subsystem(kept), kept


@dataclass(frozen=True)
class _SizeBatch:
    """Radius-free data of the j-subsets (j >= 2) of an engine's disks.

    ``rows`` lists the C(m, j) subsets; ``deficient`` marks those with
    affinely dependent centers, whose other fields hold placeholders.
    ``offsets[s, 2q]`` and ``offsets[s, 2q + 1]`` are the unit steps from
    the center to the e_q-south and e_q-north poles (None when j = d+1,
    which yields points only).
    """

    rows: np.ndarray
    deficient: np.ndarray
    members: np.ndarray
    normals: np.ndarray
    gram: np.ndarray
    sq_norms: np.ndarray
    offsets: np.ndarray | None


def combination_rows(k: int, j: int) -> np.ndarray:
    """The (C(k, j), j) array of the j-subsets of range(k), lexicographic."""
    n = math.comb(k, j)
    return np.fromiter(chain.from_iterable(combinations(range(k), j)), np.intp, n * j).reshape(n, j)


def gram_rows(centers: np.ndarray, rows: np.ndarray):
    """Members, normals and Gram matrices of an (N, j) array of index rows.

    Normals are taken against the last member, as in
    :func:`reduce_sphere_system`.  Returns ``(members, normals, gram,
    full)``; ``full`` marks the full-rank Gram matrices, and the others are
    replaced by identities so that batched solves stay defined.
    """
    members = centers[rows]
    normals = members[:, :-1] - members[:, -1:]
    gram = normals @ normals.transpose(0, 2, 1)
    full = ~_rank_deficient(gram)[0]
    gram[~full] = np.eye(rows.shape[1] - 1)
    return members, normals, gram, full


class PoleEngine:
    """Pole candidates of every subset of up to d+1 disks with fixed centers.

    The Gram matrices, their rank test and the pole directions depend on the
    centers only; they are computed once per subset size, on first use, and
    reused for any radii (every bisection step of :func:`cech_scale`).  Each
    radius-dependent block costs one batched solve.

    A subset with affinely dependent centers yields no candidate: each
    extra sphere equation is linear in the point and either implied by, or
    inconsistent with, those of a maximal independent subset, so its
    boundary intersection is empty or that of a subset enumerated anyway.
    """

    def __init__(self, centers: np.ndarray, tol: float = DEFAULT_TOL):
        self.centers = np.asarray(centers, dtype=float)
        m, d = self.centers.shape
        self.dimension = d
        self.max_size = min(m, d + 1)
        self.tol = tol
        self._singles = np.arange(m)[:, None]
        self._sizes: dict[int, _SizeBatch] = {}

    def subsets(self, j: int) -> np.ndarray:
        """The (C(m, j), j) index rows of the size-j subsets."""
        return self._size(j).rows if j > 1 else self._singles

    def dependent(self) -> bool:
        """Whether some subset of 2 to max_size disks has affinely dependent
        centers: the warning of a walk that finds no candidate."""
        return any(self._size(j).deficient.any() for j in range(2, self.max_size + 1))

    def _size(self, j: int) -> _SizeBatch:
        batch = self._sizes.get(j)
        if batch is None:
            batch = self._sizes[j] = self._prepare(combination_rows(len(self.centers), j))
        return batch

    def _prepare(self, rows: np.ndarray) -> _SizeBatch:
        """Radius-free data of an (N, j) array of disk index rows."""
        d, j = self.dimension, rows.shape[1]
        members, normals, gram, full = gram_rows(self.centers, rows)
        offsets = None
        if j <= d:
            # Column q of I - N^T (N N^T)^-1 N points toward the e_q-north pole.
            proj = np.eye(d) - normals.transpose(0, 2, 1) @ np.linalg.solve(gram, normals)
            norms = np.linalg.norm(proj, axis=1)
            flat = norms <= 2.0 * self.tol  # as in poles_general
            unit = (proj / np.where(flat, 1.0, norms)[:, None, :]).transpose(0, 2, 1)
            offsets = np.stack([-unit, unit], axis=2)
            # A degenerate axis (e_q in the span of the normals): pi_q is
            # constant on the sphere, so both poles are one sphere point, the
            # step along the first tangent direction (ISphere.tangent_basis).
            s, q = np.nonzero(flat & full[:, None])
            if len(s):
                offsets[s, q] = np.linalg.svd(normals[s], full_matrices=True)[2][:, j - 1, None, :]
            offsets = offsets.reshape(-1, 2 * d, d)
        return _SizeBatch(
            rows=rows,
            deficient=~full,
            members=members,
            normals=normals,
            gram=gram,
            sq_norms=np.sum(normals**2, axis=2),
            offsets=offsets,
        )

    def block(self, j: int, radii: np.ndarray):
        """Candidates of the size-j subsets for the (m,) ``radii``.

        Returns ``(index, points, deficient)``: the ascending indices into
        :meth:`subsets` of the subsets that yield candidates, their (n, 2d,
        d) points, and the (C(m, j),) mask of the subsets skipped for their
        affinely dependent centers.
        """
        d, tol = self.dimension, self.tol
        if j == 1:
            # Every disk boundary: c -/+ r e_q per axis.
            points = np.repeat(self.centers[:, None, :], 2 * d, axis=1).reshape(-1, d, 2, d)
            axes = np.arange(d)
            points[:, axes, 0, axes] -= radii[:, None]
            points[:, axes, 1, axes] += radii[:, None]
            return np.arange(len(points)), points.reshape(-1, 2 * d, d), np.zeros(len(points), dtype=bool)
        batch = self._size(j)
        full, members, normals = ~batch.deficient, batch.members, batch.normals
        rad = radii[batch.rows]
        sq = rad**2
        rhs = 0.5 * (sq[:, -1:] + batch.sq_norms - sq[:, :-1])
        lam = np.linalg.solve(batch.gram, rhs[..., None])
        center = (lam.transpose(0, 2, 1) @ normals)[:, 0] + members[:, -1]
        diff = center[:, None, :] - members
        diff *= diff
        r2 = np.add.reduce(sq - np.add.reduce(diff, axis=2), axis=1) / j  # np.mean's arithmetic
        tol_sq = tol * span(members, rad) ** 2
        # The rules of reduce_sphere_system on each subset, with its own span:
        # a point within tol_sq of zero radius, a sphere above it while
        # j <= d, else empty.
        sphere = (full & (r2 > tol_sq)) if batch.offsets is not None else np.zeros_like(full)
        index = np.flatnonzero(sphere | (full & (np.abs(r2) <= tol_sq)))
        points = np.repeat(center[index][:, None, :], 2 * d, axis=1)
        if sphere.any():
            points[sphere[index]] = center[sphere][:, None, :] + np.sqrt(r2[sphere])[:, None, None] * batch.offsets[sphere]
        return index, points, batch.deficient


