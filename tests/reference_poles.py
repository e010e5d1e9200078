"""Per-subset pole enumeration: the reference the batched pole blocks are tested against.

The package derives every pole from one batched kernel
(:func:`cechkit.geometry.subset_spheres` and
:func:`cechkit.geometry.pole_offsets`), and its public sphere functions
wrap it.  This file keeps a second derivation and calls neither those nor
their wrappers: one Gram solve per subset with the mean squared radius
(:func:`reduce`), one Gram solve per axis for the poles (:func:`poles`),
one :class:`Pole` per candidate and one :func:`contains_all_batch` call per
subset.  :func:`intersect_two` keeps Heron's formula and the distance rule
of the pair.  A subset with affinely dependent centers yields no pole, and
is flagged when its skip is in doubt (:func:`doubtful`) and it has at most
d disks, as the package walks.  The subsets of d+1 disks stay candidates
here, so every comparison also checks that they add nothing to the
package's answers.  Its consumers below keep the semantics of the package's
decision, minimal box and SVG picture, and of the filtration before its
subsystems were bisected in lockstep.  The loop form of
:func:`cechkit.geometry.preprocess` is kept here as well, with the
disjoint-pair rule that the package's first certificate round
(:func:`cechkit.cech.certified_empty`) replaced, and the full subset
enumeration of the exact Cech scale.
"""

import math
import sys
from itertools import combinations

import numpy as np

from cechkit import (
    Box,
    CechDecision,
    Filtration,
    ScaleReport,
    WeightedSimplex,
    jung_factor,
    rescale,
    rips_scale,
)
from cechkit.geometry import (
    DEFAULT_TOL,
    NORTH,
    SOUTH,
    EmptyIntersection,
    FullSphereError,
    ISphere,
    Pole,
    PointIntersection,
    SphereIntersection,
    contains_all_batch,
    span,
    squared_distances,
)
from cechkit.cech import subset_roots


def reduce(M, tol=DEFAULT_TOL):
    """Common boundary intersection of 2 <= m <= d+1 disks, or None when
    their centers are affinely dependent: the Gram matrix of the normals
    n_i = c_i - c_m is zero below the smallest normal float, or its
    smallest singular value is at most 1e-12 of its largest.  Solves the
    Gram system for the center c in the affine hull of the centers, takes
    r^2 as the mean of r_i^2 - ||c - c_i||^2, and classifies with the span
    of the disks: a point when |r^2| <= tol span^2, a sphere above it when
    m <= d, else empty."""
    m, d = len(M), M.dimension
    base = M.centers[-1]
    N = M.centers[:-1] - base
    gram = N @ N.T
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[0] < sys.float_info.min or sv[-1] <= 1e-12 * sv[0]:
        return None
    rhs = 0.5 * (M.radii[-1] ** 2 + np.sum(N * N, axis=1) - M.radii[:-1] ** 2)
    center = np.linalg.solve(gram, rhs) @ N + base
    r2 = float(np.mean(M.radii**2 - squared_distances(center, M.centers)))
    tol_sq = tol * float(span(M.centers, M.radii)) ** 2
    if abs(r2) <= tol_sq:
        return PointIntersection(center)
    if r2 > tol_sq and m <= d:
        return SphereIntersection(ISphere(center, math.sqrt(r2), N))
    return EmptyIntersection()


def intersect_two(d1, d2, tol=DEFAULT_TOL):
    """Boundary intersection of two disks by Heron's formula: the sphere
    with center on the segment c1-c2 and normal c2 - c1.  Within tol * span
    of the pair, coincident centers give the whole sphere (FullSphereError)
    or nothing, and a center distance of r1 + r2 or |r1 - r2| a point."""
    c1, r1, c2, r2 = d1.center, d1.radius, d2.center, d2.radius
    diff = c2 - c1
    dist = math.sqrt(squared_distances(c2, c1[None])[0])
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


def poles(sphere, q, tol=DEFAULT_TOL):
    """e_q-poles of an i-sphere with independent normals N, one Gram solve
    per axis: u = e_q + N^T w with (N N^T) w = -N e_q is the projection of
    e_q onto the tangent space, and the poles are c -/+ r u / ||u||.  When
    ||u|| <= 2 tol the axis is degenerate, and both poles are c + r t for
    the first tangent direction t (c when there is none)."""
    N = sphere.normals
    u = np.linalg.solve(N @ N.T, -N[:, q]) @ N
    u[q] += 1.0
    c, r = sphere.center, sphere.radius
    norm = float(np.linalg.norm(u))
    if norm <= 2.0 * tol:
        tangent = np.linalg.svd(N, full_matrices=True)[2][len(N) :]
        point = c + r * tangent[0] if r != 0.0 and len(tangent) else c
        return Pole(point, q, SOUTH, degenerate_axis=True), Pole(point, q, NORTH, degenerate_axis=True)
    unit = u / norm
    return Pole(c - r * unit, q, SOUTH), Pole(c + r * unit, q, NORTH)


def doubtful(M, subset):
    """Whether the skip of a subset with affinely dependent centers is in
    doubt: the plain SVD of its Gram matrix has a singular-value ratio above
    (2kd + 2k^2 + 1) 2^-53 for k normals in R^d, the most that rounding gives
    exactly dependent centers, or the matrix is nonzero below the smallest
    normal float."""
    normals = M.centers[list(subset[:-1])] - M.centers[subset[-1]]
    (k, d), sv = normals.shape, np.linalg.svd(normals @ normals.T, compute_uv=False)
    if sv[0] < sys.float_info.min:
        return bool(sv[0] > 0.0)
    return bool(sv[-1] / sv[0] > (2 * k * d + 2 * k * k + 1) * 2.0**-53)


def candidate_poles(M, tol=DEFAULT_TOL):
    """Yield ``(subset, poles, doubtful)`` per subset of up to d+1 disks in
    canonical order; ``doubtful`` flags a subset of at most d disks skipped
    in doubt for its affinely dependent centers."""
    m, d = len(M), M.dimension
    for i in range(m):
        entries = []
        for q in range(d):
            entries.extend(poles(ISphere(M.centers[i], M.radii[i], np.empty((0, d))), q))
        yield (i,), entries, False
    for k in range(2, min(m, d + 1) + 1):
        for subset in combinations(range(m), k):
            kind = reduce(M.subsystem(subset), tol)
            if kind is None:
                yield subset, [], k <= d and doubtful(M, subset)
                continue
            if isinstance(kind, EmptyIntersection):
                continue
            entries = []
            if isinstance(kind, PointIntersection):
                for q in range(d):
                    entries.append(Pole(kind.point, q, SOUTH))
                    entries.append(Pole(kind.point, q, NORTH))
            else:
                for q in range(d):
                    entries.extend(poles(kind.sphere, q, tol))
            yield subset, entries, False


def retained(M, tol=DEFAULT_TOL):
    """Yield ``(subset, pole)`` for every pole contained in all disks."""
    for subset, entries, _ in candidate_poles(M, tol):
        if not entries:
            continue
        points = np.array([p.point for p in entries])
        for keep, pole in zip(contains_all_batch(M, points, tol), entries):
            if keep:
                yield subset, pole


def retained_pole_points(M, tol=DEFAULT_TOL):
    return [pole.point for _, pole in retained(M, tol)]


def disjoint_pair(M, tol=DEFAULT_TOL):
    """Whether some pair's center distance exceeds the sum of the two
    containment reaches r + tol * r by the factor 1 + 1e-12.  The package's
    pair round certifies a little above this (:func:`cechkit.cech.dual_bound`);
    in between it walks the pair and keeps nothing."""
    reach = [r + tol * r for r in M.radii]
    return any(
        math.dist(M.centers[i], M.centers[j]) > (reach[i] + reach[j]) * (1.0 + 1e-12)
        for i, j in combinations(range(len(M)), 2)
    )


def is_cech_system(M, tol=DEFAULT_TOL):
    """The decision: the first retained pole in canonical order.  A FALSE
    walk warns when it skipped a subset in doubt, and a TRUE one never; a
    disjoint pair decides FALSE with nothing walked.  Every other FALSE
    decision walks here, where the package may certify it unwalked, so the
    two warnings agree on systems without a doubtful subset."""
    if len(M) == 1:
        return CechDecision(True, witness=M.centers[0].copy(), generating_subset=(0,))
    if disjoint_pair(M, tol):
        return CechDecision(False)
    warn = False
    for subset, entries, doubt in candidate_poles(M, tol):
        warn = warn or doubt
        if not entries:
            continue
        points = np.array([p.point for p in entries])
        hit = np.flatnonzero(contains_all_batch(M, points, tol))
        if hit.size:
            return CechDecision(True, entries[int(hit[0])].point, subset)
    return CechDecision(False, degeneracy_warning=warn)


def cech_scale(M, eta=1e-6, tol=DEFAULT_TOL, decide=is_cech_system):
    """The bisection of :func:`cechkit.cech_scale`, deciding each step with
    ``decide(rescale(M, lam), tol)`` on a freshly rescaled system.  Its
    warning is that of the FALSE decision of its lower end."""
    nu = rips_scale(M)
    if nu == 0.0:
        return ScaleReport(0.0, 0.0, eta, (0.0, 0.0), 0, witness=M.centers[0].copy())
    decision = decide(rescale(M, nu), tol)
    if decision.is_cech:
        return ScaleReport(nu, nu, eta, (nu, nu), 0, decision.witness)
    lo, hi = nu, jung_factor(M.dimension) * nu
    witness = None
    warn = decision.degeneracy_warning
    iterations = 0
    while hi - lo > eta:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # adjacent floats: eta is below their spacing
            break
        decision = decide(rescale(M, mid), tol)
        iterations += 1
        if decision.is_cech:
            hi = mid
            witness = decision.witness
        else:
            lo = mid
            warn = decision.degeneracy_warning
    if witness is None:
        witness = decide(rescale(M, hi), tol).witness
    return ScaleReport(nu, hi, eta, (lo, hi), iterations, witness, warn)


def exact_cech_scale(M):
    """The largest of the Rips scale and every valid
    :func:`cechkit.cech.subset_roots` root over all subsets of 3 to d+1
    disks: the full enumeration that the basis search of
    :func:`cechkit.cech.cech_basis` replaces."""
    scale = rips_scale(M)
    for j in range(3, min(len(M), M.dimension + 1) + 1):
        roots = subset_roots(M.centers, M.radii, np.array(list(combinations(range(len(M)), j))))
        scale = float(np.max(roots, initial=scale, where=~np.isnan(roots)))
    return scale


def build_filtration(M, max_dim, eta=1e-6, tol=DEFAULT_TOL):
    """One :func:`cech_scale` per subset of size >= 3, then the facet clamp."""
    m = len(M)
    scales = {(i,): 0.0 for i in range(m)}
    for i, j in combinations(range(m), 2):
        dist = float(np.linalg.norm(M.centers[i] - M.centers[j]))
        scales[(i, j)] = dist / float(M.radii[i] + M.radii[j])
    for k in range(3, max_dim + 2):
        for subset in combinations(range(m), k):
            scale = cech_scale(M.subsystem(subset), eta, tol).cech_scale
            facet_max = max(scales[subset[:p] + subset[p + 1 :]] for p in range(k))
            scales[subset] = max(scale, facet_max)
    simplices = sorted((WeightedSimplex(v, s) for v, s in scales.items()), key=WeightedSimplex.sort_key)
    return Filtration(tuple(simplices), max_dim)


def preprocess(M, tol=DEFAULT_TOL):
    """Kept indices of :func:`cechkit.geometry.preprocess`, one disk pair at a time."""
    m = len(M)
    drop = [False] * m
    for i in range(m):
        for j in range(m):
            if i == j or drop[j]:
                continue
            dist = float(np.linalg.norm(M.centers[i] - M.centers[j]))
            scale = tol * float(span(M.centers[[i, j]], M.radii[[i, j]]))
            identical = dist <= scale and abs(M.radii[i] - M.radii[j]) <= scale
            if identical:
                if i < j:
                    drop[j] = True
            elif dist + M.radii[i] <= M.radii[j] + scale:
                # D_i inside D_j: D_j is redundant for the intersection.
                drop[j] = True
    return tuple(i for i in range(m) if not drop[i])


def aabb_minimal(M, tol=DEFAULT_TOL):
    d = M.dimension
    lows = [[] for _ in range(d)]
    highs = [[] for _ in range(d)]
    all_points = []
    warn = False
    for _, entries, doubt in candidate_poles(M, tol):
        warn = warn or doubt
        if not entries:
            continue
        points = np.array([p.point for p in entries])
        for keep, pole in zip(contains_all_batch(M, points, tol), entries):
            if not keep:
                continue
            all_points.append(pole.point)
            bucket = lows if pole.orientation == SOUTH else highs
            bucket[pole.axis].append(float(pole.point[pole.axis]))
    if not all_points:
        return None
    stacked = np.array(all_points)
    intervals = np.empty((d, 2))
    for q in range(d):
        intervals[q, 0] = min(lows[q]) if lows[q] else float(np.min(stacked[:, q]))
        intervals[q, 1] = max(highs[q]) if highs[q] else float(np.max(stacked[:, q]))
        if not lows[q] or not highs[q]:
            warn = True
    return Box(intervals, degeneracy_warning=warn)


def render_svg(M, tol=DEFAULT_TOL, size=640):
    lo = np.min(M.centers - M.radii[:, None], axis=0)
    hi = np.max(M.centers + M.radii[:, None], axis=0)
    span = float(np.max(hi - lo))
    pad = 0.05 * span
    lo, span = lo - pad, span + 2 * pad
    scale = size / span

    def sx(x):
        return (x - lo[0]) * scale

    def sy(y):
        return size - (y - lo[1]) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">'
    ]
    for disk in M.disks:
        parts.append(
            f'<circle cx="{sx(disk.center[0]):.2f}" cy="{sy(disk.center[1]):.2f}" '
            f'r="{disk.radius * scale:.2f}" fill="steelblue" fill-opacity="0.15" '
            f'stroke="steelblue" stroke-width="1.5"/>'
        )
    box = aabb_minimal(M, tol)
    if box is not None:
        w = (box.upper[0] - box.lower[0]) * scale
        h = (box.upper[1] - box.lower[1]) * scale
        parts.append(
            f'<rect x="{sx(box.lower[0]):.2f}" y="{sy(box.upper[1]):.2f}" '
            f'width="{max(w, 1.0):.2f}" height="{max(h, 1.0):.2f}" '
            f'fill="none" stroke="crimson" stroke-width="1.5" stroke-dasharray="6 3"/>'
        )
    for _, pole in retained(M, tol):
        parts.append(
            f'<circle cx="{sx(pole.point[0]):.2f}" cy="{sy(pole.point[1]):.2f}" '
            f'r="3" fill="crimson"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
