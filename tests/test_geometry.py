"""Disk membership, sphere intersections, poles and preprocessing."""

import ast
import math
import sys

import numpy as np
import pytest

from cechkit import (
    DegenerateConfiguration,
    DimensionMismatch,
    Disk,
    DiskSystem,
    EmptyIntersection,
    FullSphereError,
    GeometryError,
    ISphere,
    PointIntersection,
    SphereIntersection,
    boundary_poles,
    build_filtration,
    cech_scale,
    contains,
    exact_cech_scale,
    intersect_two_spheres,
    is_cech_system,
    poles_codim1,
    poles_general,
    preprocess,
    reduce_sphere_system,
    rescale,
)
import cechkit.cech
import cechkit.geometry
import reference_poles as ref
from cechkit.geometry import contains_all_batch, fold, row_spans, span, squared_distances
from conftest import random_system

SQRT2 = math.sqrt(2.0)


def random_isphere(rng, d, k):
    """Random i-sphere with k independent normals in R^d."""
    while True:
        normals = rng.standard_normal((k, d))
        sv = np.linalg.svd(normals, compute_uv=False)
        if sv[-1] > 1e-3 * sv[0]:
            break
    center = rng.uniform(-2.0, 2.0, d)
    radius = float(rng.uniform(0.2, 3.0))
    return ISphere(center, radius, normals)


# ---------------------------------------------------------------------------
# contains
# ---------------------------------------------------------------------------


def test_contains_center():
    assert contains(Disk(np.zeros(2), 1.0), [0.0, 0.0], tol=0.0)


def test_contains_boundary_point_closed():
    assert contains(Disk(np.zeros(2), 1.0), [1.0, 0.0], tol=0.0)


def test_contains_tangency_point(tangent_point_system):
    assert contains(tangent_point_system[0], [3.0, 0.0, 0.0], tol=1e-9)


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        contains(Disk(np.zeros(2), 1.0), [0.0, 0.0, 0.0])


def test_contains_accepts_every_witness_of_the_walk():
    # The walk's witness passed contains_all_batch in every disk, so the
    # public test must accept it in each disk at the same tol, tol 0
    # included, where a distance one ulp longer would reject it.
    rng = np.random.default_rng(5)
    witnesses, rejected = 0, []
    for n in range(3000):
        d, m = int(rng.integers(1, 4)), int(rng.integers(2, 8))
        M = random_system(rng, d, m)
        M = rescale(M, 1.0001 * exact_cech_scale(M))
        for tol in (0.0, 1e-12, 1e-9):
            decision = is_cech_system(M, tol)
            if decision.is_cech:
                witnesses += 1
                rejected += [(n, tol, i) for i in range(m) if not contains(M[i], decision.witness, tol)]
    assert rejected == []
    assert witnesses > 8000


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9])
def test_contains_is_the_batch_test_on_one_disk(tol):
    # Points on the reach r (1 + tol) of a disk and a few ulps inside and
    # outside it: contains(disk, p) is the batch test of the one-disk system.
    rng = np.random.default_rng(257)
    outcomes = set()
    for _ in range(300):
        d = int(rng.integers(1, 4))
        disk = Disk(rng.uniform(-2.0, 2.0, d), float(rng.uniform(0.1, 3.0)))
        u = rng.standard_normal((1, d))
        reach = disk.radius + tol * disk.radius
        points = disk.center + u / np.linalg.norm(u) * reach * (1.0 + np.arange(-4, 5)[:, None] * 2.0**-53)
        batch = contains_all_batch(DiskSystem((disk,)), points, tol)
        assert [contains(disk, p, tol) for p in points] == batch.tolist()
        outcomes.update(batch[3:6])
    assert outcomes == {True, False}


def _distance_spellings(source):
    """(function, line) of each point-to-center distance that ``source``
    spells outside ``squared_distances``: np.linalg.norm of a difference of
    two arrays or of a name bound to one, such a difference raised to ** 2,
    or an in-place square x *= x."""

    def difference(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and all(isinstance(side, (ast.Name, ast.Attribute, ast.Subscript)) for side in (node.left, node.right)))

    found = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef) or func.name == "squared_distances":
            continue
        nodes = list(ast.walk(func))
        bound = {target.id for node in nodes if isinstance(node, ast.Assign) and difference(node.value)
                 for target in node.targets if isinstance(target, ast.Name)}
        for node in nodes:
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("linalg.norm"):
                arg = node.args[0]
                spelt = difference(arg) or (isinstance(arg, ast.Name) and arg.id in bound)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
                spelt = difference(node.left) and ast.unparse(node.right) == "2"
            else:
                spelt = (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult)
                         and ast.unparse(node.target) == ast.unparse(node.value))
            if spelt:
                found.add((func.name, node.lineno))
    return found


# The spelling each distance had before the kernel: (module, function,
# kernel call, old code).
OLD_SPELLINGS = [
    (cechkit.geometry, "contains", "bool(np.sqrt(squared_distances(p, disk.center[None]))[0] <=",
     "bool(float(np.linalg.norm(p - disk.center)) <="),
    (cechkit.geometry, "center_distances", "return np.sqrt(squared_distances(centers, centers))",
     "diff = centers[:, None, :] - centers\n    diff *= diff\n    return np.sqrt(np.add.reduce(diff, axis=2))"),
    (cechkit.geometry, "contains_all_batch",
     "distances = np.sqrt(squared_distances(points[start : start + CONTAINS_CHUNK], system.centers))",
     "diff = points[start : start + CONTAINS_CHUNK, None, :] - system.centers\n"
     "        diff *= diff\n        distances = np.sqrt(np.add.reduce(diff, axis=2))"),
    (cechkit.geometry, "intersect_two_spheres", "dist = math.sqrt(squared_distances(c2, c1[None])[0])",
     "dist = float(np.linalg.norm(diff))"),
    (cechkit.geometry, "reduce_sphere_system", "squared_distances(center, M.centers)",
     "np.sum((center - M.centers) ** 2, axis=1)"),
    (cechkit.geometry, "pole_block", "fold(np.add, sq - squared_distances(center, members))",
     "fold(np.add, sq - np.sum((center[:, None, :] - members) ** 2, axis=2))"),
    (cechkit.cech, "_basis_rounds", "np.sqrt(squared_distances(point, M.centers))",
     "np.sqrt(np.sum((M.centers - point) ** 2, axis=1))"),
    (cechkit.cech, "dual_bound", "b @ squared_distances(mean, centers)", "b @ np.sum((mean - centers) ** 2, axis=1)"),
]


@pytest.mark.parametrize("module", [cechkit.geometry, cechkit.cech], ids=["geometry", "cech"])
def test_point_to_center_distances_go_through_the_kernel(module):
    assert _distance_spellings(open(module.__file__, encoding="utf-8").read()) == set()


@pytest.mark.parametrize("module, function, kernel, old", OLD_SPELLINGS, ids=[s[1] for s in OLD_SPELLINGS])
def test_the_kernel_guard_finds_each_old_spelling(module, function, kernel, old):
    # A copy of the module with one site restored to its old spelling.
    source = open(module.__file__, encoding="utf-8").read()
    assert source.count(kernel) == 1
    assert [name for name, _ in _distance_spellings(source.replace(kernel, old))] == [function]


def _old_kernel(points, centers):
    """The kernel's spelling before it summed coordinate slices."""
    diff = points[..., None, :] - centers
    diff *= diff
    return np.add.reduce(diff, axis=-1)


def _left_to_right(points, centers):
    """sum_q (p_q - c_q)^2, one coordinate at a time from q = 0, in Python floats."""
    points, centers = np.broadcast_arrays(points[..., None, :], centers)
    total = np.zeros(points.shape[:-1])
    for index in np.ndindex(total.shape):
        for p, c in zip(points[index].tolist(), centers[index].tolist()):
            total[index] += (p - c) * (p - c)
    return total


def _kernel_shapes(rng, d):
    """(points, centers) in the shapes the package passes the kernel:
    (n, d) x (m, d), (N, d) x (N, j, d) and (d,) x (m, d)."""
    yield rng.standard_normal((40, d)), rng.standard_normal((9, d)) * 3.0
    yield rng.uniform(-1.0, 1.0, (30, d)), rng.uniform(-1.0, 1.0, (30, 3, d)) * 10.0 ** rng.integers(-8, 8, (30, 3, 1))
    yield rng.standard_normal(d), rng.standard_normal((12, d))


# Coordinate differences 1, x, x with 1 + x^2 = 1 and 1 + 2 x^2 > 1: only
# the sum from coordinate 0 gives 1.  Numpy spells the row [1, 2^-53, 2^-53]
# and below 8 entries adds it in this order.
ADVERSARIAL = (1.0, 1.2 * 2.0**-27, 1.2 * 2.0**-27)


@pytest.mark.parametrize("d", range(1, 11))
def test_kernel_adds_coordinates_in_axis_order(d):
    # Bit for bit the old reduction for d <= 7; from 8 numpy adds pairwise,
    # and the kernel keeps adding in axis order.
    rng = np.random.default_rng(700 + d)
    reference = _old_kernel if d <= 7 else _left_to_right
    for points, centers in _kernel_shapes(rng, d):
        got = squared_distances(points, centers)
        assert got.shape == np.broadcast_shapes(points[..., None, :].shape, centers.shape)[:-1]
        assert got.tobytes() == reference(points, centers).tobytes()
    if d >= 3:
        row = np.zeros((1, d))
        row[0, :3] = ADVERSARIAL
        got = squared_distances(row, np.zeros((1, d)))
        assert got.tobytes() == reference(row, np.zeros((1, d))).tobytes()
        assert got[0, 0] == 1.0 < 1.0 + 2 * ADVERSARIAL[1] ** 2
        assert np.add.reduce(np.array([1.0, 2.0**-53, 2.0**-53])) == 1.0


@pytest.mark.parametrize("ufunc", [np.add, np.maximum, np.minimum])
def test_fold_is_the_reduction_below_8_entries(ufunc):
    rng = np.random.default_rng(709)
    for k in range(1, 8):
        a = rng.standard_normal((50, 4, k)) * 10.0 ** rng.integers(-20, 20, (50, 4, k))
        assert fold(ufunc, a).tobytes() == ufunc.reduce(a, axis=-1).tobytes()
        assert fold(ufunc, a[:, 1]).tobytes() == ufunc.reduce(a[:, 1], axis=-1).tobytes()
    if ufunc is np.add:  # pole_block's column lengths
        for d in range(1, 8):
            proj = rng.standard_normal((50, d, d)) * 10.0 ** rng.integers(-20, 20, (50, d, d))
            lengths = np.sqrt(fold(np.add, (proj * proj).transpose(0, 2, 1)))
            assert lengths.tobytes() == np.linalg.norm(proj, axis=1).tobytes()


def test_row_spans_are_the_span_of_each_row():
    # pole_block's per-subset tolerance unit: span on each row, bit for bit.
    rng = np.random.default_rng(710)
    for d in range(1, 5):
        for j in range(1, 6):
            centers = rng.standard_normal((60, j, d)) * 10.0 ** rng.integers(-6, 6, (60, 1, 1))
            radii = rng.uniform(0.1, 2.0, (60, j)) * 10.0 ** rng.integers(-6, 6, (60, 1))
            want = [span(c, r) for c, r in zip(centers, radii)]
            assert row_spans(centers, radii).tobytes() == np.array(want).tobytes()


# ---------------------------------------------------------------------------
# intersect_two_spheres
# ---------------------------------------------------------------------------


def test_two_spheres_external_tangency():
    kind = intersect_two_spheres(Disk(np.zeros(2), 1.0), Disk(np.array([2.0, 0.0]), 1.0))
    assert isinstance(kind, PointIntersection)
    np.testing.assert_allclose(kind.point, [1.0, 0.0], atol=1e-12)


def test_two_spheres_lens_circle(tangent_point_system):
    kind = intersect_two_spheres(tangent_point_system[0], tangent_point_system[1])
    assert isinstance(kind, SphereIntersection)
    sphere = kind.sphere
    np.testing.assert_allclose(sphere.center, [4.0, 0.0, 0.0], atol=1e-12)
    assert sphere.radius == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sphere.normals, [[0.0, -2.0, 0.0]], atol=1e-12)


def test_two_spheres_separated():
    kind = intersect_two_spheres(Disk(np.zeros(2), 1.0), Disk(np.array([5.0, 0.0]), 1.0))
    assert isinstance(kind, EmptyIntersection)


def test_two_spheres_internal_tangency():
    kind = intersect_two_spheres(Disk(np.zeros(2), 2.0), Disk(np.array([1.0, 0.0]), 1.0))
    assert isinstance(kind, PointIntersection)
    np.testing.assert_allclose(kind.point, [2.0, 0.0], atol=1e-12)


def test_two_spheres_concentric_identical_is_full_sphere():
    with pytest.raises(FullSphereError):
        intersect_two_spheres(Disk(np.zeros(2), 1.0), Disk(np.zeros(2), 1.0))


def test_two_spheres_concentric_distinct_radii_empty():
    kind = intersect_two_spheres(Disk(np.zeros(2), 1.0), Disk(np.zeros(2), 2.0))
    assert isinstance(kind, EmptyIntersection)


# ---------------------------------------------------------------------------
# poles_codim1
# ---------------------------------------------------------------------------


def test_poles_codim1_axis_orthogonal_to_normal():
    sphere = ISphere(np.array([4.0, 0.0, 0.0]), 1.0, np.array([[0.0, 2.0, 0.0]]))
    south, north = poles_codim1(sphere, 0)
    np.testing.assert_allclose(south.point, [3.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(north.point, [5.0, 0.0, 0.0], atol=1e-12)
    assert not south.degenerate_axis and not north.degenerate_axis


def test_poles_codim1_degenerate_axis():
    sphere = ISphere(np.array([4.0, 0.0, 0.0]), 1.0, np.array([[0.0, 2.0, 0.0]]))
    south, north = poles_codim1(sphere, 1)
    assert south.degenerate_axis and north.degenerate_axis
    assert south.point[1] == pytest.approx(0.0, abs=1e-12)
    assert north.point[1] == pytest.approx(0.0, abs=1e-12)


def test_poles_codim1_mixed_sign_direction():
    sphere = ISphere(np.zeros(2), 2.0, np.array([[1.0, 1.0]]))
    south, north = poles_codim1(sphere, 0)
    np.testing.assert_allclose(south.point, [-SQRT2, SQRT2], atol=1e-12)
    np.testing.assert_allclose(north.point, [SQRT2, -SQRT2], atol=1e-12)


def test_poles_codim1_component_magnitudes():
    # |pi_i(pole - c)| must equal r * sqrt(||N||^2 - N_i^2) / ||N|| for
    # i = q and r * |N_q N_i| / ||N||^2-style magnitudes for the rest.
    rng = np.random.default_rng(3)
    for _ in range(200):
        sphere = random_isphere(rng, int(rng.integers(2, 5)), 1)
        n = sphere.normals[0]
        nn = float(n @ n)
        for q in range(sphere.dimension):
            south, north = poles_codim1(sphere, q)
            if south.degenerate_axis:
                continue
            expected_q = sphere.radius * math.sqrt(max(nn - n[q] ** 2, 0.0) / nn)
            assert abs(north.point[q] - sphere.center[q]) == pytest.approx(
                expected_q, abs=1e-9 * (1 + sphere.radius)
            )
            assert abs(south.point[q] - sphere.center[q]) == pytest.approx(
                expected_q, abs=1e-9 * (1 + sphere.radius)
            )


def test_poles_codim1_is_the_closed_form_bit_for_bit():
    # The reference poles of tests/reference_poles.py come from this
    # wrapper; the closed form v = e_q - (n_q/||n||^2) n must not drift.
    rng = np.random.default_rng(23)
    for i in range(500):
        d = int(rng.integers(2, 5))
        n = rng.standard_normal(d)
        if i % 4 == 0:  # axis-aligned: every other axis is degenerate
            n = np.zeros(d)
            n[rng.integers(d)] = rng.uniform(0.1, 5.0)
        c, r = rng.uniform(-2.0, 2.0, d), float(rng.uniform(0.2, 3.0))
        for q in range(d):
            south, north = poles_codim1(ISphere(c, r, n[None, :]), q)
            v = -(n[q] / float(n @ n)) * n
            v[q] += 1.0
            norm = float(np.linalg.norm(v))
            assert south.degenerate_axis == (norm <= 2e-9)
            if not south.degenerate_axis:
                np.testing.assert_array_equal(south.point, c - r * (v / norm))
                np.testing.assert_array_equal(north.point, c + r * (v / norm))


def test_poles_codim1_axis_out_of_range():
    sphere = ISphere(np.zeros(2), 1.0, np.array([[1.0, 0.0]]))
    with pytest.raises(GeometryError):
        poles_codim1(sphere, 2)


# ---------------------------------------------------------------------------
# reduce_sphere_system
# ---------------------------------------------------------------------------


def test_reduce_single_point(tangent_point_system):
    kind = reduce_sphere_system(tangent_point_system)
    assert isinstance(kind, PointIntersection)
    np.testing.assert_allclose(kind.point, [3.0, 0.0, 0.0], atol=1e-7)


def test_reduce_two_disks_matches_two_spheres():
    M = DiskSystem.from_arrays([[0.0, 0.0], [2.0, 0.0]], [1.0, 1.0])
    kind = reduce_sphere_system(M)
    assert isinstance(kind, PointIntersection)
    np.testing.assert_allclose(kind.point, [1.0, 0.0], atol=1e-12)


def test_reduce_three_disk_circle():
    M = DiskSystem.from_arrays(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0]], [1.0, 1.0, 1.0]
    )
    kind = reduce_sphere_system(M)
    assert isinstance(kind, SphereIntersection)
    sphere = kind.sphere
    np.testing.assert_allclose(sphere.center, [0.5, 0.375, 0.0], atol=1e-12)
    assert sphere.radius**2 == pytest.approx(0.609375, abs=1e-12)
    # normals span the same plane as {(-1,0,0), (-0.5,-1,0)}
    reference = np.array([[-1.0, 0.0, 0.0], [-0.5, -1.0, 0.0]])
    stacked = np.vstack([sphere.normals, reference])
    assert np.linalg.matrix_rank(stacked, tol=1e-9) == 2


def test_reduce_collinear_centers_degenerate():
    M = DiskSystem.from_arrays(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [1.0, 1.0, 1.0]
    )
    with pytest.raises(DegenerateConfiguration) as exc:
        reduce_sphere_system(M)
    assert exc.value.rank == 1


def test_reduce_disjoint_empty():
    M = DiskSystem.from_arrays([[0.0, 0.0], [5.0, 0.0]], [1.0, 1.0])
    assert isinstance(reduce_sphere_system(M), EmptyIntersection)


def test_reduce_two_path_consistency():
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(2, 5))
        c1, c2 = rng.uniform(0, 1, d), rng.uniform(0, 1, d)
        r1, r2 = rng.uniform(0.3, 1.0), rng.uniform(0.3, 1.0)
        d1, d2 = Disk(c1, float(r1)), Disk(c2, float(r2))
        try:
            direct = intersect_two_spheres(d1, d2)
        except FullSphereError:  # pragma: no cover - measure-zero event
            continue
        via_gram = reduce_sphere_system(DiskSystem((d1, d2)))
        assert type(direct) is type(via_gram)
        if isinstance(direct, SphereIntersection):
            np.testing.assert_allclose(
                direct.sphere.center, via_gram.sphere.center, atol=1e-9
            )
            assert direct.sphere.radius == pytest.approx(via_gram.sphere.radius, abs=1e-9)
        elif isinstance(direct, PointIntersection):
            np.testing.assert_allclose(direct.point, via_gram.point, atol=1e-9)


def test_reduce_boundary_consistency_and_radius_welldefined():
    rng = np.random.default_rng(13)
    found = 0
    while found < 100:
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, d + 1))
        M = DiskSystem.from_arrays(
            rng.uniform(0, 1, (m, d)), rng.uniform(0.6, 1.2, m)
        )
        try:
            kind = reduce_sphere_system(M)
        except DegenerateConfiguration:  # pragma: no cover
            continue
        if not isinstance(kind, SphereIntersection):
            continue
        found += 1
        sphere = kind.sphere
        # r^2 = r_k^2 - ||c - c_k||^2 must agree for every generator k
        r2 = M.radii**2 - np.sum((sphere.center - M.centers) ** 2, axis=1)
        assert np.all(np.abs(r2 - sphere.radius**2) <= 1e-8 * (1 + np.abs(r2)))
        # sampled points of the sphere lie on all generating boundaries
        tangent = sphere.tangent_basis()
        coeff = rng.standard_normal((50, tangent.shape[0]))
        coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
        samples = sphere.center + sphere.radius * coeff @ tangent
        for j in range(m):
            dist = np.linalg.norm(samples - M.centers[j], axis=1)
            assert np.all(np.abs(dist - M.radii[j]) <= 1e-8)


def test_reduce_rejects_bad_sizes():
    M = DiskSystem.from_arrays([[0.0, 0.0]], [1.0])
    with pytest.raises(GeometryError):
        reduce_sphere_system(M)
    M4 = DiskSystem.from_arrays(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [1.0, 1.0, 1.0, 1.0]
    )
    with pytest.raises(GeometryError):
        reduce_sphere_system(M4)


# ---------------------------------------------------------------------------
# poles_general
# ---------------------------------------------------------------------------


def test_poles_general_three_disk_axis():
    M = DiskSystem.from_arrays(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 0.0]], [1.0, 1.0, 1.0]
    )
    sphere = reduce_sphere_system(M).sphere
    south, north = poles_general(sphere, 2)
    r = math.sqrt(0.609375)
    np.testing.assert_allclose(south.point, [0.5, 0.375, -r], atol=1e-12)
    np.testing.assert_allclose(north.point, [0.5, 0.375, r], atol=1e-12)


def test_poles_general_matches_codim1_on_circle():
    sphere = ISphere(np.array([4.0, 0.0, 0.0]), 1.0, np.array([[0.0, 2.0, 0.0]]))
    south, north = poles_general(sphere, 0)
    np.testing.assert_allclose(south.point, [3.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(north.point, [5.0, 0.0, 0.0], atol=1e-12)


def test_poles_general_agrees_with_codim1_random():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        sphere = random_isphere(rng, int(rng.integers(2, 5)), 1)
        q = int(rng.integers(0, sphere.dimension))
        s1, n1 = poles_codim1(sphere, q)
        s2, n2 = poles_general(sphere, q)
        assert s1.degenerate_axis == s2.degenerate_axis
        if s1.degenerate_axis:
            assert s1.point[q] == pytest.approx(s2.point[q], abs=1e-9)
        else:
            np.testing.assert_allclose(s1.point, s2.point, atol=1e-9)
            np.testing.assert_allclose(n1.point, n2.point, atol=1e-9)


def test_poles_membership_and_extremality():
    rng = np.random.default_rng(19)
    for _ in range(200):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, d))
        sphere = random_isphere(rng, d, k)
        tangent = sphere.tangent_basis()
        coeff = rng.standard_normal((1000, tangent.shape[0]))
        coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
        samples = sphere.center + sphere.radius * coeff @ tangent
        for q in range(d):
            south, north = poles_general(sphere, q)
            for pole in (south, north):
                radial = float(np.linalg.norm(pole.point - sphere.center))
                assert abs(radial - sphere.radius) <= 1e-9 * (1 + sphere.radius)
                ortho = sphere.normals @ (pole.point - sphere.center)
                norms = np.linalg.norm(sphere.normals, axis=1)
                assert np.all(np.abs(ortho) <= 1e-9 * norms * max(sphere.radius, 1.0))
            if south.degenerate_axis:
                continue
            assert north.point[q] >= np.max(samples[:, q]) - 1e-9
            assert south.point[q] <= np.min(samples[:, q]) + 1e-9


def test_poles_general_dependent_normals():
    sphere = ISphere(np.zeros(3), 1.0, np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]))
    with pytest.raises(DegenerateConfiguration):
        poles_general(sphere, 1)


# ---------------------------------------------------------------------------
# Rank test: the determinant screen against the plain SVD test
# ---------------------------------------------------------------------------


def _svd_rank_deficient(gram):
    """The rank test before the determinant screen: an SVD of every matrix."""
    sv = np.linalg.svd(gram, compute_uv=False)
    top = sv[..., 0]
    small = top < sys.float_info.min
    deficient = small | (sv[..., -1] <= 1e-12 * top)
    rank = np.where(small, 0, np.sum(sv > 1e-12 * np.maximum(top, 1e-300)[..., None], axis=-1))
    return deficient, rank


def _gram_stack(rng, k, n, log_cond):
    """n Gram matrices N N^T of k normals in R^(k+1) whose singular values
    run from 1 down to 10^log_cond, at magnitudes from 1e-3 to 1e3."""
    d = k + 1
    left = np.linalg.qr(rng.standard_normal((n, k, k)))[0]
    right = np.linalg.qr(rng.standard_normal((n, d, k)))[0].transpose(0, 2, 1)
    logs = rng.uniform(log_cond, 0.0, (n, k))
    logs[:, 0], logs[:, -1] = 0.0, log_cond
    normals = left @ (10.0 ** (0.5 * logs)[:, :, None] * right) * 10.0 ** rng.uniform(-1.5, 1.5, (n, 1, 1))
    return normals @ normals.transpose(0, 2, 1)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_rank_screen_matches_svd_test(k):
    from cechkit.geometry import _rank_deficient

    rng = np.random.default_rng(700 + k)
    stacks = [_gram_stack(rng, k, 400, log_cond) for log_cond in (-2, -8, -11.5, -12, -12.5, -14, -17)]
    if k > 1:
        normals = rng.standard_normal((200, k, k + 1))
        normals[:, -1] = normals[:, 0] * rng.choice([-2.0, 0.5, 1.0], (200, 1))  # exactly dependent rows
        stacks.append(normals @ normals.transpose(0, 2, 1))
    stacks.append(np.zeros((3, k, k)))
    # Well conditioned but below the smallest normal float: deficient, rank 0.
    stacks.append(_gram_stack(rng, k, 20, -2) * 2.0**-1040)
    gram = np.concatenate(stacks)
    got, want = _rank_deficient(gram), _svd_rank_deficient(gram)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert want[0].any() and not want[0].all()  # both outcomes occur
    for single in gram[::37]:
        got, want = _rank_deficient(single), _svd_rank_deficient(single)
        assert bool(got[0]) == bool(want[0]) and int(got[1]) == int(want[1])


def test_require_full_rank_message_and_rank():
    from cechkit.geometry import _require_full_rank

    _require_full_rank(np.array([[2.0, 1.0], [1.0, 2.0]]), "rank {rank}")
    for gram, rank in ((np.array([[1.0, 2.0], [2.0, 4.0]]), 1), (np.zeros((3, 3)), 0)):
        with pytest.raises(DegenerateConfiguration, match=f"^Gram rank {rank} < 3$") as info:
            _require_full_rank(gram, "Gram rank {rank} < 3")
        assert info.value.rank == rank


# ---------------------------------------------------------------------------
# boundary_poles
# ---------------------------------------------------------------------------


def test_boundary_poles_unit_disk():
    south, north = boundary_poles(Disk(np.zeros(2), 1.0), 0)
    np.testing.assert_array_equal(south.point, [-1.0, 0.0])
    np.testing.assert_array_equal(north.point, [1.0, 0.0])


def test_boundary_poles_offset_disk():
    south, north = boundary_poles(Disk(np.array([4.0, 1.0, 0.0]), SQRT2), 1)
    np.testing.assert_array_equal(south.point, [4.0, 1.0 - SQRT2, 0.0])
    np.testing.assert_array_equal(north.point, [4.0, 1.0 + SQRT2, 0.0])


def test_boundary_poles_big_disk():
    south, north = boundary_poles(Disk(np.zeros(3), 3.0), 2)
    np.testing.assert_array_equal(south.point, [0.0, 0.0, -3.0])
    np.testing.assert_array_equal(north.point, [0.0, 0.0, 3.0])


# ---------------------------------------------------------------------------
# Disk / DiskSystem validation and preprocessing
# ---------------------------------------------------------------------------


def test_disk_rejects_nonpositive_radius():
    with pytest.raises(GeometryError):
        Disk(np.zeros(2), 0.0)
    with pytest.raises(GeometryError):
        Disk(np.zeros(2), -1.0)


def test_disk_system_rejects_mixed_dimensions():
    with pytest.raises(DimensionMismatch):
        DiskSystem((Disk(np.zeros(2), 1.0), Disk(np.zeros(3), 1.0)))


@pytest.mark.parametrize(
    "centers, radii",
    [
        ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [1.0, 1.0]),
        ([[0.0, np.nan]], [1.0]),
        ([[0.0, 0.0]], [np.inf]),
        ([[0.0, 0.0]], [0.0]),
        ([0.0, 0.0], [1.0, 1.0]),
        (np.zeros((0, 2)), []),
        ([[-1e154, 0.0], [1e154, 0.0]], [1.01e154, 1.01e154]),
        ([[-1e200, 0.0], [1e200, 0.0]], [1.0, 1.0]),
        ([[0.0, 0.0], [7e-155, 0.0]], [7e-155, 7e-155]),
        ([[0.0, 0.0], [1e-160, 0.0]], [1e-160, 1e-160]),
    ],
    ids=["fewer-radii-than-centers", "nan-center", "inf-radius", "zero-radius", "1d-centers", "no-disks",
         "squared-extent-overflows-1e154", "squared-extent-overflows-1e200", "squared-extent-underflows-1e-154",
         "squared-extent-underflows-1e-160"],
)
def test_disk_system_from_arrays_rejects(centers, radii):
    with pytest.raises(GeometryError):
        DiskSystem.from_arrays(centers, radii)


def test_disk_system_owns_its_arrays():
    centers, radii = np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1.0, 2.0])
    M = DiskSystem.from_arrays(centers, radii)
    centers[0, 0], radii[0] = 5.0, 7.0
    assert M.centers[0, 0] == 0.0 and M.radii[0] == 1.0
    assert M[0].center[0] == 0.0 and M[0].radius == 1.0
    with pytest.raises(ValueError):
        M.centers[0, 0] = 5.0


def test_scale_and_filtration_build_no_disk(monkeypatch):
    M = random_system(np.random.default_rng(11), 2, 6)
    built = []
    original = Disk.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Disk, "__post_init__", counting)
    cech_scale(M)
    build_filtration(M, max_dim=2)
    assert len(built) == 0


def test_preprocess_drops_containing_disk():
    M = DiskSystem.from_arrays([[0.0, 0.0], [0.1, 0.0]], [1.0, 5.0])
    reduced, kept = preprocess(M)
    assert kept == (0,)
    assert len(reduced) == 1


def test_preprocess_dedups_identical():
    M = DiskSystem.from_arrays([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]], [1.0, 1.0, 1.0])
    reduced, kept = preprocess(M)
    assert kept == (0, 2)
    assert len(reduced) == 2


def test_preprocess_keeps_general_position():
    M = DiskSystem.from_arrays([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])
    reduced, kept = preprocess(M)
    assert kept == (0, 1)


def test_preprocess_matches_pairwise_loop():
    rng = np.random.default_rng(433)
    dropped = 0
    for d in (2, 3):
        for m in (2, 5, 9, 14):
            M = random_system(rng, d, m)
            pick = rng.integers(0, m, 4)
            # Two duplicates (one off by far less than tol), a disk around
            # one disk and a disk nested in another, shuffled in.
            centers = np.vstack([M.centers, M.centers[pick[:2]] + [[0.0], [1e-12]],
                                 M.centers[pick[2]] + 0.01, M.centers[pick[3]]])
            radii = np.concatenate([M.radii, M.radii[pick[:2]],
                                    [2.0 * M.radii[pick[2]] + 0.1, 0.3 * M.radii[pick[3]]]])
            order = rng.permutation(len(radii))
            N = DiskSystem.from_arrays(centers[order], radii[order])
            reduced, kept = preprocess(N)
            assert kept == ref.preprocess(N)
            np.testing.assert_array_equal(reduced.centers, N.centers[list(kept)])
            dropped += len(N) - len(kept)
    assert dropped >= 3 * 8
