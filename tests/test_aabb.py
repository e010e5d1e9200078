"""Minimal AABBs, box algebra, Helly equality and inverted intervals."""

import math
from itertools import combinations

import numpy as np
import pytest

from cechkit import (
    Box,
    Disk,
    DiskSystem,
    EmptyIntersection,
    GeometryError,
    PointIntersection,
    SphereIntersection,
    aabb_minimal,
    aabb_two_disks,
    boundary_poles,
    box_intersect,
    contains,
    intersect_two_spheres,
    is_cech_system,
    oracle_aabb,
    poles_codim1,
    poles_general,
    reduce_sphere_system,
    rescale,
    rips_scale,
)
import reference_poles
from conftest import DEGENERATE, hollow_simplex_system, intersecting_simplex_system, random_system

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Box
# ---------------------------------------------------------------------------


def test_box_states():
    proper = Box(np.array([[0.0, 1.0], [0.0, 2.0]]))
    assert proper.is_proper() and not proper.is_inverted() and not proper.is_degenerate()
    degenerate = Box(np.array([[1.0, 1.0], [0.0, 2.0]]))
    assert degenerate.is_degenerate() and degenerate.is_proper()
    inverted = Box(np.array([[2.0, 1.0], [0.0, 2.0]]))
    assert inverted.is_inverted() and not inverted.is_proper()


def test_box_contains_and_expand():
    box = Box(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert box.contains_point([0.5, 0.5])
    assert not box.contains_point([1.5, 0.5])
    assert box.expand(1.0).contains_point([1.5, 0.5])


def test_box_rejects_bad_shape():
    with pytest.raises(GeometryError):
        Box(np.zeros(3))


# ---------------------------------------------------------------------------
# aabb_two_disks
# ---------------------------------------------------------------------------


def test_two_disks_lens():
    box = aabb_two_disks(Disk(np.zeros(2), 1.0), Disk(np.array([1.0, 0.0]), 1.0))
    expected = [[0.0, 1.0], [-math.sqrt(3.0) / 2.0, math.sqrt(3.0) / 2.0]]
    np.testing.assert_allclose(box.intervals, expected, atol=1e-12)


def test_two_disks_disjoint():
    assert aabb_two_disks(Disk(np.zeros(2), 1.0), Disk(np.array([5.0, 0.0]), 1.0)) is None


def test_two_disks_lens_3d(tangent_point_system):
    box = aabb_two_disks(tangent_point_system[0], tangent_point_system[1])
    expected = [[3.0, 5.0], [1.0 - SQRT2, SQRT2 - 1.0], [-1.0, 1.0]]
    np.testing.assert_allclose(box.intervals, expected, atol=1e-12)


def test_two_disks_matches_minimal():
    rng = np.random.default_rng(43)
    for _ in range(100):
        d = int(rng.integers(2, 4))
        M = random_system(rng, d, 2)
        box, want = aabb_two_disks(M[0], M[1]), reference_poles.aabb_minimal(M)
        assert (box is None) == (want is None)
        if want is not None:
            np.testing.assert_allclose(box.intervals, want.intervals, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# aabb_minimal
# ---------------------------------------------------------------------------


def test_minimal_tangent_point(tangent_point_system):
    box = aabb_minimal(tangent_point_system)
    np.testing.assert_allclose(
        box.intervals, [[3.0, 3.0], [0.0, 0.0], [0.0, 0.0]], atol=1e-6
    )
    assert box.is_degenerate(tol=1e-6)


def test_minimal_empty_quad(empty_quad_system):
    assert aabb_minimal(empty_quad_system) is None


def test_minimal_single_disk():
    box = aabb_minimal(DiskSystem.from_arrays([[1.0, 2.0]], [3.0]))
    np.testing.assert_allclose(box.intervals, [[-2.0, 4.0], [-1.0, 5.0]], atol=1e-12)


def test_minimal_soundness():
    # sampled points of the intersection set lie inside the returned box
    rng = np.random.default_rng(47)
    total_inside = 0
    while total_inside < 10_000:
        d = int(rng.integers(2, 4))
        M = random_system(rng, d, int(rng.integers(2, 5)))
        box = aabb_minimal(M)
        if box is None:
            continue
        lo = np.max(M.centers - M.radii[:, None], axis=0)
        hi = np.min(M.centers + M.radii[:, None], axis=0)
        samples = rng.uniform(lo, hi, (2000, d))
        diff = samples[:, None, :] - M.centers[None, :, :]
        keep = np.all(np.linalg.norm(diff, axis=2) <= M.radii, axis=1)
        points = samples[keep]
        total_inside += points.shape[0]
        expanded = box.expand(1e-8)
        assert np.all(points >= expanded.lower) and np.all(points <= expanded.upper)


def test_minimal_faces_touched_by_retained_poles():
    # each face must be achieved exactly by a pole contained in all disks
    rng = np.random.default_rng(53)
    checked = 0
    while checked < 40:
        d = int(rng.integers(2, 4))
        M = random_system(rng, d, int(rng.integers(2, 5)))
        box = aabb_minimal(M)
        if box is None:
            continue
        checked += 1
        retained = _retained_pole_points(M)
        coords = np.array(retained)
        for q in range(d):
            assert np.min(np.abs(coords[:, q] - box.lower[q])) <= 1e-12
            assert np.min(np.abs(coords[:, q] - box.upper[q])) <= 1e-12


def _retained_pole_points(M):
    return reference_poles.retained_pole_points(M)


def test_minimal_matches_oracle():
    rng = np.random.default_rng(59)
    checked = 0
    while checked < 4:
        M = random_system(rng, 2, int(rng.integers(2, 4)))
        box = aabb_minimal(M)
        if box is None or np.min(box.widths) < 1e-3:
            continue
        checked += 1
        reference = oracle_aabb(M)
        np.testing.assert_allclose(box.intervals, reference.intervals, atol=2e-3)


def test_minimal_containment_monotonicity():
    rng = np.random.default_rng(61)
    checked = 0
    while checked < 40:
        d = int(rng.integers(2, 4))
        M_big = random_system(rng, d, int(rng.integers(3, 6)))
        M_small = M_big.subsystem(range(len(M_big) - 1))
        big_box = aabb_minimal(M_big)
        small_box = aabb_minimal(M_small)
        if big_box is None or small_box is None:
            continue
        checked += 1
        assert np.all(big_box.lower >= small_box.lower - 1e-9)
        assert np.all(big_box.upper <= small_box.upper + 1e-9)


def test_minimal_three_disk_case_analysis():
    # the uniform pole enumeration must reproduce the dedicated three-disk
    # case analysis: disk poles, pairwise-boundary poles, triple-boundary
    # points, each retained only when contained in the full system
    rng = np.random.default_rng(67)
    checked = 0
    while checked < 30:
        M = random_system(rng, 3, 3)
        box = aabb_minimal(M)
        if box is None:
            continue
        checked += 1
        candidates = []
        for i in range(3):
            for q in range(3):
                candidates.extend(p.point for p in boundary_poles(M[i], q))
        for i, j in combinations(range(3), 2):
            kind = intersect_two_spheres(M[i], M[j])
            if isinstance(kind, PointIntersection):
                candidates.append(kind.point)
            elif isinstance(kind, SphereIntersection):
                for q in range(3):
                    candidates.extend(p.point for p in poles_codim1(kind.sphere, q))
        kind = reduce_sphere_system(M)
        if isinstance(kind, PointIntersection):
            candidates.append(kind.point)
        elif isinstance(kind, SphereIntersection):
            for q in range(3):
                candidates.extend(p.point for p in poles_general(kind.sphere, q))
        retained = [
            p for p in candidates if all(contains(M[i], p, 1e-9) for i in range(3))
        ]
        arr = np.array(retained)
        expected = np.column_stack([arr.min(axis=0), arr.max(axis=0)])
        np.testing.assert_allclose(box.intervals, expected, atol=1e-9)


# ---------------------------------------------------------------------------
# box_intersect
# ---------------------------------------------------------------------------


def test_box_intersect_idempotent():
    box = Box(np.array([[0.0, 1.0], [2.0, 3.0]]))
    result = box_intersect([box, box, box])
    np.testing.assert_array_equal(result.intervals, box.intervals)


def test_box_intersect_inverted_result():
    a = Box(np.array([[0.0, 1.0], [0.0, 1.0]]))
    b = Box(np.array([[2.0, 3.0], [0.0, 1.0]]))
    result = box_intersect([a, b])
    np.testing.assert_array_equal(result.intervals, [[2.0, 1.0], [0.0, 1.0]])
    assert result.is_inverted()


def test_box_intersect_rejects_empty_and_mixed():
    with pytest.raises(GeometryError):
        box_intersect([])
    with pytest.raises(GeometryError):
        box_intersect([Box(np.zeros((2, 2))), Box(np.zeros((3, 2)))])


def test_pairwise_boxes_of_empty_quad(empty_quad_system):
    # the six pairwise AABBs exist and their intersection pins the x and y
    # axes to the tangency point (3, 0, *); z-extent is a proper interval
    boxes = [
        aabb_two_disks(empty_quad_system[i], empty_quad_system[j])
        for i, j in combinations(range(4), 2)
    ]
    assert all(b is not None for b in boxes)
    common = box_intersect(boxes)
    assert common.lower[0] == pytest.approx(3.0, abs=1e-9)
    assert common.upper[0] == pytest.approx(3.0, abs=1e-9)
    assert common.lower[1] == pytest.approx(0.0, abs=1e-9)
    assert common.upper[1] == pytest.approx(0.0, abs=1e-9)
    # exact z-extent of the pairwise-box intersection: lower bound from the
    # D1-D4 pair, upper bound sqrt(1/5) from the D2-D3 pair
    assert common.intervals[2, 0] == pytest.approx(0.100007, abs=1e-5)
    assert common.intervals[2, 1] == pytest.approx(math.sqrt(0.2), abs=1e-9)


# ---------------------------------------------------------------------------
# Helly box equality and inverted intervals as emptiness certificates
# ---------------------------------------------------------------------------


def test_helly_box_equality():
    rng = np.random.default_rng(71)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        M = intersecting_simplex_system(rng, d)
        assert is_cech_system(M).is_cech
        full = aabb_minimal(M)
        loo = [
            aabb_minimal(M.subsystem([i for i in range(d + 1) if i != j]))
            for j in range(d + 1)
        ]
        assert full is not None and all(b is not None for b in loo)
        np.testing.assert_allclose(
            full.intervals, box_intersect(loo).intervals, atol=1e-8
        )


def test_empty_system_inverts_box_intersection():
    rng = np.random.default_rng(73)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        M = hollow_simplex_system(rng, d)
        assert not is_cech_system(M).is_cech
        loo = [
            aabb_minimal(M.subsystem([i for i in range(d + 1) if i != j]))
            for j in range(d + 1)
        ]
        assert all(b is not None for b in loo)
        assert box_intersect(loo).is_inverted()


# ---------------------------------------------------------------------------
# The disjoint-pair exit of is_cech_system, aabb_minimal and render_svg
# ---------------------------------------------------------------------------


def _counting_candidate_poles(monkeypatch):
    import cechkit.cech

    calls = []
    original = cechkit.cech.candidate_poles

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cechkit.cech, "candidate_poles", counting)
    return calls


def _assert_box_and_picture_match_reference(M):
    from cechkit.cli import render_svg

    box, want = aabb_minimal(M), reference_poles.aabb_minimal(M)
    assert (box is None) == (want is None)
    if want is not None:
        np.testing.assert_allclose(box.intervals, want.intervals, rtol=0.0, atol=1e-12)
    assert render_svg(M) == reference_poles.render_svg(M)
    return box


def test_disjoint_pair_exit_at_its_threshold(monkeypatch):
    from cechkit.geometry import DEFAULT_TOL

    calls = _counting_candidate_poles(monkeypatch)
    # Two unit disks at distance dist along (0.6, 0.8): each reaches
    # b = 1 + tol, and their tangent point passes containment up to a
    # distance of about 2 b, just below the exit's threshold 2 b (1 + 1e-12).
    threshold = 2.0 * (1.0 + DEFAULT_TOL) * (1.0 + 1e-12)
    boxes = {}
    for offset in (-2e-12, -1e-13, 1e-13, 1e-12):
        dist = threshold * (1.0 + offset)
        M = DiskSystem.from_arrays([[0.0, 0.0], [0.6 * dist, 0.8 * dist]], [1.0, 1.0])
        del calls[:]
        boxes[offset] = _assert_box_and_picture_match_reference(M)
        decision = is_cech_system(M)
        assert decision.is_cech == (boxes[offset] is not None), offset
        assert not decision.degeneracy_warning
        # Below the threshold the decision, aabb_minimal and render_svg enumerate.
        assert len(calls) == (3 if offset < 0 else 0), offset
    assert boxes[-2e-12] is not None
    assert boxes[-1e-13] is None and boxes[1e-13] is None and boxes[1e-12] is None


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_disjoint_pair_exit_on_degenerate_systems(monkeypatch, name):
    calls = _counting_candidate_poles(monkeypatch)
    M = DiskSystem.from_arrays(*DEGENERATE[name])
    M = rescale(M, 0.95 * rips_scale(M))
    if M.dimension == 2:
        assert _assert_box_and_picture_match_reference(M) is None
    else:
        assert aabb_minimal(M) is None and reference_poles.aabb_minimal(M) is None
    decision = is_cech_system(M)
    assert not decision.is_cech and not decision.degeneracy_warning
    assert calls == []


@pytest.mark.parametrize("name", sorted(name for name, (centers, _) in DEGENERATE.items() if len(centers[0]) == 2))
def test_minimal_matches_oracle_on_degenerate_systems(name):
    M = DiskSystem.from_arrays(*DEGENERATE[name])
    M = rescale(M, 1.3 * rips_scale(M))
    box, reference = aabb_minimal(M), oracle_aabb(M)
    assert box is not None and reference is not None
    np.testing.assert_allclose(box.intervals, reference.intervals, atol=2e-3)
