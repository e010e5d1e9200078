"""Rips scale, Cech-system decision and Cech-scale bisection."""

import math
import warnings

import numpy as np
import pytest

from cechkit import (
    Disk,
    DiskSystem,
    GeometryError,
    aabb_minimal,
    cech_scale,
    contains,
    exact_cech_scale,
    is_cech_system,
    jung_factor,
    preprocess,
    rescale,
    rips_scale,
)
from cechkit.cli import render_svg
from cechkit.oracle import OracleConfig, oracle_minimax
from conftest import DEGENERATE, assert_in_bracket, lattice_systems, random_system, scalings

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# rips_scale / rescale
# ---------------------------------------------------------------------------


def test_rips_scale_tangent_pair():
    M = DiskSystem.from_arrays([[0.0, 0.0], [2.0, 0.0]], [1.0, 1.0])
    assert rips_scale(M) == pytest.approx(1.0, abs=1e-15)


def test_rips_scale_three_disks(tangent_point_system):
    expected = math.sqrt(17.0) / (SQRT2 + 3.0)
    assert rips_scale(tangent_point_system) == pytest.approx(expected, abs=1e-12)


def test_rips_scale_single_disk():
    M = DiskSystem.from_arrays([[0.0, 0.0]], [1.0])
    assert rips_scale(M) == 0.0


def test_rescale_identity(equilateral_system):
    same = rescale(equilateral_system, 1.0)
    np.testing.assert_array_equal(same.radii, equilateral_system.radii)
    np.testing.assert_array_equal(same.centers, equilateral_system.centers)


def test_rescale_halves_radius():
    M = DiskSystem.from_arrays([[0.0, 0.0]], [2.0])
    assert rescale(M, 0.5).radii[0] == pytest.approx(1.0)


def test_rescale_composition():
    rng = np.random.default_rng(23)
    M = random_system(rng, 3, 4)
    a, b = 0.7, 1.9
    twice = rescale(rescale(M, a), b)
    once = rescale(M, a * b)
    np.testing.assert_allclose(twice.radii, once.radii, rtol=1e-12)


def test_rescale_rejects_nonpositive():
    M = DiskSystem.from_arrays([[0.0, 0.0]], [1.0])
    with pytest.raises(ValueError):
        rescale(M, 0.0)
    with pytest.raises(ValueError):
        rescale(M, -1.0)


# ---------------------------------------------------------------------------
# is_cech_system
# ---------------------------------------------------------------------------


def test_decision_tangent_point_true(tangent_point_system):
    decision = is_cech_system(tangent_point_system)
    assert decision.is_cech
    np.testing.assert_allclose(decision.witness, [3.0, 0.0, 0.0], atol=1e-6)


def test_decision_empty_quad_false(empty_quad_system):
    decision = is_cech_system(empty_quad_system)
    assert not decision.is_cech
    assert decision.witness is None


def test_decision_single_disk():
    M = DiskSystem.from_arrays([[2.0, 3.0]], [1.0])
    decision = is_cech_system(M)
    assert decision.is_cech
    np.testing.assert_allclose(decision.witness, [2.0, 3.0])


def test_decision_witness_in_every_disk():
    rng = np.random.default_rng(29)
    for _ in range(100):
        M = random_system(rng, int(rng.integers(2, 4)), int(rng.integers(2, 7)))
        decision = is_cech_system(M)
        if decision.is_cech:
            dist = np.linalg.norm(M.centers - decision.witness, axis=1)
            assert np.all(dist <= M.radii + 1e-9 * (1 + M.radii))


def test_decision_monotone_in_scale():
    rng = np.random.default_rng(31)
    for _ in range(60):
        M = random_system(rng, int(rng.integers(2, 4)), int(rng.integers(2, 6)))
        if not is_cech_system(M).is_cech:
            continue
        for factor in (1.01, 1.1, 2.0):
            assert is_cech_system(rescale(M, factor)).is_cech


def test_decision_generalized_rips():
    # whenever all pairs intersect, the Jung-rescaled system intersects
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 60:
        d = int(rng.integers(2, 4))
        M = random_system(rng, d, int(rng.integers(2, 6)))
        if rips_scale(M) > 1.0:
            continue
        checked += 1
        assert is_cech_system(rescale(M, jung_factor(d))).is_cech


# ---------------------------------------------------------------------------
# cech_scale
# ---------------------------------------------------------------------------


def test_scale_two_disks_exact():
    M = DiskSystem.from_arrays([[0.0, 0.0], [3.0, 0.0]], [1.0, 2.0])
    report = cech_scale(M)
    assert report.cech_scale == 1.0
    assert report.rips_scale == 1.0
    assert report.iterations == 0


def test_scale_equilateral(equilateral_system):
    report = cech_scale(equilateral_system, 1e-6)
    assert report.cech_scale == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)
    assert report.rips_scale == pytest.approx(0.5, abs=1e-12)


def test_scale_tangent_point(tangent_point_system):
    report = cech_scale(tangent_point_system, 1e-6)
    assert report.cech_scale == pytest.approx(1.0, abs=1e-6)
    assert report.bracket[1] - report.bracket[0] <= 1e-6


def test_scale_bracket_and_witness():
    rng = np.random.default_rng(41)
    for _ in range(50):
        M = random_system(rng, int(rng.integers(2, 4)), int(rng.integers(2, 6)))
        report = cech_scale(M, 1e-6)
        lo, hi = report.bracket
        assert lo <= report.cech_scale <= hi
        assert hi - lo <= 1e-6 or report.iterations == 0
        assert report.rips_scale <= report.cech_scale
        # returned scale certifies intersection of the rescaled system
        assert is_cech_system(rescale(M, report.cech_scale)).is_cech
        scaled = rescale(M, report.cech_scale)
        dist = np.linalg.norm(scaled.centers - report.witness, axis=1)
        assert np.all(dist <= scaled.radii + 1e-9 * (1 + scaled.radii))


def test_scale_single_disk():
    report = cech_scale(DiskSystem.from_arrays([[1.0, 2.0]], [3.0]))
    assert report.cech_scale == 0.0
    assert report.rips_scale == 0.0


@pytest.mark.parametrize(
    "centers, radii",
    [([[1.0, -2.0]] * 3, [1.0, 2.0, 0.5]), ([[0.5, 0.0, 3.0]] * 2, [1.0, 1.0])],
    ids=["nested-2d", "identical-3d"],
)
def test_scale_shared_center(centers, radii):
    # nu = 0: every rescaling meets at the shared center, with no bisection.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = cech_scale(DiskSystem.from_arrays(centers, radii))
    assert (report.rips_scale, report.cech_scale, report.bracket, report.iterations) == (0.0, 0.0, (0.0, 0.0), 0)
    np.testing.assert_array_equal(report.witness, centers[0])
    assert not report.degeneracy_warning


def test_scale_rejects_bad_eta(equilateral_system):
    for eta in (0.0, math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            cech_scale(equilateral_system, eta)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf], ids=["nan", "negative", "inf"])
def test_library_rejects_bad_tol(equilateral_system, tol):
    # The CLI refuses such a --tol itself; a library call raises before any
    # arithmetic, also for one disk, which no tolerance could change.
    for M in (equilateral_system, equilateral_system.subsystem((0,))):
        for call in (is_cech_system, lambda M, tol: cech_scale(M, 1e-6, tol), aabb_minimal, render_svg, preprocess):
            with pytest.raises(GeometryError, match="tol must be finite and nonnegative"):
                call(M, tol)
    with pytest.raises(GeometryError, match="tol must be finite and nonnegative"):
        contains(Disk(np.zeros(2), 1.0), [0.0, 0.0], tol)


@pytest.mark.parametrize("eta", [1e-300, 5e-324])
def test_scale_stops_below_float_spacing(eta):
    # Once lo and hi are adjacent floats the midpoint is one of them, so
    # "hi - lo > eta" alone would never end the bisection.
    M = DiskSystem.from_arrays([[0.0, 0.0], [2.5, 0.0], [1.2, 2.0]], [1.0, 1.0, 1.0])
    report = cech_scale(M, eta)
    lo, hi = report.bracket
    assert hi == lo or hi == np.nextafter(lo, np.inf)
    assert report.cech_scale == hi and report.iterations > 0
    assert_in_bracket(exact_cech_scale(M), M, report.bracket)


def test_scale_shrinking_intersection_width(equilateral_system):
    # near the Cech scale the intersection collapses toward a point:
    # the AABB width at scale mu + eta shrinks monotonically with eta
    widths = []
    for eta in (1e-2, 1e-3, 1e-4):
        mu = cech_scale(equilateral_system, eta).cech_scale
        box = aabb_minimal(rescale(equilateral_system, mu + eta))
        widths.append(float(np.max(box.widths)))
    assert widths[0] >= widths[1] >= widths[2]


def test_answers_just_below_the_overflow_limit():
    # Two disks at (+-1e153, 0) meet in a lens; at 1e154 the squared extent
    # 2 (ptp + r)^2 overflows and DiskSystem refuses the system.
    s = 1e153
    M = DiskSystem.from_arrays([[-s, 0.0], [s, 0.0]], [1.01 * s, 1.01 * s])
    assert is_cech_system(M).is_cech
    half = s * math.sqrt(1.01**2 - 1.0)
    np.testing.assert_allclose(aabb_minimal(M).intervals, [[-0.01 * s, 0.01 * s], [-half, half]], rtol=1e-9)
    assert cech_scale(M).cech_scale == pytest.approx(1.0 / 1.01, rel=1e-9)


# ---------------------------------------------------------------------------
# Agreement with the oracle on degenerate inputs
# ---------------------------------------------------------------------------

LATTICE = dict(lattice_systems())
# A 48-point grid refined 7 rounds: half the default oracle's time on these
# systems, with a band at most 2.5 times as wide, and none of them in it.
ORACLE = OracleConfig(initial_grid=48, refinement_rounds=7)


def _oracle_decision(M):
    """oracle_intersects(M); inside the oracle's band |value - 1| <= slack,
    None, which no decision equals."""
    result = oracle_minimax(M, ORACLE)
    return None if abs(result.value - 1.0) <= result.slack else bool(result.value <= 1.0 + result.slack)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_decision_matches_oracle_on_degenerate_systems(name):
    for M in scalings(*DEGENERATE[name]):
        assert is_cech_system(M).is_cech == _oracle_decision(M)


@pytest.mark.parametrize("name", list(LATTICE))
def test_decision_matches_oracle_on_lattice_systems(name):
    M = LATTICE[name]
    M = rescale(M, 1.05 * rips_scale(M))
    assert is_cech_system(M).is_cech == _oracle_decision(M)
