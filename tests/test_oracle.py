"""Brute-force oracle: minimax value and its certified slack, decision and
slice-bisection AABB."""

import math
import tracemalloc

import numpy as np
import pytest

from cechkit import (
    Disk,
    DiskSystem,
    OracleConfig,
    aabb_two_disks,
    exact_cech_scale,
    oracle_aabb,
    oracle_intersects,
    oracle_minimax,
)
from cechkit.oracle import _grid_refine
from conftest import DEGENERATE, lattice_systems, random_system, scalings
from test_invariance import POWERS


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(initial_grid=1)
    with pytest.raises(ValueError):
        OracleConfig(refinement_rounds=0)
    with pytest.raises(ValueError):
        OracleConfig(shrink_factor=1.0)


def test_minimax_equilateral(equilateral_system):
    result = oracle_minimax(equilateral_system)
    assert result.value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-4)


def test_minimax_single_disk():
    result = oracle_minimax(DiskSystem.from_arrays([[2.0, 5.0]], [1.0]))
    assert result.value == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(result.point, [2.0, 5.0])


def test_minimax_tangent_point(tangent_point_system):
    result = oracle_minimax(tangent_point_system)
    assert result.value == pytest.approx(1.0, abs=1e-4)
    np.testing.assert_allclose(result.point, [3.0, 0.0, 0.0], atol=1e-3)


def test_minimax_history_non_increasing():
    rng = np.random.default_rng(101)
    for _ in range(20):
        M = random_system(rng, int(rng.integers(2, 4)), int(rng.integers(2, 6)))
        result = oracle_minimax(M)
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))
        assert result.history[-1] == result.value


def test_minimax_value_at_point_matches():
    # the reported value is the objective evaluated at the reported point
    rng = np.random.default_rng(103)
    for _ in range(20):
        M = random_system(rng, 2, 4)
        result = oracle_minimax(M)
        f = float(np.max(np.linalg.norm(result.point - M.centers, axis=1) / M.radii))
        assert f == pytest.approx(result.value, abs=1e-12)


def _assert_brackets_exact_scale(M):
    result = oracle_minimax(M)
    mu = exact_cech_scale(M)
    assert result.value - result.slack <= mu <= result.value + result.slack, (result.value, result.slack, mu)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_slack_brackets_the_exact_scale_on_degenerate_systems(name):
    for M in scalings(*DEGENERATE[name]):
        _assert_brackets_exact_scale(M)


def test_slack_brackets_the_exact_scale_on_lattice_systems():
    for _, M in lattice_systems():
        _assert_brackets_exact_scale(M)


def test_slack_brackets_the_exact_scale_on_random_systems():
    # Criterion 5's generator: d = 2 and 3, m = 2-6.
    rng = np.random.default_rng(613)
    for d, count in ((2, 100), (3, 40)):
        for _ in range(count):
            _assert_brackets_exact_scale(random_system(rng, d, int(rng.integers(2, 7))))


def test_slack_is_tight_on_generic_systems():
    rng = np.random.default_rng(617)
    for _ in range(60):
        M = random_system(rng, int(rng.integers(2, 4)), int(rng.integers(2, 9)))
        result = oracle_minimax(M)
        assert result.slack <= 1e-12 * max(1.0, result.value)


def _grid_slack(M, cfg):
    """The Lipschitz slack of the grid refinement alone with config cfg."""
    centers, radii = M.centers, M.radii

    def objective(points):
        return np.max(np.linalg.norm(points[:, None, :] - centers, axis=2) / radii, axis=1)

    lipschitz = float(np.max(1.0 / radii))
    _, _, step, _ = _grid_refine(objective, centers.min(axis=0), centers.max(axis=0), cfg, lipschitz)
    return 0.5 * lipschitz * float(np.linalg.norm(step))


@pytest.mark.parametrize("cfg", [OracleConfig(), OracleConfig(4, 1), OracleConfig(8, 3)], ids=["16x6", "4x1", "8x3"])
def test_slack_never_wider_than_the_grid(cfg):
    rng = np.random.default_rng(619)
    systems = [random_system(rng, int(rng.integers(2, 4)), int(rng.integers(2, 7))) for _ in range(20)]
    systems += [M for name in sorted(DEGENERATE) for M in scalings(*DEGENERATE[name])]
    for M in systems:
        assert oracle_minimax(M, cfg).slack <= _grid_slack(M, cfg)


def test_power_of_two_scaling_keeps_value_and_slack_bits():
    # The scales of tests/test_invariance.py: the grid, the polish and the
    # dual bound work in units that scale with the system, so scaling by
    # 2^k changes no bit of value, slack or history and scales the point.
    rng = np.random.default_rng(631)
    systems = [random_system(rng, int(rng.integers(2, 4)), int(rng.integers(2, 7))) for _ in range(10)]
    systems += [DiskSystem.from_arrays(*DEGENERATE[name]) for name in sorted(DEGENERATE)]
    for M in systems:
        want = oracle_minimax(M)
        for k in POWERS:
            factor = 2.0**k
            got = oracle_minimax(DiskSystem.from_arrays(M.centers * factor, M.radii * factor))
            assert (got.value, got.slack, got.history) == (want.value, want.slack, want.history)
            assert np.array_equal(got.point, want.point * factor)


def test_minimax_memory_in_3d():
    M = random_system(np.random.default_rng(641), 3, 6)
    tracemalloc.start()
    try:
        oracle_minimax(M)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_intersects_examples(tangent_point_system, empty_quad_system):
    assert oracle_intersects(tangent_point_system)
    assert not oracle_intersects(empty_quad_system)
    disjoint = DiskSystem.from_arrays([[0.0, 0.0], [5.0, 0.0]], [1.0, 1.0])
    assert not oracle_intersects(disjoint)


def test_intersects_self_consistency():
    rng = np.random.default_rng(107)
    for _ in range(30):
        M = random_system(rng, int(rng.integers(2, 4)), int(rng.integers(2, 6)))
        result = oracle_minimax(M)
        if abs(result.value - 1.0) <= result.slack:
            continue  # indeterminate band: decision deliberately unspecified
        assert oracle_intersects(M) == (result.value <= 1.0)


def test_oracle_aabb_single_disk():
    box = oracle_aabb(DiskSystem.from_arrays([[1.0, 2.0]], [3.0]))
    np.testing.assert_allclose(box.intervals, [[-2.0, 4.0], [-1.0, 5.0]], atol=1e-3)


def test_oracle_aabb_lens():
    M = DiskSystem((Disk(np.zeros(2), 1.0), Disk(np.array([1.0, 0.0]), 1.0)))
    box = oracle_aabb(M)
    expected = aabb_two_disks(M[0], M[1])
    np.testing.assert_allclose(box.intervals, expected.intervals, atol=1e-3)


def test_oracle_aabb_tangent_point(tangent_point_system):
    box = oracle_aabb(tangent_point_system)
    np.testing.assert_allclose(
        box.intervals, [[3.0, 3.0], [0.0, 0.0], [0.0, 0.0]], atol=1e-3
    )


def test_oracle_aabb_empty(empty_quad_system):
    assert oracle_aabb(empty_quad_system) is None
