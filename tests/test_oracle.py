"""Brute-force oracle: minimax value and its certified slack, decision and
the AABB bisected on slice decisions."""

import ast
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
from cechkit import oracle
from cechkit.geometry import span
from cechkit.oracle import AABB_STOP, _grid_refine
from conftest import DEGENERATE, lattice_systems, random_system, scalings
from test_invariance import POWERS


def test_oracle_imports_only_the_disk_system_and_the_box_from_the_package():
    # The oracle checks the production algorithms, so it must use none of
    # them: only the input type and the output type it shares with them.
    # Every import in the module counts, those inside functions too.
    imported = set()
    for node in ast.walk(ast.parse(open(oracle.__file__, encoding="utf-8").read())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "cechkit"):
            imported |= {("." * node.level + (node.module or ""), alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "cechkit"}
    assert imported == {(".aabb", "Box"), (".geometry", "DiskSystem")}


def test_config_validation():
    with pytest.raises(ValueError):
        OracleConfig(initial_grid=1)
    with pytest.raises(ValueError):
        OracleConfig(refinement_rounds=0)


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


def test_slack_is_tight_when_active_radii_differ_widely():
    # Radii uniform(0.01, 1)^2 put pairs whose radii differ by 1e3-1e4 in
    # the active set.  Solved as a quadratic in t, whose discriminant then
    # cancels, their polished points left slacks up to 3.7e-11 of the value
    # on 6 of these systems; a pair's closed form keeps them below 3e-13.
    rng = np.random.default_rng(7)
    for _ in range(600):
        d, m = int(rng.integers(2, 4)), int(rng.integers(6, 31))
        M = DiskSystem.from_arrays(rng.uniform(0.0, 1.0, (m, d)), rng.uniform(0.01, 1.0, m) ** 2)
        result = oracle_minimax(M)
        assert result.slack <= 1e-12 * result.value, (d, m, result)


def _point_ratios(points, centers, radii):
    """max_i ||x - c_i|| / r_i at each row x of points, point by point."""
    return np.max(np.linalg.norm(points[:, None, :] - centers, axis=2) / radii, axis=1)


def _grid_objectives(monkeypatch, call):
    """The objectives that ``call()`` hands to _grid_refine."""
    seen = []

    def spy(objective, *args, **kwargs):
        seen.append(objective)
        return _grid_refine(objective, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_grid_refine", spy)
        call()
    return seen


def _mesh(lower, upper, n=7):
    """The open mesh of an n-point grid on the box, and its points in C order."""
    axes = [np.linspace(a, b, n) for a, b in zip(lower, upper)]
    points = np.stack([x.ravel() for x in np.meshgrid(*axes, indexing="ij")], axis=1)
    return np.ix_(*axes), points


GRID_SYSTEMS = [
    random_system(np.random.default_rng(653), d, m) for d in (1, 2, 3) for m in (1, 3, 6)
] + [DiskSystem.from_arrays(*DEGENERATE[name]) for name in ("collinear-2d-axis", "collinear-3d-axis")]


@pytest.mark.parametrize("M", GRID_SYSTEMS, ids=lambda M: f"d{M.dimension}-m{len(M)}")
def test_axis_wise_grid_objectives_match_the_point_wise_ones(M, monkeypatch):
    # k = d axes for the minimax grid; the collinear systems give windows of
    # zero width on their constant axes.
    centers, radii = M.centers, M.radii
    lower, upper = centers.min(axis=0), centers.max(axis=0)
    boxes = ((lower - 0.5, upper + 0.5), (lower, upper))
    for objective in _grid_objectives(monkeypatch, lambda: oracle_minimax(M)):
        for box in boxes:
            mesh, points = _mesh(*box)
            want = _point_ratios(points, centers, radii)
            assert np.array_equal(objective(mesh).ravel(), want)
            assert np.array_equal(objective(points.T), want)  # the polish's form


def _grid_slack(M, cfg):
    """The Lipschitz slack of the grid refinement alone with config cfg."""
    centers, radii = M.centers, M.radii

    def objective(mesh):
        grid = np.broadcast_arrays(*mesh)
        points = np.stack([x.ravel() for x in grid], axis=1)
        return _point_ratios(points, centers, radii).reshape(grid[0].shape)

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
    assert peak < 2**20


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


def _assert_box_matches(box, M, want):
    """The box's intervals equal ``want`` to within 1e-8 of M's span."""
    np.testing.assert_allclose(box.intervals, want, rtol=0, atol=1e-8 * float(span(M.centers, M.radii)))


def test_oracle_aabb_single_disk():
    M = DiskSystem.from_arrays([[1.0, 2.0]], [3.0])
    _assert_box_matches(oracle_aabb(M), M, [[-2.0, 4.0], [-1.0, 5.0]])


def test_oracle_aabb_lens():
    M = DiskSystem((Disk(np.zeros(2), 1.0), Disk(np.array([1.0, 0.0]), 1.0)))
    _assert_box_matches(oracle_aabb(M), M, aabb_two_disks(M[0], M[1]).intervals)


def test_oracle_aabb_bisects_the_lens_to_the_stop_width(monkeypatch):
    # The lens of unit disks at 0 and e_1 is [0, 1] x [-sqrt(3)/2, sqrt(3)/2].
    # Every end is a meeting slice, so it lies inside, by at most the stop
    # width.  Each end's bracket starts at most two spans wide (the start
    # point and the extent's end lie in one disk) and halves down to the
    # stop width, so it takes at most 31 slice decisions: with the start,
    # at most 125 oracle_minimax calls (115 measured).
    calls = []
    minimax = oracle.oracle_minimax

    def counting(*args):
        calls.append(args)
        return minimax(*args)

    monkeypatch.setattr(oracle, "oracle_minimax", counting)
    M = DiskSystem((Disk(np.zeros(2), 1.0), Disk(np.array([1.0, 0.0]), 1.0)))
    box = oracle_aabb(M)
    assert len(calls) <= 1 + 4 * math.ceil(math.log2(2.0 / AABB_STOP))
    half = math.sqrt(3.0) / 2.0
    inward = (box.intervals - [[0.0, 1.0], [-half, half]]) * [1.0, -1.0]
    assert np.all(inward >= 0.0) and np.all(inward <= AABB_STOP * float(span(M.centers, M.radii))), inward


def test_oracle_aabb_stops_at_the_spacing_of_far_coordinates():
    # Translated by 1e8, the floats near a coordinate lie 1.5e-8 apart,
    # wider than the stop width of 2e-9: each bisection stops when its
    # midpoint rounds to an end of the bracket, one spacing inside at most.
    T = 1e8
    M = DiskSystem.from_arrays([[T, T], [T + 1.0, T]], [1.0, 1.0])
    box = oracle_aabb(M)
    half = math.sqrt(3.0) / 2.0
    inward = (box.intervals - [[T, T + 1.0], [T - half, T + half]]) * [1.0, -1.0]
    assert np.all(inward >= 0.0) and np.all(inward <= np.spacing(T + 1.0)), inward


def test_oracle_aabb_tangent_point(tangent_point_system):
    # mu = 1 to within the slack: the box is the minimax point.
    _assert_box_matches(oracle_aabb(tangent_point_system), tangent_point_system, [[3.0, 3.0], [0.0, 0.0], [0.0, 0.0]])


def test_power_of_two_scaling_keeps_the_box_bits():
    # The scales of tests/test_invariance.py: oracle_minimax keeps its bits
    # under them, and the slices are bisected in units of a power of two at
    # least the span, so scaling by 2^k scales the box bit for bit.
    rng = np.random.default_rng(643)
    systems = [random_system(rng, int(rng.integers(2, 4)), int(rng.integers(2, 5))) for _ in range(6)]
    systems += [DiskSystem.from_arrays(*DEGENERATE[name]) for name in sorted(DEGENERATE)]
    for M in systems:
        want = oracle_aabb(M)
        for k in POWERS:
            factor = 2.0**k
            got = oracle_aabb(DiskSystem.from_arrays(M.centers * factor, M.radii * factor))
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got.intervals, want.intervals * factor)


def test_oracle_aabb_empty(empty_quad_system):
    assert oracle_aabb(empty_quad_system) is None


def _one_dimensional_systems():
    """Seeded 1-d systems and their copies with radii cut to 0.4, some of
    which have a disjoint pair."""
    rng = np.random.default_rng(659)
    systems = [random_system(rng, 1, m) for m in (1, 2, 2, 3, 5, 8)]
    return systems + [DiskSystem.from_arrays(M.centers, 0.4 * M.radii) for M in systems]


def test_minimax_brackets_the_rips_scale_in_1d():
    # Intervals meet iff they meet pairwise, so in 1-d mu equals nu, the
    # largest |c_i - c_j| / (r_i + r_j).
    for M in _one_dimensional_systems():
        c, r = M.centers[:, 0], M.radii
        nu = float(np.max(np.abs(c[:, None] - c) / (r[:, None] + r)))
        result = oracle_minimax(M)
        assert result.value - result.slack <= nu <= result.value + result.slack, (result, nu)


def test_oracle_aabb_is_the_common_interval_in_1d():
    # A point t's slice meets every interval iff t lies in the common
    # interval [L, U], so each bisected end is within the stop width of it.
    for M in _one_dimensional_systems():
        c, r = M.centers[:, 0], M.radii
        lo, hi = float(np.max(c - r)), float(np.min(c + r))
        box = oracle_aabb(M)
        if hi < lo:
            assert box is None
            continue
        np.testing.assert_allclose(box.intervals, [[lo, hi]], rtol=0, atol=AABB_STOP * float(span(M.centers, r)))
