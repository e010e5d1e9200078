"""Acceptance gate: ten criteria, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on a fully passing run (pytest shows captured output for failures
either way).
"""

import json
import math
from itertools import combinations

import numpy as np
import pytest

from cechkit import (
    DiskSystem,
    ISphere,
    aabb_minimal,
    aabb_two_disks,
    box_intersect,
    build_filtration,
    cech_scale,
    is_cech_system,
    jung_factor,
    oracle_minimax,
    poles_general,
    rips_scale,
)
from cechkit.cli import EXIT_NEGATIVE, EXIT_OK, main
from conftest import hollow_simplex_system, intersecting_simplex_system, random_system

SQRT2 = math.sqrt(2.0)


def _report(n: int, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)


def test_criterion_1_tangent_point_reproduction(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("4,1,0,1.4142135623730951\n4,-1,0,1.4142135623730951\n0,0,0,3\n")
    code = main(["check", "--format", "json", str(path)])
    check = json.loads(capsys.readouterr().out)
    code2 = main(["aabb", "--format", "json", str(path)])
    box = json.loads(capsys.readouterr().out)["box"]
    ok = (
        code == EXIT_OK
        and check["is_cech"] is True
        and np.allclose(check["witness"], [3.0, 0.0, 0.0], atol=1e-6)
        and code2 == EXIT_OK
        and np.allclose(box, [[3.0, 3.0], [0.0, 0.0], [0.0, 0.0]], atol=1e-6)
    )
    with capsys.disabled():
        _report(1, ok, "single-point system: TRUE at (3,0,0), degenerate AABB")
    assert ok


def test_criterion_2_empty_quad_reproduction(capsys):
    N = DiskSystem.from_arrays(
        [[4.0, 1.0, 0.0], [4.0, -1.0, 0.0], [0.0, 1.0, 0.0], [3.0, 0.0, 1.0]],
        [SQRT2, SQRT2, math.sqrt(10.0), 0.9],
    )
    decision_ok = not is_cech_system(N).is_cech
    boxes = [aabb_two_disks(N[i], N[j]) for i, j in combinations(range(4), 2)]
    common = box_intersect(boxes)
    # x, y and the z lower bound are the paper's table. Its z upper bound
    # reads 1.7, which N's own inputs rule out: the D1-D2 lens (centres 2
    # apart, radii sqrt(2)) is a circle of radius 1 about (4,0,0) in y=0, and
    # neither z-pole (4,+-1,+-sqrt(2)) lies in the other disk (sqrt(6) >
    # sqrt(2)), so that box caps z at 1. The binding pair is D2-D3: centres
    # sqrt(20) apart, a = 12/(2 sqrt(20)), h^2 = 2 - 36/20 = 1/5, and neither
    # z-pole lies in the other disk (sqrt(22) > sqrt(10), sqrt(30) > sqrt(2)),
    # so the z upper bound is sqrt(1/5).
    reference = np.array([[3.0, 3.0], [0.0, 0.0], [0.1, math.sqrt(0.2)]])
    deltas = np.abs(common.intervals - reference)
    off_axes = [q for q in range(3) if np.any(deltas[q] > 0.02)]
    boxes_ok = not off_axes
    ok = decision_ok and boxes_ok
    detail = "FALSE decision and pairwise-box intersection vs reckoned table"
    for q in off_axes:
        lo, hi = common.intervals[q]
        ref_lo, ref_hi = reference[q]
        detail += (
            f"; axis {'xyz'[q]}: computed [{lo:.6f}, {hi:.6f}]"
            f" vs reference [{ref_lo:.6f}, {ref_hi:.6f}]"
        )
    with capsys.disabled():
        _report(2, ok, detail)
    assert decision_ok
    assert ok, detail


def test_criterion_3_sandwich(capsys):
    rng = np.random.default_rng(211)
    eta = 1e-6
    violations = 0
    for _ in range(1000):
        d = int(rng.integers(2, 4))
        M = random_system(rng, d, int(rng.integers(2, 7)))
        report = cech_scale(M, eta)
        nu, mu = report.rips_scale, report.cech_scale
        if not (nu <= mu <= jung_factor(d) * nu + eta):
            violations += 1  # pragma: no cover
    ok = violations == 0
    with capsys.disabled():
        _report(3, ok, f"nu <= mu <= jung*nu + eta on 1000 systems ({violations} violations)")
    assert ok


def test_criterion_4_bound_tightness(equilateral_system, capsys):
    report = cech_scale(equilateral_system, 1e-6)
    mu, nu = report.cech_scale, report.rips_scale
    ok = abs(mu - 1.0 / math.sqrt(3.0)) <= 1e-5 and abs(mu / nu - math.sqrt(4.0 / 3.0)) <= 1e-4
    with capsys.disabled():
        _report(4, ok, f"equilateral triangle: mu={mu:.7f}, mu/nu={mu / nu:.7f}")
    assert ok


def test_criterion_5_oracle_equivalence(capsys):
    rng = np.random.default_rng(223)
    eta = 1e-6
    mismatches = 0
    scale_violations = 0
    skipped = 0
    for d, count in ((2, 500), (3, 200)):
        for _ in range(count):
            M = random_system(rng, d, int(rng.integers(2, 7)))
            result = oracle_minimax(M)
            report = cech_scale(M, eta)
            if abs(report.cech_scale - result.value) > eta + result.slack:
                scale_violations += 1  # pragma: no cover
            if abs(result.value - 1.0) <= result.slack + eta:
                skipped += 1
                continue
            # oracle_intersects(M) by its definition, on the result held above.
            if is_cech_system(M).is_cech != (result.value <= 1.0 + result.slack):
                mismatches += 1  # pragma: no cover
    ok = mismatches == 0 and scale_violations == 0
    with capsys.disabled():
        _report(
            5,
            ok,
            f"700 systems: {mismatches} decision mismatches, "
            f"{scale_violations} scale violations, {skipped} in the band",
        )
    assert ok


def test_criterion_6_helly_box_equality(capsys):
    rng = np.random.default_rng(227)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 4))
        M = intersecting_simplex_system(rng, d)
        full = aabb_minimal(M)
        loo = [
            aabb_minimal(M.subsystem([i for i in range(d + 1) if i != j]))
            for j in range(d + 1)
        ]
        assert full is not None and all(b is not None for b in loo)
        worst = max(worst, float(np.max(np.abs(full.intervals - box_intersect(loo).intervals))))
    ok = worst <= 1e-8
    with capsys.disabled():
        _report(6, ok, f"200 simplex systems, worst per-bound deviation {worst:.2e}")
    assert ok


def test_criterion_7_inverted_intervals(capsys):
    rng = np.random.default_rng(229)
    inverted = 0
    for _ in range(200):
        d = int(rng.integers(2, 4))
        M = hollow_simplex_system(rng, d)
        loo = [
            aabb_minimal(M.subsystem([i for i in range(d + 1) if i != j]))
            for j in range(d + 1)
        ]
        assert all(b is not None for b in loo)
        if box_intersect(loo).is_inverted():
            inverted += 1
    ok = inverted == 200
    with capsys.disabled():
        _report(7, ok, f"{inverted}/200 empty systems produce an inverted interval")
    assert ok


def test_criterion_8_pole_correctness(capsys):
    # k ranges over realizable codimensions 1..d-1: an i-sphere with d
    # independent normals and positive radius is empty, since its affine hull
    # is the single point at its centre and no point there lies at distance r
    rng = np.random.default_rng(233)
    worst_residual = 0.0
    extremality_ok = True
    for _ in range(2000):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, d))
        while True:
            normals = rng.standard_normal((k, d))
            sv = np.linalg.svd(normals, compute_uv=False)
            if sv[-1] > 1e-3 * sv[0]:
                break
        sphere = ISphere(rng.uniform(-2, 2, d), float(rng.uniform(0.2, 3.0)), normals)
        tangent = sphere.tangent_basis()
        coeff = rng.standard_normal((1000, tangent.shape[0]))
        coeff /= np.linalg.norm(coeff, axis=1, keepdims=True)
        samples = sphere.center + sphere.radius * coeff @ tangent
        norms = np.linalg.norm(sphere.normals, axis=1)
        for q in range(d):
            south, north = poles_general(sphere, q)
            if south.degenerate_axis:
                continue
            for pole in (south, north):
                radial = abs(np.linalg.norm(pole.point - sphere.center) - sphere.radius)
                ortho = np.max(
                    np.abs(sphere.normals @ (pole.point - sphere.center))
                    / (norms * max(sphere.radius, 1.0))
                )
                worst_residual = max(worst_residual, radial / (1 + sphere.radius), float(ortho))
            if north.point[q] < np.max(samples[:, q]) - 1e-9:
                extremality_ok = False  # pragma: no cover
            if south.point[q] > np.min(samples[:, q]) + 1e-9:
                extremality_ok = False  # pragma: no cover
    ok = worst_residual <= 1e-9 and extremality_ok
    with capsys.disabled():
        _report(8, ok, f"2000 spheres, worst residual {worst_residual:.2e}")
    assert ok


def test_criterion_9_two_disk_exactness(capsys):
    rng = np.random.default_rng(239)
    exact = 0
    for _ in range(500):
        d = int(rng.integers(2, 4))
        M = random_system(rng, d, 2)
        diff = M.centers[1] - M.centers[0]
        expected = math.sqrt(float(np.sum(diff * diff))) / float(M.radii[0] + M.radii[1])
        report = cech_scale(M)
        if report.cech_scale == expected and report.iterations == 0:
            exact += 1
    ok = exact == 500
    with capsys.disabled():
        _report(9, ok, f"{exact}/500 pairs solved exactly with zero bisection steps")
    assert ok


def test_criterion_10_filtration_monotonicity(capsys):
    rng = np.random.default_rng(241)
    eta = 1e-6
    worst_slack = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 4))
        m = int(rng.integers(4, 9))
        M = random_system(rng, d, m)
        scales = build_filtration(M, max_dim=3).scales()
        for simplex, scale in scales.items():
            for p in range(len(simplex)):
                facet = simplex[:p] + simplex[p + 1 :]
                if facet:
                    worst_slack = min(worst_slack, scale - scales[facet])
    ok = worst_slack >= -eta
    with capsys.disabled():
        _report(10, ok, f"100 filtrations, worst facet slack {worst_slack:.2e}")
    assert ok
