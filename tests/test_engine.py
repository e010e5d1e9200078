"""Batched pole engine against the per-subset reference enumeration, and
exact scales against the brackets of bisection."""

import numpy as np
import pytest

import reference_poles as ref
from cechkit import (
    DEFAULT_TOL,
    DiskSystem,
    aabb_minimal,
    build_filtration,
    cech_scale,
    exact_cech_scale,
    is_cech_system,
    rescale,
    rips_scale,
)
from cechkit.cli import render_svg
from cechkit.geometry import CONTAINS_CHUNK, candidate_poles
from conftest import random_system

# Witnesses and box bounds come from reordered float arithmetic (batched
# matrix products, axis reductions), so they agree to rounding, not bits.
ATOL = 1e-12
# Rescalings relative to the Rips scale: below it a pair is disjoint, at
# the Jung factor (at most 1.225) every system intersects.
FACTORS = (0.95, 1.05, 1.15, 1.3)


def _assert_same(M):
    """Decision, box and (in 2-D) picture of M agree with the reference."""
    got, want = is_cech_system(M), ref.is_cech_system(M)
    assert got.is_cech == want.is_cech
    assert got.generating_subset == want.generating_subset
    assert got.degeneracy_warning == want.degeneracy_warning
    if want.is_cech:
        np.testing.assert_allclose(got.witness, want.witness, rtol=0.0, atol=ATOL)
    box, want_box = aabb_minimal(M), ref.aabb_minimal(M)
    assert (box is None) == (want_box is None)
    if want_box is not None:
        np.testing.assert_allclose(box.intervals, want_box.intervals, rtol=0.0, atol=ATOL)
        assert box.degeneracy_warning == want_box.degeneracy_warning
    if M.dimension == 2:
        assert render_svg(M) == ref.render_svg(M)
    return want


@pytest.mark.parametrize("d", [2, 3])
def test_engine_matches_reference_on_random_systems(d):
    rng = np.random.default_rng(300 + d)
    outcomes = set()
    for m in range(2, 11):
        M = random_system(rng, d, m)
        nu = rips_scale(M)
        for factor in FACTORS:
            outcomes.add(_assert_same(rescale(M, factor * nu)).is_cech)
    assert outcomes == {True, False}


def test_engine_matches_reference_across_contains_chunks():
    rng = np.random.default_rng(332)
    M = random_system(rng, 2, 32)
    largest = max(points.shape[0] * points.shape[1] for _, points, _ in candidate_poles(M))
    assert largest > CONTAINS_CHUNK
    nu = rips_scale(M)
    for factor in (1.05, 1.3):
        _assert_same(rescale(M, factor * nu))


SQRT2 = 2.0**0.5

# Systems with affinely dependent subsets (the jitter fallback) or pairs
# whose normal is a coordinate axis (the degenerate-axis fallback).  The
# "shared" triples have boundaries through one circle (two points in 2-D).
DEGENERATE = {
    "collinear-2d-axis": ([[0, 0], [1, 0], [2, 0]], [1.0, 1.0, 1.0]),
    "collinear-2d-shared": ([[0, 0], [1, 0], [2, 0]], [SQRT2, 1.0, SQRT2]),
    "collinear-3d-shared": ([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [SQRT2, 1.0, SQRT2]),
    "collinear-2d-diagonal": ([[0, 0], [1, 1], [2, 2]], [1.2, 1.0, 1.5]),
    "collinear-2d-extra": ([[0, 0], [1, 0], [2, 0], [1, 0.5]], [1.2, 1.0, 1.3, 0.9]),
    "collinear-3d-axis": ([[0, 0, 0], [0, 0, 1], [0, 0, 2]], [1.2, 1.0, 1.2]),
    "collinear-3d-skew": ([[0, 0, 0], [1, 2, 3], [2, 4, 6], [1, 1, 1]], [3.0, 2.5, 4.0, 2.0]),
    "coplanar-3d": ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], [0.9, 0.9, 0.9, 0.9]),
    "coplanar-3d-tilted": ([[0, 0, 0], [1, 0, 1], [0, 1, 1], [1, 1, 2], [0.5, 0.5, 0.3]],
                           [1.0, 1.1, 0.9, 1.2, 0.8]),
    "duplicate-2d": ([[0, 0], [1, 0.2], [0.4, 0.9], [0, 0]], [1.0, 0.8, 0.9, 1.0]),
    "duplicate-3d": ([[0, 0, 0], [1, 0.2, 0.1], [0.3, 0.8, 0.5], [1, 0.2, 0.1]], [1.0, 0.9, 0.8, 0.9]),
}


def _scalings(centers, radii):
    M = DiskSystem.from_arrays(centers, radii)
    nu = rips_scale(M)
    return [M, *(rescale(M, factor * nu) for factor in FACTORS)]


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_engine_matches_reference_on_degenerate_systems(name):
    for M in _scalings(*DEGENERATE[name]):
        _assert_same(M)


def test_duplicated_disks_yield_jittered_candidates():
    # A jittered collinear or coplanar subset stays below the rank cutoff and
    # comes out empty; a jittered duplicate pair is a thin lens.
    warned = {
        name
        for name, system in DEGENERATE.items()
        for M in _scalings(*system)
        if any(jittered.any() for _, _, jittered in candidate_poles(M))
    }
    assert warned == {"duplicate-2d", "duplicate-3d"}


def test_cech_scale_matches_per_step_decisions_bit_for_bit():
    rng = np.random.default_rng(341)
    systems = [random_system(rng, d, m) for d in (2, 3) for m in range(2, 8)]
    systems += [M for name in sorted(DEGENERATE) for M in _scalings(*DEGENERATE[name])]
    warned = 0
    for M in systems:
        got = cech_scale(M, 1e-6)
        want = ref.cech_scale(M, 1e-6, decide=is_cech_system)
        assert got.cech_scale == want.cech_scale
        assert got.bracket == want.bracket
        assert got.iterations == want.iterations
        assert got.degeneracy_warning == want.degeneracy_warning
        assert np.array_equal(got.witness, want.witness)
        warned += want.degeneracy_warning
    # The duplicated-disk systems jitter, so the warning is exercised.
    assert warned > 0


def _assert_in_bracket(mu, M, bracket):
    # Containment accepts ||x - c_i|| <= lam r_i + tol (1 + lam r_i), so a
    # bracket end certified by it can miss mu by up to
    # delta = tol * (hi + 1 / min r); derivation in CHANGES.md.
    lo, hi = bracket
    delta = DEFAULT_TOL * (hi + 1.0 / M.radii.min())
    assert lo - delta <= mu <= hi + delta, (lo, mu, hi)


def test_exact_scale_within_bisection_bracket_on_random_systems():
    rng = np.random.default_rng(601)
    for _ in range(60):
        M = random_system(rng, int(rng.integers(2, 4)), int(rng.integers(2, 9)))
        _assert_in_bracket(exact_cech_scale(M), M, cech_scale(M, 1e-9).bracket)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_exact_scale_within_bisection_bracket_on_degenerate_systems(name):
    for M in _scalings(*DEGENERATE[name]):
        _assert_in_bracket(exact_cech_scale(M), M, cech_scale(M, 1e-9).bracket)


def test_filtration_within_reference_brackets():
    # Filtration scales are exact up to rounding: each simplex's scale lies
    # in the bracket of the reference bisection on its own disks, taken
    # before the facet clamp.
    rng = np.random.default_rng(347)
    inputs = [(random_system(rng, 2, 6), 2), (random_system(rng, 3, 5), 2)]
    # k = 4 > d + 1 at d = 2: the scale is the largest facet scale.
    inputs.append((random_system(rng, 2, 6), 3))
    inputs += [(DiskSystem.from_arrays(*DEGENERATE[name]), 3) for name in ("duplicate-2d", "collinear-2d-extra")]
    # Three coincident centers: the Rips scale of triple (0, 1, 2) is 0.
    coincident = DiskSystem.from_arrays([[0, 0], [0, 0], [0, 0], [1, 0.3], [0.2, 0.9]], [1.0, 0.7, 0.5, 0.8, 0.9])
    inputs.append((coincident, 3))
    for M, max_dim in inputs:
        scales = build_filtration(M, max_dim).scales()
        assert set(scales) == set(ref.build_filtration(M, max_dim).scales())
        for subset, scale in scales.items():
            if len(subset) >= 3:
                sub = M.subsystem(subset)
                _assert_in_bracket(scale, sub, ref.cech_scale(sub, 1e-6).bracket)
