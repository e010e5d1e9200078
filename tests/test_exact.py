"""Exact Cech scales from closed-form subset roots."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference_poles as ref
from cechkit import DiskSystem, build_filtration, exact_cech_scale, oracle_minimax, rips_scale
from conftest import DEGENERATE, lattice_systems, random_system, scalings


def test_exact_scale_within_oracle_slack():
    # Criterion 5's generator; the oracle's slack is a certified duality
    # gap, so value - slack <= mu <= value + slack.
    rng = np.random.default_rng(607)
    for d, count in ((2, 100), (3, 30)):
        for _ in range(count):
            M = random_system(rng, d, int(rng.integers(2, 7)))
            result = oracle_minimax(M)
            assert abs(exact_cech_scale(M) - result.value) <= result.slack


def test_exact_scale_of_equilateral_triple(equilateral_system):
    assert abs(exact_cech_scale(equilateral_system) - 1.0 / math.sqrt(3.0)) <= 1e-12


def test_exact_scale_of_pair_and_single_disk():
    M = DiskSystem.from_arrays([[0.0, 0.0, 0.0], [3.0, 1.0, -2.0]], [1.0, 2.5])
    assert exact_cech_scale(M) == rips_scale(M)
    assert exact_cech_scale(M.subsystem([1])) == 0.0


@pytest.mark.parametrize("s", [1e78, 1e100, 1e150])
def test_huge_triple_keeps_its_scale(s):
    # B^2 and 4AC of subset_roots are fourth powers of length: without
    # scaling they overflow from about 1e77.
    def scales(s):
        M = DiskSystem.from_arrays(s * np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.9]]), [s] * 3)
        return build_filtration(M, 2).scales()[(0, 1, 2)], exact_cech_scale(M)

    want = scales(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = scales(s)
    np.testing.assert_allclose(got, want, rtol=1e-12)


# (d, m) of the benchmark's decision and cech-scale systems: centers in
# [0, 1]^d, radii 0.9-1.1.
BENCHMARK_SHAPES = ((2, 8), (2, 10), (2, 12), (2, 16), (2, 24), (2, 32), (3, 6), (3, 8), (3, 12), (3, 16))


def test_basis_search_matches_the_full_enumeration():
    # The pivoting search of cech_basis reaches, bit for bit, the largest
    # root of every subset of up to d+1 disks.
    rng = np.random.default_rng(613)
    systems = [M for name in sorted(DEGENERATE) for M in scalings(*DEGENERATE[name])]
    systems += [M for _, M in lattice_systems()]
    systems += [random_system(rng, d, int(rng.integers(2, 13))) for d in (2, 3, 4) for _ in range(40)]
    for d, m in BENCHMARK_SHAPES:
        systems += [DiskSystem.from_arrays(rng.uniform(0.0, 1.0, (m, d)), rng.uniform(0.9, 1.1, m)) for _ in range(3)]
    for M in systems:
        assert exact_cech_scale(M) == ref.exact_cech_scale(M)


@st.composite
def lattice_draws(draw):
    """Centers in {0, 1, 2}^d and radii in {1/4, 2/4, ..., 6/4}."""
    d, m = draw(st.integers(2, 4)), draw(st.integers(2, 10))
    centers = draw(arrays(float, (m, d), elements=st.integers(0, 2).map(float)))
    radii = draw(arrays(float, m, elements=st.integers(1, 6).map(lambda k: k / 4.0)))
    return DiskSystem.from_arrays(centers, radii)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lattice_draws())
def test_basis_search_on_lattice_ties(M):
    # Lattice centers and radii tie many subsets at one scale, and their
    # computed roots differ in the last bits.  The search returns one of the
    # enumerated roots, so never a larger one; the enumeration keeps the
    # largest of the tied roots, the search the first it reaches.  On
    # 90,000 seeded draws of this kind 99.7% were equal and the largest gap
    # was 16 ulps, at a pair whose touching point lies on two more disks.
    got, want = exact_cech_scale(M), ref.exact_cech_scale(M)
    assert want - 32.0 * np.spacing(want) <= got <= want


def test_basis_search_memory_is_linear_in_m():
    # The full enumeration stacks all C(48, 4) = 194,580 subsets of a
    # d = 3, m = 48 system (about 100 MB); the search holds O(m).
    M = random_system(np.random.default_rng(617), 3, 48)
    tracemalloc.start()
    try:
        exact_cech_scale(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# Centers in [0, 1]^d and radii in [0.1, 1], as in random_system; hypothesis
# also draws repeated and boundary values, so degenerate subsets occur.
unit = st.floats(0.0, 1.0, allow_subnormal=False)
SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def systems(draw):
    d = draw(st.integers(2, 3))
    m = draw(st.integers(2, 6))
    centers = draw(arrays(float, (m, d), elements=unit))
    radii = draw(arrays(float, m, elements=st.floats(0.1, 1.0)))
    return DiskSystem.from_arrays(centers, radii)


def _scales(M):
    return build_filtration(M, min(len(M) - 1, 3)).scales()


def _assert_same_scales(got, want):
    assert set(got) == set(want)
    for simplex, scale in want.items():
        assert math.isclose(got[simplex], scale, rel_tol=1e-9, abs_tol=1e-12), simplex


@SETTINGS
@given(systems(), arrays(float, 3, elements=st.floats(-10.0, 10.0)))
def test_translation_leaves_scales_unchanged(M, shift):
    moved = DiskSystem.from_arrays(M.centers + shift[: M.dimension], M.radii)
    assert math.isclose(exact_cech_scale(moved), exact_cech_scale(M), rel_tol=1e-9, abs_tol=1e-12)
    _assert_same_scales(_scales(moved), _scales(M))


@SETTINGS
@given(systems(), st.floats(1e-3, 1e3))
def test_common_scaling_leaves_scales_unchanged(M, factor):
    scaled = DiskSystem.from_arrays(M.centers * factor, M.radii * factor)
    assert math.isclose(exact_cech_scale(scaled), exact_cech_scale(M), rel_tol=1e-9, abs_tol=1e-12)
    _assert_same_scales(_scales(scaled), _scales(M))


@SETTINGS
@given(systems(), st.data())
def test_duplicated_disk_leaves_scales_unchanged(M, data):
    i = data.draw(st.integers(0, len(M) - 1))
    dup = DiskSystem.from_arrays(np.vstack([M.centers, M.centers[i]]), np.append(M.radii, M.radii[i]))
    assert math.isclose(exact_cech_scale(dup), exact_cech_scale(M), rel_tol=1e-9, abs_tol=1e-12)
    # The copy (index m) stands for disk i: a simplex takes the scale of its
    # image with the copy replaced by i.
    want = _scales(M)
    for simplex, scale in _scales(dup).items():
        image = tuple(sorted({i if v == len(M) else v for v in simplex}))
        assert math.isclose(scale, want[image], rel_tol=1e-9, abs_tol=1e-12), simplex


@SETTINGS
@given(systems(), st.randoms(use_true_random=False))
def test_permutation_permutes_simplices(M, random):
    perm = list(range(len(M)))
    random.shuffle(perm)
    # Disk k of the permuted system is disk perm[k] of M.
    permuted = DiskSystem.from_arrays(M.centers[perm], M.radii[perm])
    assert math.isclose(exact_cech_scale(permuted), exact_cech_scale(M), rel_tol=1e-9, abs_tol=1e-12)
    got = {tuple(sorted(perm[v] for v in simplex)): scale for simplex, scale in _scales(permuted).items()}
    _assert_same_scales(got, _scales(M))
