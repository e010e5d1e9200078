"""Filtered generalized Cech complex construction."""

import math

import numpy as np
import pytest

from cechkit import (
    DiskSystem,
    build_filtration,
    is_cech_system,
    preprocess,
    rescale,
)
from conftest import random_system


def test_equilateral_filtration(equilateral_system):
    filtration = build_filtration(equilateral_system, max_dim=2)
    scales = filtration.scales()
    for v in range(3):
        assert scales[(v,)] == 0.0
    for edge in [(0, 1), (0, 2), (1, 2)]:
        assert scales[edge] == pytest.approx(0.5, abs=1e-12)
    assert scales[(0, 1, 2)] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)


def test_edge_scale_is_rips():
    M = DiskSystem.from_arrays([[0.0, 0.0], [3.0, 0.0]], [1.0, 2.0])
    filtration = build_filtration(M, max_dim=1)
    assert filtration.scales()[(0, 1)] == pytest.approx(1.0, abs=1e-15)


def test_sorted_order():
    rng = np.random.default_rng(79)
    M = random_system(rng, 2, 6)
    filtration = build_filtration(M, max_dim=3)
    keys = [s.sort_key() for s in filtration.simplices]
    assert keys == sorted(keys)


def test_face_monotonicity():
    rng = np.random.default_rng(83)
    eta = 1e-6
    for _ in range(20):
        d = int(rng.integers(2, 4))
        M = random_system(rng, d, int(rng.integers(4, 7)))
        filtration = build_filtration(M, max_dim=3)
        scales = filtration.scales()
        for simplex, scale in scales.items():
            for p in range(len(simplex)):
                facet = simplex[:p] + simplex[p + 1 :]
                if facet:
                    assert scale - scales[facet] >= -eta


def test_cech_scale_dominates_edges():
    rng = np.random.default_rng(89)
    for _ in range(20):
        M = random_system(rng, 2, 5)
        scales = build_filtration(M, max_dim=2).scales()
        for simplex, scale in scales.items():
            if len(simplex) < 3:
                continue
            from itertools import combinations

            edge_max = max(scales[e] for e in combinations(simplex, 2))
            assert scale >= edge_max - 1e-12


def test_level_consistency():
    rng = np.random.default_rng(97)
    eta = 1e-6
    M = random_system(rng, 2, 5)
    filtration = build_filtration(M, max_dim=2)
    for s in filtration.simplices:
        if s.scale == 0.0:
            continue
        sub = M.subsystem(s.vertices)
        # above the recorded scale the rescaled subsystem intersects,
        # below it (outside the eta band) it does not
        assert is_cech_system(rescale(sub, s.scale * (1 + 1e-3) + eta)).is_cech
        lam = s.scale * (1 - 1e-3) - eta
        if lam > 0:
            assert not is_cech_system(rescale(sub, lam)).is_cech


def test_at_level():
    M = DiskSystem.from_arrays([[0.0, 0.0], [2.0, 0.0]], [1.0, 1.0])
    filtration = build_filtration(M, max_dim=1)
    assert {s.vertices for s in filtration.at_level(0.5)} == {(0,), (1,)}
    assert {s.vertices for s in filtration.at_level(1.0)} == {(0,), (1,), (0, 1)}


def test_dedup_consistency():
    # duplicating a disk and preprocessing yields the same scales over the
    # reduced index set
    M = DiskSystem.from_arrays([[0.0, 0.0], [2.0, 0.0]], [1.0, 1.0])
    dup = DiskSystem.from_arrays([[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]], [1.0, 1.0, 1.0])
    reduced, kept = preprocess(dup)
    assert kept == (0, 2)
    np.testing.assert_array_equal(reduced.centers, M.centers)
    original = build_filtration(M, max_dim=1).scales()
    again = build_filtration(reduced, max_dim=1).scales()
    assert original == again


def test_rejects_bad_arguments(equilateral_system):
    with pytest.raises(ValueError):
        build_filtration(equilateral_system, max_dim=5)
