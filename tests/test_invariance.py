"""Answers that do not depend on the unit of length, the origin, the order
of the disks, repeated disks or redundant disks.

Every tolerance is relative to the span of the disks its test involves, so
scaling a system by a power of two, which is exact in floats, changes no
decision and no scale report, and scales witnesses and boxes by exactly
that power; and a disk that contains another widens no other disk's reach.
Translation, permutation, duplicate and redundant disks change the
arithmetic, so they are tested on systems whose exact Cech scale lies well
away from 1.
"""

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cechkit import (DiskSystem, GeometryError, aabb_minimal, cech_scale, exact_cech_scale, is_cech_system, preprocess,
                     rescale)
from conftest import random_system

POWERS = (-40, -20, -10, 10, 20, 40)
# Exact Cech scales 1 + eps: inside the containment reach on either side of
# 1 and beyond it.
EPSILONS = (-1e-8, -3e-9, -1e-9, 1e-10, 1e-8)


def _answers(M):
    return is_cech_system(M), aabb_minimal(M), cech_scale(M)


def _assert_scaled(got, want, factor):
    """Answers ``got`` of a system equal those ``want`` of it divided by the
    power of two ``factor``: flags, subsets and scales bit for bit, points
    times factor exactly."""
    (decision, box, report), (want_decision, want_box, want_report) = got, want
    assert decision.is_cech == want_decision.is_cech
    assert decision.generating_subset == want_decision.generating_subset
    assert decision.degeneracy_warning == want_decision.degeneracy_warning
    if want_decision.is_cech:
        assert np.array_equal(decision.witness, want_decision.witness * factor)
    assert (box is None) == (want_box is None)
    if want_box is not None:
        assert np.array_equal(box.intervals, want_box.intervals * factor)
        assert box.degeneracy_warning == want_box.degeneracy_warning
    assert report.rips_scale == want_report.rips_scale
    assert report.cech_scale == want_report.cech_scale
    assert report.eta == want_report.eta
    assert report.bracket == want_report.bracket
    assert report.iterations == want_report.iterations
    assert report.degeneracy_warning == want_report.degeneracy_warning
    assert np.array_equal(report.witness, want_report.witness * factor)


def test_power_of_two_scaling_changes_no_answer():
    rng = np.random.default_rng(383)
    outcomes = set()
    for _ in range(40):
        base = random_system(rng, int(rng.integers(2, 4)), int(rng.integers(3, 9)))
        mu = exact_cech_scale(base)
        for eps in EPSILONS:
            M = rescale(base, mu / (1.0 + eps))
            want = _answers(M)
            outcomes.add(want[0].is_cech)
            for k in POWERS:
                factor = 2.0**k
                _assert_scaled(_answers(DiskSystem.from_arrays(M.centers * factor, M.radii * factor)), want, factor)
    assert outcomes == {True, False}


def test_pair_decision_at_every_length_scale():
    # Two disks of radius s whose centers are 2 s (1 + gap) apart meet
    # within the tolerance exactly when gap < tol, whatever s is.
    for k in range(-6, 7):
        s = 10.0**k
        for gap, meets in ((1e-8, False), (1e-10, True)):
            M = DiskSystem.from_arrays([[0.0, 0.0], [2.0 * s * (1.0 + gap), 0.0]], [s, s])
            assert is_cech_system(M).is_cech == meets == (aabb_minimal(M) is not None), (s, gap)


# Unit disks A and B whose gap, 2e-8, is ten times the 2 tol their reaches
# allow, and disks C that each contain A: centered on A's boundary next to
# the gap, internally tangent to A at the gap, or centered far away.
GAP_PAIR = ([[0.0, 0.0], [2.0 + 2e-8, 0.0]], [1.0, 1.0])
CONTAINING_A = [([1.0, 0.0], 1e3), ([1.0, 0.0], 1e6), ([1.0 - 1e6, 0.0], 1e6), ([1e3, 0.0], 1002.0)]


@pytest.mark.parametrize("center, radius", CONTAINING_A)
def test_disk_containing_another_keeps_a_false_answer(center, radius):
    # C widens neither A's nor B's reach, so the gap stays open; and
    # preprocess, which drops C, gives the same answers.
    M = DiskSystem.from_arrays([*GAP_PAIR[0], center], [*GAP_PAIR[1], radius])
    reduced, kept = preprocess(M)
    assert kept == (0, 1)
    for N in (M, reduced):
        assert not is_cech_system(N).is_cech and aabb_minimal(N) is None
    report, want = cech_scale(M), cech_scale(reduced)
    assert (report.cech_scale, report.bracket) == (want.cech_scale, want.bracket)


# Centers in [0, 1]^d and radii in [0.1, 1], as in random_system; hypothesis
# also draws repeated and boundary values, so degenerate subsets occur.
unit = st.floats(0.0, 1.0, allow_subnormal=False)
SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def banded_systems(draw):
    """A system rescaled to exact Cech scale s, with s at least 1e-3 away
    from 1: it intersects exactly when s < 1, far outside the tolerance."""
    d = draw(st.integers(2, 3))
    m = draw(st.integers(2, 6))
    centers = draw(arrays(float, (m, d), elements=unit))
    radii = draw(arrays(float, m, elements=st.floats(0.1, 1.0)))
    M = DiskSystem.from_arrays(centers, radii)
    mu = exact_cech_scale(M)
    assume(mu > 0.0)
    scale = draw(st.floats(0.5, 0.999) | st.floats(1.001, 1.5))
    try:
        return rescale(M, mu / scale)
    except GeometryError:  # too small to square: DiskSystem refuses it
        reject()


def _assert_same_set(M, N, move=lambda box: box, factor=1.0):
    """M, and N, the same disks moved by ``move`` and scaled by ``factor``,
    answer the decision as their exact scale says, and give the same box up
    to rounding."""
    decision, box = is_cech_system(N), aabb_minimal(N)
    assert decision.is_cech == is_cech_system(M).is_cech == (exact_cech_scale(M) < 1.0)
    want = aabb_minimal(M)
    assert (box is None) == (want is None) == (not decision.is_cech)
    if want is not None:
        np.testing.assert_allclose(box.intervals, move(want.intervals), rtol=0.0, atol=1e-9 * factor)


@SETTINGS
@given(banded_systems(), arrays(float, 3, elements=st.floats(-10.0, 10.0)))
def test_translation_moves_the_box(M, shift):
    shift = shift[: M.dimension]
    _assert_same_set(M, DiskSystem.from_arrays(M.centers + shift, M.radii), lambda box: box + shift[:, None])


@SETTINGS
@given(banded_systems(), st.integers(-6, 6))
def test_scaling_scales_the_box(M, k):
    factor = 10.0**k
    N = DiskSystem.from_arrays(M.centers * factor, M.radii * factor)
    _assert_same_set(M, N, lambda box: box * factor, factor)


@SETTINGS
@given(banded_systems(), st.randoms(use_true_random=False))
def test_permutation_keeps_the_box(M, random):
    perm = list(range(len(M)))
    random.shuffle(perm)
    _assert_same_set(M, M.subsystem(perm))


@SETTINGS
@given(banded_systems(), st.data())
def test_duplicate_disk_keeps_the_box(M, data):
    i = data.draw(st.integers(0, len(M) - 1))
    _assert_same_set(M, M.subsystem([*range(len(M)), i]))


@SETTINGS
@given(banded_systems(), st.data())
def test_disk_containing_another_keeps_the_box(M, data):
    # A disk C containing disk i of M: the intersection is unchanged, and
    # preprocess drops C again.  C's boundary keeps at least 1e-3 r_i from
    # disk i, and C may be up to 1e6 times larger than the system.
    i = data.draw(st.integers(0, len(M) - 1))
    direction = data.draw(arrays(float, M.dimension, elements=st.floats(-1.0, 1.0)))
    distance = data.draw(st.sampled_from([0.0, 1.0, 1e3, 1e6]))
    margin = data.draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6])) * M.radii[i]
    norm = float(np.linalg.norm(direction))
    center = M.centers[i] + (direction / norm * distance if norm > 0.0 else 0.0)
    radius = float(np.linalg.norm(center - M.centers[i])) + M.radii[i] + margin
    N = DiskSystem.from_arrays([*M.centers, center], [*M.radii, radius])
    _assert_same_set(M, N)
    reduced, kept = preprocess(N)
    assert len(M) not in kept
    assert is_cech_system(reduced).is_cech == is_cech_system(N).is_cech
