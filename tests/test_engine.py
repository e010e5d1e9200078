"""Batched pole engine against the per-subset reference enumeration, and
exact scales against the brackets of bisection."""

from itertools import combinations

import numpy as np
import pytest

import cechkit.cech
import reference_poles as ref
from cechkit import (
    DEFAULT_TOL,
    CechDecision,
    DiskSystem,
    aabb_minimal,
    build_filtration,
    cech_scale,
    exact_cech_scale,
    is_cech_system,
    jung_factor,
    rescale,
    rips_scale,
)
from cechkit.cech import candidate_poles
from cechkit.cli import render_svg
from cechkit.geometry import CONTAINS_CHUNK, PoleEngine
from conftest import (DEGENERATE, FACTORS, assert_in_bracket, hollow_simplex_system, lattice_systems, random_system,
                      scale_reach, scalings)

# Witnesses and box bounds come from reordered float arithmetic (batched
# matrix products, axis reductions), so they agree to rounding, not bits.
ATOL = 1e-12


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
    largest = max(points.shape[0] * points.shape[1] for _, _, points, _, _ in candidate_poles(PoleEngine(M.centers), M))
    assert largest > CONTAINS_CHUNK
    nu = rips_scale(M)
    for factor in (1.05, 1.3):
        _assert_same(rescale(M, factor * nu))


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_engine_matches_reference_on_degenerate_systems(name):
    for M in scalings(*DEGENERATE[name]):
        _assert_same(M)


@pytest.mark.parametrize("gap", [1e-6, -1e-6])
def test_engine_classifies_each_subset_with_its_own_span(gap):
    # Unit disks 0 and 1 whose centers lie 2 + gap apart: the squared radius
    # of their boundary intersection is about -gap, beyond tol times their
    # own span squared (9e-9) and within tol times the system's (about
    # 1e-5, disk 2 has radius 100).  So the pair is empty (gap > 0) or a
    # sphere (gap < 0), never a point, in the engine as in the reference.
    M = DiskSystem.from_arrays([[0.0, 0.0], [2.0 + gap, 0.0], [1.0, 0.0]], [1.0, 1.0, 100.0])
    got = {}
    for subsets, index, points, _, _ in candidate_poles(PoleEngine(M.centers), M):
        got.update(zip(map(tuple, subsets[index]), points))
    want = {subset: np.array([p.point for p in entries]) for subset, entries, _ in ref.candidate_poles(M) if entries}
    assert got.keys() == want.keys()
    for subset, points in want.items():
        np.testing.assert_allclose(got[subset], points, rtol=0.0, atol=ATOL)
    assert ((0, 1) in want) == (gap < 0.0)
    if gap < 0.0:
        assert np.ptp(want[0, 1][:, 1]) > 1e-3
    _assert_same(M)


def test_pair_too_close_to_square_is_dependent():
    # Centers 7.8e-162 apart: their squared distance, the pair's Gram
    # matrix, is subnormal and its inverse overflows, so the pair counts as
    # dependent, as coincident centers do.  The lens of disks 0 and 2 is
    # still the box, with or without a duplicate disk.
    M = DiskSystem.from_arrays([[1.0, 0.0], [7.76562464e-162, 0.0], [0.0, 0.0]], [1.0, 1.0, 1.0])
    for N in (M, M.subsystem([0, 1, 2, 0])):
        _assert_same(N)
        box = aabb_minimal(N)
        assert box.degeneracy_warning
        half = 3.0**0.5 / 2.0
        np.testing.assert_allclose(box.intervals, [[0.0, 1.0], [-half, half]], rtol=0.0, atol=ATOL)


def _dependent_before(M, decision):
    """Whether a subset of M with affinely dependent centers comes before the
    decision's answer in canonical order (size ascending, lexicographic):
    before its generating subset, or anywhere up to size d+1 when FALSE;
    no subset is walked past a disjoint pair.  Ranks by np.linalg.matrix_rank."""
    m, d = len(M), M.dimension
    if not decision.is_cech and ref.disjoint_pair(M):
        return False
    for k in range(1, min(m, d + 1) + 1):
        for subset in combinations(range(m), k):
            if subset == decision.generating_subset:
                return False
            offsets = M.centers[list(subset[1:])] - M.centers[subset[0]]
            if k > 1 and np.linalg.matrix_rank(offsets) < k - 1:
                return True
    return False


# Disks 0 and 1 are concentric, so pair (0, 1) is dependent; no disk pole
# lies in the lens of disks 0 and 2, whose tips are the first witness.
CONCENTRIC = ([[0.0, 0.0], [0.0, 0.0], [1.8 / 2.0**0.5, 1.8 / 2.0**0.5]], [1.0, 1.5, 1.0])


def test_warning_marks_dependent_subsets_before_the_answer():
    # Every rescaling of a DEGENERATE system warns exactly when a dependent
    # subset precedes its answer; the box warns whenever its walk met one.
    outcomes = set()
    for name, system in [*sorted(DEGENERATE.items()), ("concentric", CONCENTRIC)]:
        for M in scalings(*system):
            decision = is_cech_system(M)
            warn = _dependent_before(M, decision)
            assert decision.degeneracy_warning == warn, name
            outcomes.add((decision.is_cech, warn))
            box = aabb_minimal(M)
            if box is not None and _dependent_before(M, CechDecision(False)):
                assert box.degeneracy_warning, name
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}
    # Random centers are affinely independent: nothing is skipped.
    rng = np.random.default_rng(343)
    for d in (2, 3):
        for m in range(2, 9):
            M = random_system(rng, d, m)
            assert not cech_scale(M, 1e-6).degeneracy_warning
            for N in scalings(M.centers, M.radii):
                box = aabb_minimal(N)
                assert not is_cech_system(N).degeneracy_warning
                assert box is None or not box.degeneracy_warning


def _assert_same_report(M, eta, got=None):
    """cech_scale(M, eta), or its report ``got``, equals the reference
    bisection, which walks every step, in every report field, witness bits
    included.  Returns the reference report."""
    got = cech_scale(M, eta) if got is None else got
    want = ref.cech_scale(M, eta, decide=is_cech_system)
    assert got.rips_scale == want.rips_scale
    assert got.cech_scale == want.cech_scale
    assert got.bracket == want.bracket
    assert got.iterations == want.iterations
    assert got.degeneracy_warning == want.degeneracy_warning
    assert np.array_equal(got.witness, want.witness)
    return want


def test_cech_scale_matches_per_step_decisions_bit_for_bit():
    rng = np.random.default_rng(341)
    systems = [random_system(rng, d, m) for d in (2, 3) for m in range(2, 8)]
    systems += [M for name in sorted(DEGENERATE) for M in scalings(*DEGENERATE[name])]
    warned = 0
    for M in systems:
        warned += _assert_same_report(M, 1e-6).degeneracy_warning
    # The FALSE steps of the DEGENERATE systems skip dependent subsets, so
    # the warning is exercised.
    assert warned > 0


def _scale_corpus():
    """Seeded random systems (d 1-4, m 2-9), each also scaled by 10^k for
    k = -6..6, every DEGENERATE system under its scalings, and the lattice
    systems."""
    rng = np.random.default_rng(349)
    systems = []
    for _ in range(24):
        M = random_system(rng, int(rng.integers(1, 5)), int(rng.integers(2, 10)))
        systems += [DiskSystem.from_arrays(M.centers * 10.0**k, M.radii * 10.0**k) for k in range(-6, 7)]
    systems += [M for name in sorted(DEGENERATE) for M in scalings(*DEGENERATE[name])]
    return systems + [M for _, M in lattice_systems()]


@pytest.mark.parametrize("eta", [1e-6, 1e-12, 5e-324])
def test_cech_scale_matches_reference_bisection_on_corpus(eta):
    # Replayed steps leave every field as the walked ones set it, at scales
    # 1e-6 to 1e6, on dependent subsets and below the float spacing.
    bisected = sum(_assert_same_report(M, eta).iterations > 0 for M in _scale_corpus())
    assert bisected >= 100


def _record_walks(monkeypatch):
    """A list that receives the radii of every system walked in
    cechkit.cech, the reference bisection's decisions included."""
    walks = []

    def recorded(engine, N):
        walks.append(N.radii)
        return candidate_poles(engine, N)

    monkeypatch.setattr(cechkit.cech, "candidate_poles", recorded)
    return walks


def _bisecting_systems(rng, count):
    """``count`` systems per (d, m) shaped like the cech-scale ops of the
    benchmark: centers in [0, 1]^d, radii 0.9-1.1, drawn until the
    nu-rescaling has no common point, so every one bisects."""
    systems = []
    for d, m in [(3, 6), (2, 8), (2, 10), (3, 8), (2, 12)]:
        drawn = 0
        while drawn < count:
            M = DiskSystem.from_arrays(rng.uniform(0.0, 1.0, (m, d)), rng.uniform(0.9, 1.1, m))
            if not is_cech_system(rescale(M, rips_scale(M))).is_cech:
                systems.append(M)
                drawn += 1
    return systems


def _record_scales(monkeypatch):
    """A list that receives every scale by which cechkit.cech rescales a
    system, which cech_scale does only to walk it."""
    scales = []
    original = cechkit.cech.rescale

    def recorded(M, lam):
        scales.append(lam)
        return original(M, lam)

    monkeypatch.setattr(cechkit.cech, "rescale", recorded)
    return scales


def _record_certified(monkeypatch):
    """A list that receives the scale of every decision that a
    cechkit.cech.dual_bound test settles FALSE without a walk."""
    certified = []
    original = cechkit.cech.dual_bound

    def recorded(*args):
        certifies = original(*args)

        def recording(lam):
            if certifies(lam):
                certified.append(lam)
                return True
            return False

        return recording

    monkeypatch.setattr(cechkit.cech, "dual_bound", recorded)
    return certified


def test_cech_scale_walks_only_below_mu_and_at_its_upper_end(monkeypatch):
    # A step above mu is replayed TRUE, and a step below it that the basis of
    # mu certifies is FALSE unwalked, so the only walks are the upper end and
    # the uncertified steps at or below mu, within the containment reach of
    # it.  That reach, tol mu, is relative, so at every scale of the system
    # and eta 1e-6 it is far below the final bracket: only the upper end
    # walks.
    walked = _record_scales(monkeypatch)
    for base in _bisecting_systems(np.random.default_rng(353), 3):
        for k in (-6, -3, 0, 3, 6):
            M = DiskSystem.from_arrays(base.centers * 10.0**k, base.radii * 10.0**k)
            mu, basis, weights = cechkit.cech.cech_basis(M)
            certifies = cechkit.cech.dual_bound(M, basis, weights)
            for eta in (1e-6, 1e-12):
                walked.clear()
                report = cech_scale(M, eta)
                assert not any(certifies(lam) for lam in walked)
                assert all(lam <= mu for lam in walked if lam != report.bracket[1])
                if eta == 1e-6:
                    assert report.iterations > 0 and len(walked) == 1
                _assert_same_report(M, eta, report)


# Wrong exact scales to replay from; "below" and "above" lie 80 containment
# reaches of mu (conftest.scale_reach) from mu, far outside that reach.
WRONG_SCALES = {
    "nu": lambda M, mu: rips_scale(M),
    "jung": lambda M, mu: jung_factor(M.dimension) * rips_scale(M),
    "below": lambda M, mu: mu - 80.0 * scale_reach(mu),
    "above": lambda M, mu: mu + 80.0 * scale_reach(mu),
}


@pytest.mark.parametrize("wrong", sorted(WRONG_SCALES))
def test_cech_scale_falls_back_when_the_exact_scale_is_wrong(monkeypatch, wrong):
    # Replayed from a scale below the true one, the upper end fails to walk
    # TRUE once a step lands between the two, as it always does at eta
    # 1e-12 on the benchmark-shaped systems; then the bisection that decides
    # every step runs instead, and decides more scales above the wrong one
    # than the upper end alone.  From a scale above the true one every step
    # up to it is decided.  Either way the report is the reference's.  The
    # basis is the true one, so its certificates stay sound; a decision is
    # a walk or a certified FALSE.
    basis = cechkit.cech.cech_basis

    def wrong_basis(M, members=None):
        mu, *rest = basis(M, members)
        return (mu if members is not None else WRONG_SCALES[wrong](M, mu), *rest)

    monkeypatch.setattr(cechkit.cech, "cech_basis", wrong_basis)
    walked, certified = _record_scales(monkeypatch), _record_certified(monkeypatch)
    for M in _bisecting_systems(np.random.default_rng(359), 1):
        wrong_mu = WRONG_SCALES[wrong](M, basis(M)[0])
        for eta in (1e-6, 1e-12):
            walked.clear()
            certified.clear()
            report = cech_scale(M, eta)
            above = sum(lam > wrong_mu for lam in walked + certified)
            _assert_same_report(M, eta, report)
            if eta == 1e-12 and wrong in ("nu", "below"):
                assert above > 1
    for name in ("collinear-2d-extra", "duplicate-3d"):
        for M in scalings(*DEGENERATE[name]):
            for eta in (1e-6, 1e-12):
                _assert_same_report(M, eta)


# Exact Cech scales 1 + eps of the systems that the certificate must judge:
# inside the containment reach tol = 1e-9 (a point that passes at scale lam
# lies within lam (1 + tol) r_i of every center), at its edge and beyond it.
EPSILONS = (-1e-9, 1e-12, 1e-10, 1e-9, 2e-9, 3e-9, 4e-9, 1e-8, 1e-6, 1e-3)


def _near_band_bases():
    """``(group, system)``: seeded random systems (d 2-3, m 3-9) scaled by
    10^k, k = -6, -3, 0, 3, 6, the five scalings of one system sharing a
    group, then the DEGENERATE systems under their scalings and the lattice
    systems, each in a group of its own."""
    rng = np.random.default_rng(367)
    systems = []
    for group in range(8):
        M = random_system(rng, int(rng.integers(2, 4)), int(rng.integers(3, 10)))
        systems += [(group, DiskSystem.from_arrays(M.centers * 10.0**k, M.radii * 10.0**k)) for k in (-6, -3, 0, 3, 6)]
    others = [M for name in sorted(DEGENERATE) for M in scalings(*DEGENERATE[name])]
    return systems + list(enumerate(others + [M for _, M in lattice_systems()], start=8))


def _keeps_nothing(M):
    """Whether a full walk of M on a fresh engine retains no candidate."""
    return not any(inside.any() for *_, inside, _ in candidate_poles(PoleEngine(M.centers), M))


def _answers(M):
    return is_cech_system(M), aabb_minimal(M), render_svg(M) if M.dimension == 2 else None


def test_certificate_is_sound_near_the_exact_scale(monkeypatch):
    # Each base system is rescaled to exact Cech scale 1 + eps.  Whenever a
    # bound certifies (the search of a single decision, or the basis of mu
    # at the rescaling factor as cech_scale uses it), a full walk retains no
    # candidate, and the decision, box and picture equal those of the full
    # walk, warnings included.
    def full_walk_answers(M):
        with monkeypatch.context() as patch:
            patch.setattr(cechkit.cech, "certified_empty", lambda M, tol=DEFAULT_TOL: False)
            return _answers(M)

    counts = {eps: 0 for eps in EPSILONS}
    per_group = {}
    for group, base in _near_band_bases():
        mu, basis, weights = cechkit.cech.cech_basis(base)
        certifies = cechkit.cech.dual_bound(base, basis, weights)
        certified = 0
        for eps in EPSILONS:
            lam = mu / (1.0 + eps)
            M = rescale(base, lam)
            if certifies(lam):
                certified += 1
                assert _keeps_nothing(M)
            if cechkit.cech.certified_empty(M):
                certified += 1
                counts[eps] += 1
                assert _keeps_nothing(M)
                (got, box, svg), (want, want_box, want_svg) = _answers(M), full_walk_answers(M)
                assert not got.is_cech and not want.is_cech
                assert got.degeneracy_warning == want.degeneracy_warning
                assert box is None and want_box is None and svg == want_svg
        per_group.setdefault(group, set()).add(certified)
    # The tolerance is relative to each disk, so each system certifies as
    # often under all five of its scalings.  Below the tolerance nothing
    # certifies; well beyond it nearly everything does.
    assert all(len(certified) == 1 for certified in per_group.values())
    assert counts[-1e-9] == counts[1e-12] == 0
    assert counts[1e-3] >= 100


def test_certificate_fires_on_hollow_systems(monkeypatch):
    # Every pair meets and the system has no common point: the single
    # decisions certify FALSE and walk nothing, with the reference answers.
    walks = _record_walks(monkeypatch)
    rng = np.random.default_rng(373)
    systems = [hollow_simplex_system(rng, d) for d in (2, 3) for _ in range(3)]
    for M in _bisecting_systems(rng, 2):
        nu, mu = rips_scale(M), exact_cech_scale(M)
        systems.append(rescale(M, 0.5 * (nu + mu)))
    for M in systems:
        assert cechkit.cech.certified_empty(M)
        walks.clear()
        decision, box, svg = _answers(M)
        assert walks == []
        want = ref.is_cech_system(M)
        assert not decision.is_cech and not want.is_cech
        assert decision.degeneracy_warning == want.degeneracy_warning
        assert box is None and ref.aabb_minimal(M) is None
        assert svg is None or svg == ref.render_svg(M)


def test_exact_scale_within_bisection_bracket_on_random_systems():
    rng = np.random.default_rng(601)
    for _ in range(60):
        M = random_system(rng, int(rng.integers(2, 4)), int(rng.integers(2, 9)))
        assert_in_bracket(exact_cech_scale(M), M, cech_scale(M, 1e-9).bracket)


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_exact_scale_within_bisection_bracket_on_degenerate_systems(name):
    for M in scalings(*DEGENERATE[name]):
        assert_in_bracket(exact_cech_scale(M), M, cech_scale(M, 1e-9).bracket)


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
                assert_in_bracket(scale, sub, ref.cech_scale(sub, 1e-6).bracket)
