"""Batched pole blocks (:func:`cechkit.geometry.pole_block`) against the
per-subset reference enumeration, and exact scales against the brackets of
bisection."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import cechkit.cech
import cechkit.geometry
import reference_poles as ref
from cechkit import (
    DEFAULT_TOL,
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
from cechkit.cli import parse_disk_system, render_svg
from cechkit.geometry import CONTAINS_CHUNK, center_distances, combination_rows, gram_rows, pole_block
from conftest import (DEGENERATE, FACTORS, NEAR_DEPENDENT, NEAR_EPSILONS, assert_in_bracket, hollow_simplex_system,
                      lattice_systems, near_dependent, near_dependent_systems, random_system, scale_reach, scalings)

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
    largest = max(points.shape[0] * points.shape[1] for _, points, _, _ in candidate_poles(M))
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
    # sphere (gap < 0), never a point, in pole_block as in the reference.
    M = DiskSystem.from_arrays([[0.0, 0.0], [2.0 + gap, 0.0], [1.0, 0.0]], [1.0, 1.0, 100.0])
    got = {}
    for subsets, points, _, _ in candidate_poles(M):
        got.update(zip(map(tuple, subsets), points))
    want = {subset: np.array([p.point for p in entries]) for subset, entries, _ in ref.candidate_poles(M) if entries}
    assert got.keys() == want.keys()
    for subset, points in want.items():
        np.testing.assert_allclose(got[subset], points, rtol=0.0, atol=ATOL)
    assert ((0, 1) in want) == (gap < 0.0)
    if gap < 0.0:
        assert np.ptp(want[0, 1][:, 1]) > 1e-3
    _assert_same(M)


def test_pole_block_rows_keep_their_bits_in_any_subsystem():
    # Each row's arithmetic reads only its own disks, whichever stack holds
    # it: the walk of a sorted subset S of the disks yields, for every row
    # of S, the bits of the same disks' row in the walk of all m disks, and
    # loses none of the rows within S.
    rng = np.random.default_rng(372)
    checked = 0
    for _ in range(300):
        d, m = int(rng.integers(2, 4)), int(rng.integers(4, 20))
        M = random_system(rng, d, m)
        S = np.sort(rng.choice(m, int(rng.integers(2, m)), replace=False))
        for j in range(1, min(len(S), d) + 1):
            subsets, points, _ = pole_block(M.centers, M.radii, j)
            whole = {tuple(row): p for row, p in zip(subsets, points)}
            subsets, points, _ = pole_block(M.centers[S], M.radii[S], j)
            part = {tuple(S[row]): p for row, p in zip(subsets, points)}
            assert part.keys() == {row for row in whole if set(row) <= set(S)}
            assert all(p.tobytes() == whole[row].tobytes() for row, p in part.items())
            checked += len(part)
    assert checked > 8000


def test_pair_too_close_to_square_is_dependent():
    # Centers 7.8e-162 apart: their squared distance, the pair's Gram
    # matrix, is subnormal and its inverse overflows, so the pair counts as
    # dependent, as coincident centers do.  Its skip is in doubt: the matrix
    # lost its precision, so its ratio says nothing, and a nonzero one is
    # not of equal centers.  So the box warns.  The lens of disks 0 and 2 is
    # still the box, with or without a duplicate disk.
    M = DiskSystem.from_arrays([[1.0, 0.0], [7.76562464e-162, 0.0], [0.0, 0.0]], [1.0, 1.0, 1.0])
    for N in (M, M.subsystem([0, 1, 2, 0])):
        _assert_same(N)
        box = aabb_minimal(N)
        assert box.degeneracy_warning
        half = 3.0**0.5 / 2.0
        np.testing.assert_allclose(box.intervals, [[0.0, 1.0], [-half, half]], rtol=0.0, atol=ATOL)


def _exact_rank(vectors):
    """Rank of float vectors in exact rational arithmetic."""
    rows, rank = [[Fraction(x) for x in v] for v in vectors], 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _skips(M, most):
    """``(row, doubtful)`` for every subset of 2 to ``most`` disks of M that
    :func:`gram_rows` finds affinely dependent."""
    m = len(M)
    for j in range(2, min(m, most) + 1):
        rows = combination_rows(m, j)
        full, doubtful = gram_rows(M.centers, rows)[3:5]
        yield from zip(rows[~full], doubtful[~full])


def _in_doubt(M):
    """Whether a walk of M skips a subset in doubt: a FALSE walk visits
    every subset of 2 to d disks."""
    return any(doubtful for _, doubtful in _skips(M, M.dimension))


# Disks 0 and 1 are concentric, so pair (0, 1) is dependent; no disk pole
# lies in the lens of disks 0 and 2, whose tips are the first witness.
CONCENTRIC = ([[0.0, 0.0], [0.0, 0.0], [1.8 / 2.0**0.5, 1.8 / 2.0**0.5]], [1.0, 1.5, 1.0])


def test_exactly_dependent_skips_never_warn():
    # Every skip on the DEGENERATE, concentric and lattice systems is of
    # exactly dependent centers, within the doubt floor, so no answer warns,
    # TRUE or FALSE, walked or certified, though every one of them skips.
    systems = [M for name in [*sorted(DEGENERATE), "concentric"] for M in scalings(*DEGENERATE.get(name, CONCENTRIC))]
    outcomes = set()
    for M in systems + [M for _, M in lattice_systems()]:
        assert not _in_doubt(M)
        decision, box, report = is_cech_system(M), aabb_minimal(M), cech_scale(M, 1e-12)
        outcomes.add(decision.is_cech)
        assert not decision.degeneracy_warning
        assert box is None or not box.degeneracy_warning
        assert not report.degeneracy_warning
    assert outcomes == {True, False}
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


@pytest.mark.parametrize("name", sorted(NEAR_DEPENDENT))
def test_warnings_follow_the_doubt_floor(name):
    # One center moved off a line or plane by eps: up to 1e-8 the skipped
    # subset's Gram ratio is at the level of rounding and nothing warns.
    # Above the floor the skip is in doubt: the box warns, and so does a
    # FALSE decision that walks, just beyond the containment reach of the
    # exact scale where the certificate cannot reach; a TRUE decision and a
    # certified FALSE, a disjoint pair's included, never warn.  Walks visit
    # subsets of at most d disks, whose moved subsets are triples: a 2-D
    # pair's Gram ratio is 1, and a coplanar quadruple in 3-D is not walked,
    # so only the 3-D triples warn.
    doubted = []
    for eps in NEAR_EPSILONS:
        M = near_dependent(name, eps)
        doubt = _in_doubt(M)
        doubted += [eps] * doubt
        assert not (doubt and eps <= 1e-8)
        nu, mu = rips_scale(M), exact_cech_scale(M)
        inside = rescale(M, 1.3 * nu)
        assert aabb_minimal(inside).degeneracy_warning == doubt == ref.aabb_minimal(inside).degeneracy_warning
        decision = is_cech_system(inside)
        assert decision.is_cech and not decision.degeneracy_warning
        walked = rescale(M, mu / ((1.0 + DEFAULT_TOL) * (1.0 + 5e-13)))
        decision = is_cech_system(walked)
        assert not cechkit.cech.certified_empty(walked) and not decision.is_cech
        assert decision.degeneracy_warning == doubt == ref.is_cech_system(walked).degeneracy_warning
        assert not is_cech_system(rescale(M, 0.999 * mu)).degeneracy_warning
        for eta in (1e-6, 1e-12):
            _assert_same_report(M, eta)
    assert doubted == {"collinear-3d-skew": [1e-6, 3e-6], "hollow-3d-edge": [3e-7]}.get(name, [])
    if name == "hollow-3d-edge":
        # Its cech-scale walks its lower end at eta 1e-12: a FALSE walk.
        assert all(cech_scale(near_dependent(name, eps), 1e-12).degeneracy_warning for eps in doubted)


def test_silent_skips_are_exactly_dependent():
    # Every skip on the golden, DEGENERATE and lattice inputs is silent and
    # of centers whose differences are dependent in exact arithmetic.  Every
    # skip in doubt, on the near-dependent systems (golden names with "+"),
    # is of independent ones; their silent skips of centers moved by 1e-8 or
    # less are independent too, but dependent to working precision.  Only
    # the centers matter, so each set of centers is tested once.  The rank
    # test is that of the Cech basis's subsets too, so it is checked on
    # subsets of up to d+1 disks, beyond those that walks visit.
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))
    near = [parse_disk_system(case["csv"]) for case in golden["cases"] if "+" in case["name"]]
    near += [M for *_, M in near_dependent_systems()]
    systems = [parse_disk_system(case["csv"]) for case in golden["cases"] if "+" not in case["name"]]
    systems += [DiskSystem.from_arrays(*system) for system in DEGENERATE.values()]
    systems += [M for _, M in lattice_systems()]
    counts = {False: 0, True: 0}
    for exact, group in ((True, systems), (False, near)):
        for M in {M.centers.tobytes(): M for M in group}.values():
            for row, doubtful in _skips(M, M.dimension + 1):
                counts[bool(doubtful)] += 1
                if exact or doubtful:
                    c = [[Fraction(x) for x in M.centers[i]] for i in row]
                    rank = _exact_rank([[a - b for a, b in zip(ci, c[-1])] for ci in c[:-1]])
                    assert not (exact and doubtful) and (rank == len(row) - 1) == doubtful, row
    assert counts[False] > 100 and counts[True] > 10


def test_every_point_of_d_plus_1_disks_is_a_point_of_a_walked_subset():
    # Walks visit subsets of at most d disks.  A subset of d+1 disks that
    # the rank test keeps, or skips in doubt, yields at most the common
    # point of its d+1 spheres; that point lies on the 0-sphere of each of
    # its d-subsets, and both points of a 0-sphere are candidates of the
    # d-block.  So none is lost as long as one of those d-subsets is kept:
    # no (d+1)-subset may have all its d-subsets skipped.
    rng = np.random.default_rng(383)
    systems = [DiskSystem.from_arrays(*system) for system in DEGENERATE.values()]
    systems += [M for *_, M in near_dependent_systems()] + [M for _, M in lattice_systems()]
    systems += [random_system(rng, int(rng.integers(1, 4)), int(rng.integers(2, 14))) for _ in range(300)]
    checked = 0
    for M in systems:
        m, d = M.centers.shape
        if m <= d:
            continue
        rows, subsets = combination_rows(m, d + 1), combination_rows(m, d)
        full, doubtful = gram_rows(M.centers, rows)[3:5]
        kept = {tuple(row) for row in subsets[gram_rows(M.centers, subsets)[3]]}
        for row in rows[full | doubtful]:
            checked += 1
            assert any(tuple(np.delete(row, k)) in kept for k in range(d + 1)), (M.centers, row)
    assert checked > 25_000


def _assert_same_report(M, eta, got=None):
    """cech_scale(M, eta), or its report ``got``, equals the reference
    bisection, which walks every step, in every report field, witness bits
    included.  Its warning says that a walk decided the lower end FALSE,
    where the basis of mu does not certify it, and skipped a subset in doubt.
    Returns the reference report."""
    got = cech_scale(M, eta) if got is None else got
    want = ref.cech_scale(M, eta, decide=is_cech_system)
    assert got.rips_scale == want.rips_scale
    assert got.cech_scale == want.cech_scale
    assert got.bracket == want.bracket
    assert got.iterations == want.iterations
    assert np.array_equal(got.witness, want.witness)
    lo, hi = want.bracket
    walked = lo < hi and not cechkit.cech.dual_bound(M, *cechkit.cech.cech_basis(M)[1:])(lo)
    assert got.degeneracy_warning == (walked and _in_doubt(M))
    return want


def test_cech_scale_matches_per_step_decisions_bit_for_bit():
    rng = np.random.default_rng(341)
    systems = [random_system(rng, d, m) for d in (2, 3) for m in range(2, 8)]
    systems += [M for name in sorted(DEGENERATE) for M in scalings(*DEGENERATE[name])]
    for M in systems:
        _assert_same_report(M, 1e-6)


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


def test_cech_scale_builds_one_distance_matrix(monkeypatch):
    # nu comes from the first round of the basis search, whose matrix it
    # shares; every report keeps the bits of the bisection walked from
    # rips_scale(M).
    calls = []

    def counted(centers):
        calls.append(len(centers))
        return center_distances(centers)

    systems = [DiskSystem.from_arrays([[0.0, 0.0]], [1.0]), DiskSystem.from_arrays([[1.0, 2.0]] * 2, [1.0, 2.0])]
    systems += [M for name in sorted(DEGENERATE) for M in scalings(*DEGENERATE[name])]
    systems += [random_system(np.random.default_rng(353), d, m) for d in (1, 2, 3) for m in (2, 5, 9)]
    bisected = 0
    for M in systems:
        calls.clear()
        monkeypatch.setattr(cechkit.cech, "center_distances", counted)
        report = cech_scale(M)
        monkeypatch.undo()
        assert calls == [len(M)]
        bisected += _assert_same_report(M, 1e-6, report).iterations > 0
    assert bisected >= 5


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

    def recorded(N, tol):
        walks.append(N.radii)
        return candidate_poles(N, tol)

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
    # a walk or a certified FALSE.  certified_empty runs the search's rounds
    # itself, not cech_basis, so the wrong scale reaches cech_scale alone.
    basis = cechkit.cech.cech_basis

    def wrong_basis(M):
        mu, *rest = basis(M)
        return (WRONG_SCALES[wrong](M, mu), *rest)

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
    """Whether a full walk of M retains no candidate."""
    return not any(inside.any() for *_, inside, _ in candidate_poles(M))


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


def test_pair_round_certifies_above_its_threshold():
    # Pairs at center distance (r0 + r1)(1 + tol)(1 + 1e-12)(1 + k e), in
    # 1-3 dimensions, at radius ratios up to 10^3 and translated; e is the
    # pair round's excess to first order (cechkit.cech.dual_bound).  Every pair whose stored floats lie above
    # 1.01 e is certified; none is that the reference's disjoint-pair rule
    # still walks; and a pair in the band between the two, which the rule
    # calls disjoint and the round does not certify, walks and keeps
    # nothing, so its answers are those of a certificate.
    rng = np.random.default_rng(389)
    above = band = 0
    for d in (1, 2, 3):
        for _ in range(150):
            r0 = 10.0 ** rng.uniform(-3.0, 3.0)
            r1 = r0 * 10.0 ** rng.uniform(-3.0, 3.0)
            excess = (d + 14) * 2.0**-53 + (d + 4) * 2.0**-49 * (r0 + r1) ** 2 / (r0 * r1)
            direction = rng.normal(size=d)
            direction /= np.linalg.norm(direction)
            shift = rng.uniform(-10.0, 10.0, d) * (r0 + r1)
            for k in np.linspace(-3.0, 3.0, 13):
                dist = (r0 + r1) * (1.0 + DEFAULT_TOL) * (1.0 + 1e-12) * (1.0 + k * excess)
                M = DiskSystem.from_arrays([shift, shift + dist * direction], [r0, r1])
                # nu^2 of the stored floats, exactly, against the threshold.
                (c0, c1), (s0, s1) = M.centers, M.radii
                sq = sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(c0, c1))
                reach = (Fraction(s0) + Fraction(s1)) * (1 + Fraction(DEFAULT_TOL)) * (1 + Fraction(1e-12))
                certified, disjoint = cechkit.cech.certified_empty(M), ref.disjoint_pair(M)
                if sq > (reach * (1 + Fraction(1.01 * excess))) ** 2:
                    above += 1
                    assert certified
                assert disjoint or not certified
                if disjoint and not certified:
                    band += 1
                    assert _keeps_nothing(M)
    assert above > 1000 and band > 500


def test_one_distance_matrix_per_answer(monkeypatch):
    # A decision, a box and a picture each build the m x m matrix of center
    # distances once, for the nu pair that the basis search starts from, on
    # disjoint, TRUE and hollow systems alike.
    built = []
    original = cechkit.geometry.center_distances

    def counting(centers):
        built.append(len(centers))
        return original(centers)

    monkeypatch.setattr(cechkit.geometry, "center_distances", counting)
    monkeypatch.setattr(cechkit.cech, "center_distances", counting)
    for M in _bisecting_systems(np.random.default_rng(383), 1):
        nu, mu = rips_scale(M), exact_cech_scale(M)
        for lam in (0.9 * nu, 0.5 * (nu + mu), 1.01 * mu, 1.3 * jung_factor(M.dimension) * nu):
            N = rescale(M, lam)
            for answer in (is_cech_system, aabb_minimal) + ((render_svg,) if M.dimension == 2 else ()):
                built.clear()
                answer(N)
                assert built == [len(N)], (answer.__name__, lam / nu)


def test_certificate_stops_at_the_first_round_that_certifies(monkeypatch):
    # On 3-D hollow systems the certificate takes no more closed-form roots
    # than the basis search to its end, and fewer when an earlier round
    # than the last certifies.
    calls = []
    original = cechkit.cech._meets

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cechkit.cech, "_meets", counting)
    rng = np.random.default_rng(379)
    systems = [hollow_simplex_system(rng, 3) for _ in range(3)]
    for M in _bisecting_systems(rng, 4):
        if M.dimension == 3:
            systems.append(rescale(M, 0.5 * (rips_scale(M) + exact_cech_scale(M))))
    fewer = 0
    for M in systems:
        calls.clear()
        assert cechkit.cech.certified_empty(M)
        certifying = len(calls)
        calls.clear()
        cechkit.cech.cech_basis(M)
        assert certifying <= len(calls)
        fewer += certifying < len(calls)
    assert fewer >= 1


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
