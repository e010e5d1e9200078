"""The public sphere functions against the walk's pole blocks.

``reduce_sphere_system``, ``intersect_two_spheres`` and ``poles_general``
wrap the kernel of :func:`cechkit.geometry.pole_block`
(:func:`cechkit.geometry.subset_spheres` and
:func:`cechkit.geometry.pole_offsets`), so they classify each subset and
place each pole bit for bit as the walk does.  Two source guards keep it so,
and keep ``tests/reference_poles.py`` a second derivation.
"""

import ast

import numpy as np
import pytest

import cechkit.geometry
import reference_poles as ref
from cechkit import (
    DegenerateConfiguration,
    DiskSystem,
    EmptyIntersection,
    GeometryError,
    PointIntersection,
    SphereIntersection,
    intersect_two_spheres,
    poles_general,
    reduce_sphere_system,
)
from cechkit.geometry import combination_rows, pole_block
from conftest import random_system

TOLS = (1e-9, 0.0)


def _block(M, j, tol):
    """Row -> (2d, d) candidate points of ``pole_block`` on M's j-subsets."""
    subsets, points, _ = pole_block(M.centers, M.radii, j, tol)
    return {tuple(row): p for row, p in zip(subsets.tolist(), points)}


def _candidates(kind, d, tol):
    """The block entry of a subset of this kind: None when empty, else its
    2d poles, south then north per axis, or its point 2d times."""
    if isinstance(kind, EmptyIntersection):
        return None
    if isinstance(kind, PointIntersection):
        return np.repeat(kind.point[None], 2 * d, axis=0)
    return np.array([pole.point for q in range(d) for pole in poles_general(kind.sphere, q, tol)])


def _disagrees(kind, entry, d, tol):
    """Whether a subset's kind and its block entry (None: no row) differ in
    class or in a single bit."""
    want = _candidates(kind, d, tol)
    if want is None or entry is None:
        return (want is None) != (entry is None)
    return want.tobytes() != entry.tobytes()


def _near_tangent_pairs(rng, n):
    """n pairs in d = 2-3 whose center distance is r1 + r2 (external) or
    |r1 - r2| (internal tangency), off by a relative 1e-16 to 1e-6 to
    either side."""
    for i in range(n):
        d = 2 + i % 2
        c1 = rng.uniform(-2.0, 2.0, d)
        r1, r2 = rng.uniform(0.2, 3.0, 2)
        u = rng.standard_normal(d)
        tangent = r1 + r2 if i % 4 < 2 else abs(r1 - r2)
        rel = 10.0 ** rng.uniform(-16.0, -6.0) * rng.choice([-1.0, 1.0])
        yield DiskSystem.from_arrays([c1, c1 + tangent * (1.0 + rel) * u / np.linalg.norm(u)], [r1, r2])


def test_pair_functions_classify_near_tangent_pairs_as_the_walk():
    # Each pair at tol 1e-9 and at tol 0: reduce_sphere_system's kind has
    # the pair's pole_block entry for its candidates, bit for bit, and
    # intersect_two_spheres is that kind with the normal c2 - c1.
    rng = np.random.default_rng(3)
    kinds, disagreements = set(), []
    for n, M in enumerate(_near_tangent_pairs(rng, 3000)):
        for tol in TOLS:
            kind, two = reduce_sphere_system(M, tol), intersect_two_spheres(M[0], M[1], tol)
            kinds.add(type(kind).__name__)
            if _disagrees(kind, _block(M, 2, tol).get((0, 1)), M.dimension, tol) or type(two) is not type(kind):
                disagreements.append((n, tol))
            elif isinstance(kind, PointIntersection):
                assert two.point.tobytes() == kind.point.tobytes()
            elif isinstance(kind, SphereIntersection):
                assert two.sphere.center.tobytes() == kind.sphere.center.tobytes()
                assert two.sphere.radius == kind.sphere.radius
                assert np.array_equal(two.sphere.normals, M.centers[1:] - M.centers[0])
    assert disagreements == []
    assert kinds == {"EmptyIntersection", "PointIntersection", "SphereIntersection"}


def test_poles_general_gives_the_walk_columns_bit_for_bit():
    # Every 2- and 3-subset of random 3-d systems: the subsystem's kind and
    # the poles of its sphere are the rows of the walk of the whole system.
    rng = np.random.default_rng(3)
    spheres, disagreements = 0, []
    for n in range(150):
        M = random_system(rng, 3, int(rng.integers(3, 7)))
        for tol in TOLS:
            for j in (2, 3):
                block = _block(M, j, tol)
                for row in combination_rows(len(M), j).tolist():
                    try:
                        kind = reduce_sphere_system(M.subsystem(row), tol)
                    except DegenerateConfiguration:  # pragma: no cover - random centers
                        assert tuple(row) not in block
                        continue
                    spheres += isinstance(kind, SphereIntersection)
                    if _disagrees(kind, block.get(tuple(row)), 3, tol):
                        disagreements.append((n, tol, row))
    assert disagreements == []
    assert spheres > 2000


def test_pole_block_rejects_sizes_below_one():
    M = random_system(np.random.default_rng(1), 2, 3)
    for j in (0, -1):
        with pytest.raises(GeometryError, match="at least 1"):
            pole_block(M.centers, M.radii, j)


def test_pole_block_of_d_plus_1_disks_is_a_point_or_nothing():
    # d normals leave one point in the affine hull: the rule of
    # reduce_sphere_system, never a sphere, even where r^2 > tol span^2.
    three_unit = DiskSystem.from_arrays([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 1.0])
    subsets, points, doubtful = pole_block(three_unit.centers, three_unit.radii, 3)
    assert subsets.shape == (0, 3) and points.shape == (0, 4, 2) and not doubtful
    through = DiskSystem.from_arrays([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]], [2.0**0.5] * 3)
    subsets, points, _ = pole_block(through.centers, through.radii, 3)
    assert subsets.tolist() == [[0, 1, 2]]
    np.testing.assert_allclose(points[0], np.ones((4, 2)), rtol=0.0, atol=1e-15)
    rng = np.random.default_rng(29)
    kinds = set()
    for n in range(300):
        d = 1 + n % 3
        M = random_system(rng, d, int(rng.integers(d + 1, d + 4)))
        if n % 2:  # every boundary through one point
            M = DiskSystem.from_arrays(M.centers, np.linalg.norm(M.centers - rng.uniform(0.0, 1.0, d), axis=1))
        for tol in TOLS:
            block = _block(M, d + 1, tol)
            for row in combination_rows(len(M), d + 1).tolist():
                try:
                    kind = reduce_sphere_system(M.subsystem(row), tol)
                except DegenerateConfiguration:
                    assert tuple(row) not in block
                    continue
                kinds.add(type(kind).__name__)
                assert not _disagrees(kind, block.get(tuple(row)), d, tol), (n, tol, row)
    assert kinds == {"EmptyIntersection", "PointIntersection"}


# ---------------------------------------------------------------------------
# Source guards
# ---------------------------------------------------------------------------

# The only functions of geometry.py that solve or decompose: the kernel,
# the projection step, its degenerate-axis step and the rank test.
SOLVERS = {"subset_spheres", "pole_offsets", "tangent_rows", "_rank_deficient"}


def _solve_callers(source):
    """Names of the functions of ``source`` that call a ``solve`` or an
    ``svd``, however spelt (the innermost one; "<module>" outside any)."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            if name in ("solve", "svd"):
                found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_only_the_kernel_solves():
    assert _solve_callers(open(cechkit.geometry.__file__, encoding="utf-8").read()) == SOLVERS


# Each public function's call of the kernel and the arithmetic of its own
# that it had before it wrapped the kernel.
OLD_ARITHMETIC = [
    ("poles_general", "offsets, flat = pole_offsets(normals, gram, tol)",
     "u = np.linalg.solve(gram, -N[:, q]) @ N"),
    ("reduce_sphere_system",
     "normals, _, center, r2, point, sphere, rank, _ = subset_spheres(M.centers, M.radii, np.arange(m)[None], tol)",
     "lam = np.linalg.solve(gram, rhs)"),
    ("tangent_basis", "return tangent_rows(self.normals)",
     "_, _, vh = np.linalg.svd(self.normals, full_matrices=True)"),
]


@pytest.mark.parametrize("function, call, old", OLD_ARITHMETIC, ids=[row[0] for row in OLD_ARITHMETIC])
def test_the_solve_guard_finds_old_arithmetic(function, call, old):
    # A copy of geometry.py with one wrapper given back its own solve.
    source = open(cechkit.geometry.__file__, encoding="utf-8").read()
    assert source.count(call) == 1
    assert _solve_callers(source.replace(call, old)) - SOLVERS == {function}


# What the reference may not name: the walk's kernel and every function
# that wraps it.
KERNEL = {"pole_block", "gram_rows", "subset_spheres", "pole_offsets", "tangent_rows", "tangent_basis",
          "reduce_sphere_system", "intersect_two_spheres", "poles_general", "poles_codim1", "boundary_poles"}


def test_reference_names_no_kernel_function():
    tree = ast.parse(open(ref.__file__, encoding="utf-8").read())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert names & KERNEL == set()
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"reduce", "intersect_two", "poles"} <= defined
