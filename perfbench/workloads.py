"""Seeded inputs, op sequences and output checks for the two workloads.

Every workload is a fixed cycle of op templates.  A template fixes the
structure of an op (command, dimension d, disk count m, expected outcome);
the seed only draws the geometry.  Pools hold many cycles of fresh systems,
so at the rates measured when the benchmark was written no input repeats
within a run, and any prefix of the op sequence has the cycle's mix.

Expected answers are certified here, without the production algorithms:

* TRUE systems are rescaled to 1.01 * jung(d) * nu, so Jung's bound
  mu <= jung(d) * nu guarantees a common point.
* Disjoint-pair FALSE systems are rescaled to 0.9 * nu, so the pair that
  attains nu no longer meets.
* Hollow FALSE systems (every pair meets, no common point) are rescaled to
  a lambda strictly between nu and the oracle's minimax value mu_T of a
  triple of their disks; a system is kept only when that gap is wider than
  the oracle's slack.  With no common point in the triple, the system has
  none either, and the oracle only has to grid three disks.

The checks use plain numpy on the disk files the benchmark wrote.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

WORKLOADS = ("cli", "oracle")

ETA = 1e-6
# Production decides membership with tol * (1 + r), tol = 1e-9; the
# checks allow ten times that so last-digit differences never fail an op.
CHECK_TOL = 1e-8
# A certified gap must exceed this share of the scale it separates.
MARGIN = 1e-3


def jung(d: int) -> float:
    return math.sqrt(2.0 * d / (d + 1.0))


# ---------------------------------------------------------------------------
# Op templates
# ---------------------------------------------------------------------------

# The cli workload runs one cycle of every CLI command: the decision
# templates, then cech-scale, then filtration.  The latency quantiles are
# read over the cycle's template means (run.cycle_metrics), so the cycle is
# laid out to put p50 and p90 in the middle of a group of templates of
# similar cost, where two neighbouring templates that swap places move them
# little.  Measured when the benchmark was written, the 33 templates fall
# into groups of 5 TRUE checks that stop at the first witness (5-40 ms),
# 2 walks at d=2, m=12 (30 ms), 7 ops of 50-60 ms, 5 of 75-100 ms (holds
# p50), 8 of 125-160 ms, 5 of 210-235 ms (holds p90) and the hollow d=2,
# m=32 check (370 ms).

# Decision templates (d, m, kind, command, --preprocess): check/aabb/plot on
# TRUE, disjoint-pair and hollow systems.  Hollow systems are 2-D only: a
# d=3 hollow check walks C(m,4) subsets.  A fixed quarter passes
# --preprocess.
DECIDE = (
    (2, 12, "true", "check", False),
    (2, 24, "true", "check", True),
    (2, 32, "true", "check", False),
    (3, 12, "true", "check", False),
    (3, 16, "true", "check", False),
    (2, 12, "disjoint", "check", False),
    (2, 12, "hollow", "check", False),
    (2, 16, "disjoint", "check", False),
    (2, 16, "hollow", "check", True),
    (2, 16, "true", "aabb", False),
    (2, 16, "hollow", "aabb", False),
    (2, 12, "true", "plot", False),
    (2, 12, "hollow", "plot", False),
    (3, 12, "disjoint", "check", False),
    (3, 12, "true", "aabb", True),
    (2, 24, "disjoint", "check", True),
    (2, 24, "hollow", "aabb", False),
    (3, 16, "disjoint", "check", False),
    (3, 16, "disjoint", "aabb", True),
    (2, 32, "hollow", "check", False),
)

# cech-scale templates (d, m) on systems whose nu-rescaling has no common
# point, so every op bisects.
SCALE = ((3, 6), (2, 8), (2, 10), (2, 10), (3, 8), (2, 12))

# filtration templates (d, m, max_dim).
FILTRATION = ((2, 6, 2), (2, 7, 2), (3, 5, 3), (3, 5, 3), (2, 8, 2), (2, 8, 2), (2, 9, 2))

# oracle: criterion-5 generator (centers in [0,1]^d, radii in [0.1,1]) with
# five 2-D systems (m = 2..6) and two 3-D systems (m = 3, 5) per cycle, the
# 5:2 mix of acceptance criterion 5.  The 3-D sizes are the same in every
# cycle, so each cycle's p90 falls on the same ops.
ORACLE_2D = (2, 3, 4, 5, 6)
ORACLE_3D = (3, 5)

CYCLE = {
    "cli": len(DECIDE) + len(SCALE) + len(FILTRATION),
    "oracle": 2 * (len(ORACLE_2D) + len(ORACLE_3D)),
}
# More ops than a 55-second run completes at the rates measured when the
# benchmark was written (about 8 cli and 6.5 oracle ops per second).
POOL_OPS = {"cli": 20 * CYCLE["cli"], "oracle": 40 * CYCLE["oracle"]}


# ---------------------------------------------------------------------------
# Plain-numpy geometry used by generation and checks
# ---------------------------------------------------------------------------


def pair_ratios(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Matrix of ||c_i - c_j|| / (r_i + r_j)."""
    diff = centers[:, None, :] - centers[None, :, :]
    dist = np.sqrt(np.sum(diff * diff, axis=2))
    return dist / (radii[:, None] + radii[None, :])


def rips(centers: np.ndarray, radii: np.ndarray) -> float:
    if len(radii) < 2:
        return 0.0
    return float(np.max(pair_ratios(centers, radii)))


def touch_point(centers: np.ndarray, radii: np.ndarray):
    """The pair (i, j) attaining nu and the point where it meets at lambda = nu.

    At lambda = nu that pair meets in this single point p, so the system
    has a common point iff p lies in every nu-rescaled disk.  Returns
    (nu, i, j, p, k, margin) where disk k is the one p lies farthest
    outside of and margin = ||p - c_k|| / (nu r_k) - 1; a positive margin
    means mu > nu.
    """
    ratios = pair_ratios(centers, radii)
    i, j = np.unravel_index(int(np.argmax(ratios)), ratios.shape)
    nu = float(ratios[i, j])
    p = centers[i] + radii[i] / (radii[i] + radii[j]) * (centers[j] - centers[i])
    outside = np.sqrt(np.sum((centers - p) ** 2, axis=1)) / (nu * radii)
    k = int(np.argmax(outside))
    return nu, int(i), int(j), p, k, float(outside[k]) - 1.0


def max_ratio(point, centers: np.ndarray, radii: np.ndarray) -> float:
    """max_k ||point - c_k|| / r_k (< = 1 iff the point is in every disk)."""
    diff = centers - np.asarray(point, dtype=float)
    return float(np.max(np.sqrt(np.sum(diff * diff, axis=1)) / radii))


def inside_all(point, centers: np.ndarray, radii: np.ndarray, tol: float = CHECK_TOL) -> bool:
    diff = centers - np.asarray(point, dtype=float)
    dist = np.sqrt(np.sum(diff * diff, axis=1))
    return bool(np.all(dist <= radii + tol * (1.0 + radii)))


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


@dataclass
class Case:
    centers: np.ndarray
    radii: np.ndarray
    expect: dict


def _rng(workload: str, seed: int) -> np.random.Generator:
    # SeedSequence needs non-negative entropy; the modulus keeps any seed.
    return np.random.default_rng([seed % 2**64, zlib.crc32(workload.encode())])


def _uniform(rng, d, m, lo, hi):
    return rng.uniform(0.0, 1.0, (m, d)), rng.uniform(lo, hi, m)


def _bisecting(rng, d, m, lo, hi):
    """Draw until the nu-rescaled system certifiably has no common point."""
    while True:
        centers, radii = _uniform(rng, d, m, lo, hi)
        if touch_point(centers, radii)[-1] > MARGIN:
            return centers, radii


def _decide_case(rng, d, m, kind, witness: bool) -> Case:
    from cechkit import DiskSystem
    from cechkit.oracle import OracleConfig, oracle_minimax

    while True:
        centers, radii = _bisecting(rng, d, m, 0.9, 1.1)
        nu = rips(centers, radii)
        if kind == "disjoint":
            return Case(centers, 0.9 * nu * radii, {"kind": kind})
        if kind == "true":
            lam = 1.01 * jung(d) * nu
            if not witness:
                return Case(centers, lam * radii, {"kind": kind})
            # A point in every disk, for the box checks: the oracle's
            # minimax point has ratio about mu / lam <= 1 / 1.01, so a coarse
            # grid finds one.
            cfg = OracleConfig(initial_grid=16, refinement_rounds=8)
            point = oracle_minimax(DiskSystem.from_arrays(centers, radii), cfg).point
            if max_ratio(point, centers, lam * radii) < 1.0 - MARGIN:
                return Case(centers, lam * radii, {"kind": kind, "witness": [float(x) for x in point]})
            continue
        # Hollow: the nu-pair and the disk its touch point lies farthest
        # outside of form a triple with mu_T > nu.  The oracle bounds mu_T
        # from below; any lambda in (nu, mu_T) makes every pair meet while
        # the triple, hence the system, has no common point.
        nu, i, j, _, k, _ = touch_point(centers, radii)
        triple = [i, j, k]
        result = oracle_minimax(DiskSystem.from_arrays(centers[triple], radii[triple]))
        gap = result.value - result.slack - nu
        lam = nu + 0.5 * gap
        if gap > 0.0 and 0.5 * gap > MARGIN * lam:
            return Case(centers, lam * radii, {"kind": kind})


def generate(workload: str, seed: int, pool_ops: int | None = None):
    """Return (cases, ops) for a workload; the same seed gives the same values.

    Each op is a dict with the case index and, for the cli workload, the
    argument list without the input path.  The pool holds whole cycles.
    """
    if workload not in CYCLE:
        raise ValueError(f"unknown workload {workload!r}")
    rng = _rng(workload, seed)
    cycles = -(-(pool_ops or POOL_OPS[workload]) // CYCLE[workload])
    cases: list[Case] = []
    ops: list[dict] = []

    def add(case: Case, **op) -> None:
        cases.append(case)
        ops.append({"case": len(cases) - 1, **op})

    if workload == "cli":
        for _ in range(cycles):
            for d, m, kind, command, prep in DECIDE:
                argv = [command] if command == "plot" else [command, "--format", "json"]
                if prep:
                    argv.append("--preprocess")
                add(_decide_case(rng, d, m, kind, witness=command == "aabb"), argv=argv)
            for d, m in SCALE:
                centers, radii = _bisecting(rng, d, m, 0.9, 1.1)
                add(Case(centers, radii, {"kind": "bisect"}),
                    argv=["cech-scale", "--format", "json", "--eta", repr(ETA)])
            for d, m, max_dim in FILTRATION:
                centers, radii = _uniform(rng, d, m, 0.9, 1.1)
                add(Case(centers, radii, {"kind": "filtration", "max_dim": max_dim}),
                    argv=["filtration", "--format", "json", "--max-dim", str(max_dim),
                          "--eta", repr(ETA)])
    else:
        for _ in range(cycles):
            for d, m in [(2, m) for m in ORACLE_2D] + [(3, m) for m in ORACLE_3D]:
                centers, radii = _uniform(rng, d, m, 0.1, 1.0)
                add(Case(centers, radii, {"kind": "oracle"}), call="minimax")
                ops.append({"case": len(cases) - 1, "call": "intersects"})
    return cases, ops


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


def to_csv(centers: np.ndarray, radii: np.ndarray) -> str:
    return "".join(
        ",".join(repr(float(v)) for v in (*c, r)) + "\n" for c, r in zip(centers, radii)
    )


def from_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    rows = np.array([[float(v) for v in line.split(",")] for line in text.splitlines() if line])
    return rows[:, :-1], rows[:, -1]


def write_inputs(directory: Path, workload: str, seed: int, cases, ops) -> None:
    """Write one CSV per case and a manifest with the ops and expectations."""
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for k, case in enumerate(cases):
        name = f"case{k:04d}.csv"
        (directory / name).write_text(to_csv(case.centers, case.radii), encoding="utf-8")
        names.append(name)
    manifest = {
        "workload": workload,
        "seed": seed,
        "cases": [{"file": n, "expect": c.expect} for n, c in zip(names, cases)],
        "ops": ops,
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")


def read_inputs(directory: Path):
    """Return (manifest, cases) with the disk arrays read back from the files."""
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    cases = []
    for entry in manifest["cases"]:
        centers, radii = from_csv((directory / entry["file"]).read_text(encoding="utf-8"))
        cases.append(Case(centers, radii, entry["expect"]))
    return manifest, cases


# ---------------------------------------------------------------------------
# Output checks: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------


def _json(stdout: str):
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def check_cli(argv: list[str], case: Case, code: int, stdout: str) -> str | None:
    command = argv[0]
    d = case.centers.shape[1]
    kind = case.expect["kind"]
    truth = kind == "true"
    if command == "check":
        out = _json(stdout)
        if out is None:
            return "check: no JSON output"
        if code != (0 if truth else 1) or out.get("is_cech") is not truth:
            return f"check: decision {out.get('is_cech')} (exit {code}), expected {truth}"
        if truth and not inside_all(out.get("witness"), case.centers, case.radii):
            return "check: witness outside a disk"
        return None
    if command == "aabb":
        out = _json(stdout)
        if out is None:
            return "aabb: no JSON output"
        box = out.get("box")
        if not truth:
            return None if code == 1 and box is None else f"aabb: box {box} (exit {code}) for an empty system"
        if code != 0 or box is None:
            return f"aabb: no box (exit {code}) for an intersecting system"
        box = np.asarray(box, dtype=float)
        w = np.asarray(case.expect["witness"])
        slack = CHECK_TOL * (1.0 + np.abs(w))
        if box.shape != (d, 2) or np.any(w < box[:, 0] - slack) or np.any(w > box[:, 1] + slack):
            return "aabb: box does not contain the witness"
        return None
    if command == "plot":
        svg = stdout.strip()
        if code != 0 or not svg.startswith("<svg") or not svg.endswith("</svg>"):
            return f"plot: not an SVG document (exit {code})"
        if svg.count('stroke="steelblue"') != len(case.radii):
            return "plot: wrong number of disks"
        if ("<rect" in svg) != truth or ('fill="crimson"' in svg) != truth:
            return "plot: box or retained poles disagree with the decision"
        return None
    if command == "cech-scale":
        return check_scale(case, code, _json(stdout))
    if command == "filtration":
        return check_filtration(case, code, _json(stdout))
    return f"unknown command {command!r}"


def check_scale(case: Case, code: int, out) -> str | None:
    if out is None or code != 0:
        return f"cech-scale: exit {code} or no JSON output"
    nu = rips(case.centers, case.radii)
    mu = out["cech_scale"]
    lo, hi = out["bracket"]
    d = case.centers.shape[1]
    if not math.isclose(out["rips_scale"], nu, rel_tol=1e-12):
        return f"cech-scale: rips {out['rips_scale']} != {nu}"
    if not nu <= lo <= hi == mu <= jung(d) * nu + ETA:
        return f"cech-scale: bracket [{lo}, {hi}] / scale {mu} outside [nu, jung*nu + eta]"
    if hi - lo > ETA * (1.0 + 1e-9):
        return f"cech-scale: bracket width {hi - lo} > eta"
    if not mu > nu or out["iterations"] < 1:
        return "cech-scale: no bisection on a system certified to have mu > nu"
    if out["witness"] is None or not inside_all(out["witness"], case.centers, mu * case.radii):
        return "cech-scale: witness outside a disk rescaled by the reported scale"
    return None


def check_filtration(case: Case, code: int, out) -> str | None:
    if out is None or code != 0:
        return f"filtration: exit {code} or no JSON output"
    m, d = case.centers.shape
    max_dim = case.expect["max_dim"]
    simplices = out["simplices"]
    scales = {tuple(s["vertices"]): s["scale"] for s in simplices}
    expected = sum(math.comb(m, k) for k in range(1, max_dim + 2))
    if len(simplices) != expected or len(scales) != expected:
        return f"filtration: {len(simplices)} simplices, expected {expected}"
    keys = [(s["scale"], len(s["vertices"]), tuple(s["vertices"])) for s in simplices]
    if keys != sorted(keys):
        return "filtration: simplices not sorted by (scale, dimension, vertices)"
    ratios = pair_ratios(case.centers, case.radii)
    for k in range(1, max_dim + 2):
        for subset in combinations(range(m), k):
            scale = scales.get(subset)
            if scale is None:
                return f"filtration: missing simplex {subset}"
            if k == 1:
                if scale != 0.0:
                    return f"filtration: vertex {subset} at scale {scale}"
                continue
            if k == 2:
                if not math.isclose(scale, ratios[subset], rel_tol=1e-12):
                    return f"filtration: pair {subset} at {scale}, rips ratio {ratios[subset]}"
                continue
            facets = max(scales[subset[:p] + subset[p + 1:]] for p in range(k))
            if scale < facets - ETA:
                return f"filtration: {subset} at {scale} below its facets ({facets})"
            nu = max(ratios[i, j] for i, j in combinations(subset, 2))
            if scale > jung(d) * nu + ETA:
                return f"filtration: {subset} at {scale} above jung * nu"
    return None


def check_oracle(call: str, case: Case, result, minimax_state: dict, index: int) -> str | None:
    """Check an oracle result; minimax_state maps case index -> (value, slack)."""
    d = case.centers.shape[1]
    nu = rips(case.centers, case.radii)
    if call == "minimax":
        value, point, slack = float(result.value), result.point, float(result.slack)
        if not (math.isfinite(value) and math.isfinite(slack) and slack >= 0.0):
            return "oracle_minimax: non-finite value or slack"
        if not nu - slack - 1e-12 <= value <= jung(d) * nu + slack + 1e-12:
            return f"oracle_minimax: value {value} outside [nu - slack, jung*nu + slack]"
        if not math.isclose(max_ratio(point, case.centers, case.radii), value, rel_tol=1e-9):
            return "oracle_minimax: value is not the objective at the returned point"
        minimax_state[index] = (value, slack)
        return None
    if not isinstance(result, (bool, np.bool_)):
        return f"oracle_intersects: returned {type(result).__name__}"
    if jung(d) * nu <= 1.0 and not result:
        return "oracle_intersects: False although jung * nu <= 1"
    if index in minimax_state:
        value, slack = minimax_state[index]
        if bool(result) != (value <= 1.0 + slack):
            return "oracle_intersects: disagrees with oracle_minimax on the same system"
        if nu > 1.0 + slack and result:
            return "oracle_intersects: True although a pair is disjoint"
    return None
