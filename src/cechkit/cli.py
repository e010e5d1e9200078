"""Command-line front end: parse disk systems, run decisions, emit results.

File formats
------------
CSV: one disk per line, ``c_1,...,c_d,r``; dimension inferred from the
first line.  JSON mirror: ``{"dimension": d, "disks": [[c_1,...,c_d,r]]}``.
Filtration text output: one simplex per line, ``scale v_1 ... v_k``.

Exit codes: 0 success/affirmative, 1 negative decision, 2 usage error,
3 degenerate-configuration warning escalated under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .aabb import aabb_minimal, pole_envelope
from .cech import cech_scale, is_cech_system, pole_walk, rips_scale
from .filtration import build_filtration
from .geometry import DEFAULT_TOL, DiskSystem, GeometryError, check_tol, preprocess

SCHEMA = "cech-kit/1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_DEGENERATE = 3


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def parse_disk_system(text: str, format: str = "csv") -> DiskSystem:
    """Parse a disk system from CSV or JSON text."""
    if format == "csv":
        return _parse_csv(text)
    if format == "json":
        return _parse_json(text)
    raise ParseError(f"unknown format {format!r}")


def _parse_csv(text: str) -> DiskSystem:
    rows = []
    dim = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [float(v) for v in line.split(",")]
        except ValueError as exc:
            raise ParseError(f"line {lineno}: malformed number ({exc})") from None
        if len(values) < 2:
            raise ParseError(f"line {lineno}: need at least one coordinate and a radius")
        if dim is None:
            dim = len(values) - 1
        elif len(values) - 1 != dim:
            raise ParseError(
                f"line {lineno}: expected {dim} coordinates + radius, got {len(values) - 1}"
            )
        if values[-1] <= 0:
            raise ParseError(f"line {lineno}: non-positive radius {values[-1]}")
        rows.append(values)
    if not rows:
        raise ParseError("no disks in input")
    rows = np.array(rows)
    return DiskSystem.from_arrays(rows[:, :-1], rows[:, -1])


def _parse_json(text: str) -> DiskSystem:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
    try:
        dim = data["dimension"]
        rows = data["disks"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"JSON must carry 'dimension' and 'disks': {exc}") from None
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError(f"JSON must carry 'dimension' and 'disks': 'dimension' must be an integer, got {dim!r}")
    if dim < 1:
        raise ParseError(f"dimension must be positive, got {dim}")
    if not isinstance(rows, list):
        raise ParseError("'disks' must be a list of [c_1, ..., c_d, r] rows")
    for i, row in enumerate(rows, start=1):
        if not isinstance(row, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in row
        ):
            raise ParseError(f"disk {i}: expected a list of numbers, got {row!r}")
        if len(row) != dim + 1:
            raise ParseError(f"disk {i}: expected {dim} coordinates + radius")
        if row[-1] <= 0:
            raise ParseError(f"disk {i}: non-positive radius {row[-1]}")
    if not rows:
        raise ParseError("no disks in input")
    try:
        values = np.array(rows, dtype=float)
    except OverflowError:
        raise ParseError("a coordinate or radius is too large for a float") from None
    return DiskSystem.from_arrays(values[:, :-1], values[:, -1])


def serialize_disk_system(M: DiskSystem, format: str = "csv") -> str:
    rows = np.column_stack([M.centers, M.radii]).tolist()
    if format == "csv":
        return "".join(",".join(map(repr, row)) + "\n" for row in rows)
    if format == "json":
        return json.dumps({"dimension": M.dimension, "disks": rows})
    raise ParseError(f"unknown format {format!r}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _run(compute, args) -> int:
    """Parse the input file, apply ``--preprocess``, and print and exit with
    ``compute(args, M, label) -> (payload, text, negative, degenerate)``;
    ``label[i]`` is the input index of disk i of M, and a None payload means
    that compute wrote its output itself."""
    with open(args.input, "r", encoding="utf-8") as fh:
        source = fh.read()
    fmt = args.input_format
    if fmt == "auto":
        fmt = "json" if args.input.lower().endswith(".json") else "csv"
    M = parse_disk_system(source, fmt)
    label = range(len(M))
    if args.preprocess:
        M, label = preprocess(M, args.tol)
    payload, text, negative, degenerate = compute(args, M, label)
    if payload is not None:
        print(json.dumps({"schema": SCHEMA, "command": args.command, **payload}, allow_nan=False)
              if args.format == "json" else text)
    if degenerate:
        print("warning: degenerate configuration: skipped a disk subset whose centers are nearly affinely"
              " dependent, beyond rounding (or, for a box, a bound with no pole of its own)", file=sys.stderr)
        if args.strict:
            return EXIT_DEGENERATE
    return EXIT_NEGATIVE if negative else EXIT_OK


def _fields(result) -> dict:
    """The fields of a result dataclass, in order, with arrays as lists."""
    return {key: value.tolist() if isinstance(value, np.ndarray) else value for key, value in vars(result).items()}


def _check(args, M, label):
    decision = is_cech_system(M, args.tol)
    subset = [label[i] for i in decision.generating_subset or ()] or None
    text = "TRUE witness=(" + ",".join(f"{x:.9g}" for x in decision.witness) + ")" if decision.is_cech else "FALSE"
    return {**_fields(decision), "generating_subset": subset}, text, not decision.is_cech, decision.degeneracy_warning


def _rips_scale(args, M, label):
    nu = rips_scale(M)
    return {"rips_scale": nu}, f"{nu:.12g}", False, False


def _cech_scale(args, M, label):
    report = cech_scale(M, args.eta, args.tol)
    lo, hi = report.bracket
    text = (
        f"rips={report.rips_scale:.12g} cech={report.cech_scale:.12g} "
        f"bracket=[{lo:.12g},{hi:.12g}] iterations={report.iterations}"
    )
    return _fields(report), text, False, report.degeneracy_warning


def _aabb(args, M, label):
    box = aabb_minimal(M, args.tol)
    if box is None:
        return {"box": None}, "NO-INTERSECTION", True, False
    payload = {"box": box.intervals.tolist(), "degeneracy_warning": box.degeneracy_warning}
    text = "x".join(f"[{a:.9g},{b:.9g}]" for a, b in box.intervals)
    return payload, text, False, box.degeneracy_warning


def _filtration(args, M, label):
    filtration = build_filtration(M, min(args.max_dim, len(M) - 1))
    simplices = [{"scale": s.scale, "vertices": [label[v] for v in s.vertices]} for s in filtration.simplices]
    text = None
    if args.format == "text":  # formatted only when printed: it costs more than the JSON
        text = "\n".join(f"{s['scale']:.12g} " + " ".join(map(str, s["vertices"])) for s in simplices)
    return {"max_dimension": filtration.max_dimension, "simplices": simplices}, text, False, False


def _plot(args, M, label):
    if M.dimension != 2:
        raise ValueError("plot requires a 2-dimensional disk system")
    svg = render_svg(M, args.tol)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        print(svg)
    return None, None, False, False


def render_svg(M: DiskSystem, tol: float = DEFAULT_TOL) -> str:
    """SVG 1.1 picture of a 2D system: disks, retained poles, AABB."""
    size = 640  # width and height, in pixels
    lo = np.min(M.centers - M.radii[:, None], axis=0)
    hi = np.max(M.centers + M.radii[:, None], axis=0)
    span = float(np.max(hi - lo))
    pad = 0.05 * span
    lo, span = lo - pad, span + 2 * pad
    scale = size / span

    def sx(x):
        return (x - lo[0]) * scale

    def sy(y):  # flip y for screen coordinates
        return size - (y - lo[1]) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size}" height="{size}" viewBox="0 0 {size} {size}">'
    ]
    for (x, y), r in zip(M.centers, M.radii):
        parts.append(
            f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" '
            f'r="{r * scale:.2f}" fill="steelblue" fill-opacity="0.15" '
            f'stroke="steelblue" stroke-width="1.5"/>'
        )
    blocks = list(pole_walk(M, tol))
    box = pole_envelope(blocks, 2)
    if box is not None:
        w = (box.upper[0] - box.lower[0]) * scale
        h = (box.upper[1] - box.lower[1]) * scale
        parts.append(
            f'<rect x="{sx(box.lower[0]):.2f}" y="{sy(box.upper[1]):.2f}" '
            f'width="{max(w, 1.0):.2f}" height="{max(h, 1.0):.2f}" '
            f'fill="none" stroke="crimson" stroke-width="1.5" stroke-dasharray="6 3"/>'
        )
    for _, points, inside, _ in blocks:
        for x, y in points.reshape(-1, 2)[inside]:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="crimson"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _finite(text: str) -> float:
    """argparse type of a finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _tol(text: str) -> float:
    """argparse type of a tolerance that :func:`check_tol` accepts."""
    try:
        check_tol(value := float(text))
    except GeometryError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cech-kit",
        description="Intersection tests, Cech scales, AABBs and filtrations of disk systems",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="disk system file (CSV or JSON)")
    common.add_argument(
        "--tol", type=_tol, default=DEFAULT_TOL,
        help="relative geometric tolerance: a point may lie tol * r outside a disk of radius r (0 <= tol <= 1)",
    )
    common.add_argument("--format", choices=["text", "json"], default="text")
    common.add_argument(
        "--input-format", choices=["auto", "csv", "json"], default="auto"
    )
    common.add_argument(
        "--preprocess", action="store_true",
        help="drop disks that entirely contain another disk; dedup identical",
    )
    common.add_argument(
        "--strict", action="store_true",
        help="exit 3 on a degeneracy warning: the walk behind a FALSE answer or a box skipped a disk subset whose "
        "centers are nearly affinely dependent, beyond rounding (or a box bound had no pole of its own)",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("check", parents=[common], help="decide common intersection")
    p.set_defaults(func=functools.partial(_run, _check))
    p = sub.add_parser("rips-scale", parents=[common], help="Vietoris-Rips scale")
    p.set_defaults(func=functools.partial(_run, _rips_scale))
    p = sub.add_parser("cech-scale", parents=[common], help="Cech scale by bisection")
    p.add_argument("--eta", type=_finite, default=1e-6, help="bisection precision (finite, > 0)")
    p.set_defaults(func=functools.partial(_run, _cech_scale))
    p = sub.add_parser("aabb", parents=[common], help="minimal AABB of the intersection")
    p.set_defaults(func=functools.partial(_run, _aabb))
    p = sub.add_parser("filtration", parents=[common], help="filtered Cech complex")
    p.add_argument("--max-dim", type=int, default=2)
    p.add_argument("--eta", type=_finite, default=1e-6, help="accepted (finite, > 0); scales are exact")
    p.set_defaults(func=functools.partial(_run, _filtration))
    p = sub.add_parser("plot", parents=[common], help="SVG plot (2D only)")
    p.add_argument("--output", help="write SVG here instead of stdout")
    p.set_defaults(func=functools.partial(_run, _plot))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process: parsing leaves no
    state in it, and building it costs more than many ops."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        return args.func(args)
    except (ParseError, GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
