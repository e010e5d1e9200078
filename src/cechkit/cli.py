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
from .geometry import DEFAULT_TOL, DiskSystem, GeometryError, preprocess

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


def _vec(v) -> list[float]:
    return [float(x) for x in v]


def _fmt_vec(v) -> str:
    return "(" + ",".join(f"{float(x):.9g}" for x in v) + ")"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _load(args) -> DiskSystem:
    with open(args.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    fmt = args.input_format
    if fmt == "auto":
        fmt = "json" if args.input.endswith(".json") else "csv"
    system = parse_disk_system(text, fmt)
    if args.preprocess:
        system, _ = preprocess(system, args.tol)
    return system


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, **payload}))
    else:
        print(text)


def _finish(args, negative: bool, degenerate: bool) -> int:
    if degenerate:
        print(
            "warning: degenerate configuration: skipped disk subsets with affinely dependent centers"
            " (or, for a box, a bound with no pole of its own)",
            file=sys.stderr,
        )
        if args.strict:
            return EXIT_DEGENERATE
    return EXIT_NEGATIVE if negative else EXIT_OK


def _cmd_check(args) -> int:
    M = _load(args)
    decision = is_cech_system(M, args.tol)
    if decision.is_cech:
        text = f"TRUE witness={_fmt_vec(decision.witness)}"
    else:
        text = "FALSE"
    payload = {
        "command": "check",
        "is_cech": decision.is_cech,
        "witness": _vec(decision.witness) if decision.witness is not None else None,
        "generating_subset": list(decision.generating_subset or []) or None,
        "degeneracy_warning": decision.degeneracy_warning,
    }
    _emit(args, payload, text)
    return _finish(args, negative=not decision.is_cech, degenerate=decision.degeneracy_warning)


def _cmd_rips_scale(args) -> int:
    M = _load(args)
    nu = rips_scale(M)
    _emit(args, {"command": "rips-scale", "rips_scale": nu}, f"{nu:.12g}")
    return EXIT_OK


def _cmd_cech_scale(args) -> int:
    M = _load(args)
    report = cech_scale(M, args.eta, args.tol)
    text = (
        f"rips={report.rips_scale:.12g} cech={report.cech_scale:.12g} "
        f"bracket=[{report.bracket[0]:.12g},{report.bracket[1]:.12g}] "
        f"iterations={report.iterations}"
    )
    payload = {
        "command": "cech-scale",
        "rips_scale": report.rips_scale,
        "cech_scale": report.cech_scale,
        "eta": report.eta,
        "bracket": [report.bracket[0], report.bracket[1]],
        "iterations": report.iterations,
        "witness": _vec(report.witness) if report.witness is not None else None,
        "degeneracy_warning": report.degeneracy_warning,
    }
    _emit(args, payload, text)
    return _finish(args, negative=False, degenerate=report.degeneracy_warning)


def _cmd_aabb(args) -> int:
    M = _load(args)
    box = aabb_minimal(M, args.tol)
    if box is None:
        _emit(args, {"command": "aabb", "box": None}, "NO-INTERSECTION")
        return EXIT_NEGATIVE
    payload = {"command": "aabb", "box": box.intervals.tolist(), "degeneracy_warning": box.degeneracy_warning}
    _emit(args, payload, "x".join(f"[{a:.9g},{b:.9g}]" for a, b in box.intervals))
    return _finish(args, negative=False, degenerate=box.degeneracy_warning)


def _cmd_filtration(args) -> int:
    M = _load(args)
    max_dim = min(args.max_dim, len(M) - 1)
    filtration = build_filtration(M, max_dim, args.eta, args.tol)
    if args.format == "json":
        payload = {
            "command": "filtration",
            "max_dimension": filtration.max_dimension,
            "simplices": [
                {"scale": s.scale, "vertices": list(s.vertices)}
                for s in filtration.simplices
            ],
        }
        print(json.dumps({"schema": SCHEMA, **payload}))
    else:
        for s in filtration.simplices:
            print(f"{s.scale:.12g} " + " ".join(str(v) for v in s.vertices))
    return EXIT_OK


def _cmd_plot(args) -> int:
    M = _load(args)
    if M.dimension != 2:
        print("error: plot requires a 2-dimensional disk system", file=sys.stderr)
        return EXIT_USAGE
    svg = render_svg(M, args.tol)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    else:
        print(svg)
    return EXIT_OK


def render_svg(M: DiskSystem, tol: float = DEFAULT_TOL, size: int = 640) -> str:
    """SVG 1.1 picture of a 2D system: disks, retained poles, AABB."""
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
    for _, _, points, inside, _ in blocks:
        for x, y in points.reshape(-1, 2)[inside]:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="crimson"/>')
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _precision(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cech-kit",
        description="Intersection tests, Cech scales, AABBs and filtrations of disk systems",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="disk system file (CSV or JSON)")
    common.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="geometric tolerance (finite, >= 0)")
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
        help="exit 3 on a degeneracy warning: the walk skipped a disk subset with affinely dependent "
        "centers before its answer (or, for aabb, a box bound had no pole of its own)",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("check", parents=[common], help="decide common intersection")
    p.set_defaults(func=_cmd_check)
    p = sub.add_parser("rips-scale", parents=[common], help="Vietoris-Rips scale")
    p.set_defaults(func=_cmd_rips_scale)
    p = sub.add_parser("cech-scale", parents=[common], help="Cech scale by bisection")
    p.add_argument("--eta", type=_precision, default=1e-6, help="bisection precision (finite, > 0)")
    p.set_defaults(func=_cmd_cech_scale)
    p = sub.add_parser("aabb", parents=[common], help="minimal AABB of the intersection")
    p.set_defaults(func=_cmd_aabb)
    p = sub.add_parser("filtration", parents=[common], help="filtered Cech complex")
    p.add_argument("--max-dim", type=int, default=2)
    p.add_argument("--eta", type=_precision, default=1e-6, help="accepted (finite, > 0); scales are exact")
    p.set_defaults(func=_cmd_filtration)
    p = sub.add_parser("plot", parents=[common], help="SVG plot (2D only)")
    p.add_argument("--output", help="write SVG here instead of stdout")
    p.set_defaults(func=_cmd_plot)
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
