#!/usr/bin/env python3
"""cech-kit benchmark: one closed-loop client driving the public entry points.

Usage (from the repository root):

    python3 perfbench/run.py --workload cli --seed 1 --seconds 55 --trace 0

Each op starts only after the previous one returned.  The cli workload calls
``cechkit.cli.main`` in-process on seeded disk files; the oracle workload
calls ``cechkit.oracle``.  Every output is checked against an answer
certified when the input was generated (see ``workloads.py``).

With ``--trace 0`` the run measures the end-to-end metrics for ``--seconds``
seconds.  With ``--trace 1`` it alternates untraced and traced passes over
one cycle of the workload's ops and reports per-layer metrics from the
traced passes (see ``tracer.py``) and the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os

# One process, no worker threads: pin the BLAS/OpenMP pools before numpy is
# imported here or in the setup processes, which inherit the environment.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Set-up runs in fresh processes this many times; setup_s is the median.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60

# (metric, unit, span name or counter, span field or None for a counter)
LAYER_METRICS = (
    ("cli.main.busy_s", "s", "cli.main", "busy_s"),
    ("cli.self_s", "s", "cli.main", "self_s"),
    ("cli.parse.calls", "count", "cli.parse", "calls"),
    ("cli.parse.busy_s", "s", "cli.parse", "busy_s"),
    ("cli.render_svg.busy_s", "s", "cli.render_svg", "busy_s"),
    ("geometry.preprocess.busy_s", "s", "geometry.preprocess", "busy_s"),
    ("geometry.disksystem.built", "count", "geometry.disksystem", "calls"),
    ("geometry.disksystem.busy_s", "s", "geometry.disksystem", "busy_s"),
    ("geometry.subset_boundary.calls", "count", "geometry.subset_boundary", "calls"),
    ("geometry.subset_boundary.busy_s", "s", "geometry.subset_boundary", "busy_s"),
    ("geometry.subsets.empty", "count", "geometry.subsets.empty", None),
    ("geometry.subsets.point", "count", "geometry.subsets.point", None),
    ("geometry.subsets.sphere", "count", "geometry.subsets.sphere", None),
    ("geometry.subsets.jittered", "count", "geometry.subsets.jittered", None),
    ("geometry.pole_directions.calls", "count", "geometry.pole_directions", "calls"),
    ("geometry.pole_directions.busy_s", "s", "geometry.pole_directions", "busy_s"),
    ("geometry.candidate_poles.self_s", "s", "geometry.candidate_poles", "self_s"),
    ("geometry.contains.calls", "count", "geometry.contains", "calls"),
    ("geometry.contains.busy_s", "s", "geometry.contains", "busy_s"),
    ("geometry.poles.tested", "count", "geometry.poles.tested", None),
    ("geometry.poles.kept", "count", "geometry.poles.kept", None),
    ("cech.rips_scale.busy_s", "s", "cech.rips_scale", "busy_s"),
    ("cech.is_cech_system.calls", "count", "cech.is_cech_system", "calls"),
    ("cech.is_cech_system.busy_s", "s", "cech.is_cech_system", "busy_s"),
    ("cech.cech_scale.calls", "count", "cech.cech_scale", "calls"),
    ("cech.cech_scale.busy_s", "s", "cech.cech_scale", "busy_s"),
    ("cech.bisection_steps", "count", "cech.bisection_steps", None),
    ("aabb.aabb_minimal.calls", "count", "aabb.aabb_minimal", "calls"),
    ("aabb.aabb_minimal.busy_s", "s", "aabb.aabb_minimal", "busy_s"),
    ("filtration.build.busy_s", "s", "filtration.build", "busy_s"),
    ("filtration.self_s", "s", "filtration.build", "self_s"),
    ("filtration.subsets", "count", "filtration.subsets", None),
    ("oracle.minimax.calls", "count", "oracle.minimax", "calls"),
    ("oracle.minimax.busy_s", "s", "oracle.minimax", "busy_s"),
    ("oracle.intersects.busy_s", "s", "oracle.intersects", "busy_s"),
    ("oracle.grid_points", "count", "oracle.grid_points", None),
    ("oracle.rounds", "count", "oracle.rounds", None),
)


def import_cechkit():
    """Import cechkit from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import cechkit
        import cechkit.cli
        import cechkit.oracle
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import cechkit from {SRC}: {exc}")
    if not Path(cechkit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: cechkit imported from {cechkit.__file__}, not from {SRC}")
    return cechkit


class Runner:
    """Runs the ops of one workload in this process and checks their outputs."""

    def __init__(self, directory: Path):
        cechkit = import_cechkit()
        self.cli = cechkit.cli
        self.oracle = cechkit.oracle
        self.manifest, self.cases = workloads.read_inputs(directory)
        self.ops = self.manifest["ops"]
        self.paths = [str(directory / c["file"]) for c in self.manifest["cases"]]
        self.systems = {
            op["case"]: cechkit.DiskSystem.from_arrays(self.cases[op["case"]].centers, self.cases[op["case"]].radii)
            for op in self.ops
            if "call" in op
        }
        self.minimax_state: dict[int, tuple[float, float]] = {}

    def execute(self, op):
        """Run one op; module attributes are looked up per call so a tracer sees them."""
        if "argv" in op:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main([*op["argv"], self.paths[op["case"]]])
            return code, out.getvalue()
        if op["call"] == "minimax":
            return self.oracle.oracle_minimax(self.systems[op["case"]])
        return self.oracle.oracle_intersects(self.systems[op["case"]])

    def check(self, op, outcome) -> str | None:
        if isinstance(outcome, Exception):
            return f"raised {type(outcome).__name__}: {outcome}"
        case = self.cases[op["case"]]
        if "argv" in op:
            code, stdout = outcome
            return workloads.check_cli(op["argv"], case, code, stdout)
        return workloads.check_oracle(op["call"], case, outcome, self.minimax_state, op["case"])

    def warm_up(self) -> None:
        """Run the first op of each command once, untimed and unchecked."""
        seen = set()
        for op in self.ops:
            key = op["argv"][0] if "argv" in op else op["call"]
            if key not in seen:
                seen.add(key)
                self.execute(op)

    def attempt(self, op):
        """Run one op; an exception is its outcome and never stops the run."""
        try:
            return self.execute(op)
        except Exception as exc:
            return exc

    def run(self, ops, deadline: float | None = None):
        """Run ops in order (cycling until the deadline if one is given).

        Returns per-op latencies in seconds and the failure reasons.  Each
        output is checked right after its op, outside the op's timing, so no
        result outlives its check: an oracle result's point is a view of the
        oracle's whole grid, and keeping them all would put the benchmark's
        memory into peak_rss_mb.
        """
        latencies, failures = [], []
        now = time.perf_counter()
        i = 0
        while (i < len(ops)) if deadline is None else (i == 0 or now < deadline):
            op = ops[i % len(ops)]
            t0 = time.perf_counter()
            outcome = self.attempt(op)
            latencies.append(time.perf_counter() - t0)
            reason = self.check(op, outcome)
            if reason is not None:
                failures.append(reason)
            now = time.perf_counter()
            i += 1
        return latencies, failures


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def setup_child(workload: str, seed: int, directory: Path) -> None:
    """Body of one set-up process: import, generate and certify, write, warm up."""
    import_cechkit()
    cases, ops = workloads.generate(workload, seed)
    workloads.write_inputs(directory, workload, seed, cases, ops)
    Runner(directory).warm_up()


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_setups(workload: str, seed: int, base: Path) -> tuple[list[float], Path]:
    """Set up SETUP_REPEATS times in fresh processes; return their wall times."""
    times, digests = [], set()
    for k in range(SETUP_REPEATS):
        directory = base / f"setup{k}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(directory)]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up process exited with {proc.returncode}")
        digests.add(_digest(directory))
    if len(digests) != 1:
        raise SystemExit("perfbench: the same seed produced different inputs")
    return times, base / "setup0"


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def cycle_metrics(latencies: list[float], cycle: int) -> dict:
    """ops_per_s and per-op latency quantiles from the run's complete cycles.

    The run starts at the first op of a cycle, so every complete cycle holds
    the workload's whole mix, and op k of a cycle is always the same
    template.  Throughput is ops over their summed latency in the complete
    cycles, and p90 is taken over those ops.  The median is taken over the
    cycle's templates, each at its mean latency over the run.  The shared
    machine this was written on switches between a fast and a slow state
    every few seconds; every template mean sees the same share of slow
    time, so the templates keep their order and their median moves in
    proportion to that share.  A median over single ops moves further,
    because slowed ops of the cost group below cross into the middle one.
    A run too short for one complete cycle treats each op as its own
    template.
    """
    full = len(latencies) // cycle
    timed = latencies[: full * cycle] or latencies
    means = [statistics.fmean(timed[k::cycle]) for k in range(min(cycle, len(timed)))]
    p90 = statistics.quantiles(timed, n=10, method="inclusive")[8] if len(timed) > 1 else timed[0]
    return {
        "ops_per_s": (len(timed) / math.fsum(timed), "1/s"),
        "latency_p50_ms": (1000.0 * statistics.median(means), "ms"),
        "latency_p90_ms": (1000.0 * p90, "ms"),
    }


def end_to_end(runner: Runner, workload: str, seconds: float, setup_times: list[float]):
    gc.collect()
    latencies, failures = runner.run(runner.ops, deadline=time.perf_counter() + seconds)
    metrics = {
        **cycle_metrics(latencies, workloads.CYCLE[workload]),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return len(latencies), failures, metrics


def _pass_metrics(tracer: Tracer, first_span: int, before: dict) -> dict:
    """Per-layer values of one traced pass: spans from first_span, counter deltas."""
    totals = tracer.span_totals(first_span)
    values = {}
    for name, _, source, field in LAYER_METRICS:
        if field is None:
            values[name] = float(tracer.counters.get(source, 0) - before.get(source, 0))
        else:
            values[name] = totals.get(source, {}).get(field, 0.0)
    tested = values["geometry.poles.tested"]
    values["geometry.poles.kept_ratio"] = values["geometry.poles.kept"] / tested if tested else 0.0
    return values


def traced(runner: Runner, workload: str, seconds: float):
    """Alternate untraced and traced passes over one op cycle until time is up."""
    ops = runner.ops[: workloads.CYCLE[workload]]
    tracer = Tracer()
    passes, untraced_s, traced_s, attempted, failures = [], [], [], 0, []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        gc.collect()
        lat, fails = runner.run(ops)
        untraced_s.append(math.fsum(lat))
        failures += fails
        attempted += len(lat)

        missing = tracer.install()
        try:
            first_span, before = len(tracer.start), dict(tracer.counters)
            gc.collect()
            busy = 0.0
            for k, op in enumerate(ops):
                tracer.op_id = len(passes) * len(ops) + k
                t0 = time.perf_counter()
                with tracer.span("bench.op"):
                    outcome = runner.attempt(op)
                busy += time.perf_counter() - t0
                reason = runner.check(op, outcome)
                if reason is not None:
                    failures.append(reason)
            traced_s.append(busy)
            passes.append(_pass_metrics(tracer, first_span, before))
        finally:
            tracer.restore()
        attempted += len(ops)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload}.npz")

    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    units["geometry.poles.kept_ratio"] = "ratio"
    metrics = {name: (statistics.median(p[name] for p in passes), units[name]) for name in passes[0]}
    plain = len(ops) / statistics.median(untraced_s)
    with_trace = len(ops) / statistics.median(traced_s)
    metrics["trace.ops_per_s_untraced"] = (plain, "1/s")
    metrics["trace.ops_per_s_traced"] = (with_trace, "1/s")
    metrics["trace.overhead_pct"] = (100.0 * (1.0 - with_trace / plain), "%")
    metrics["trace.missing_names"] = (float(len(missing)), "count")
    for label in missing:
        print(f"perfbench: trace target missing: {label}", file=sys.stderr)
    return attempted, failures, metrics


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only is not None:
        setup_child(args.workload, args.seed, args.setup_only)
        return 0
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    import_cechkit()
    base = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        setup_times, directory = run_setups(args.workload, args.seed, base)
        runner = Runner(directory)
        runner.warm_up()
        if args.trace:
            attempted, failures, metrics = traced(runner, args.workload, args.seconds)
        else:
            attempted, failures, metrics = end_to_end(runner, args.workload, args.seconds, setup_times)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    for reason in failures[:10]:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)
    print("perfbench env " + json.dumps(environment(), sort_keys=True))
    print("perfbench summary " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_runs_s": setup_times,
        "pool_ops": len(runner.ops),
        "attempted": attempted,
        "failed_ratio": len(failures) / attempted,
    }))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
