"""Tests of the benchmark itself, separate from the package's test suite.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import CECHKIT_TARGETS, Tracer  # noqa: E402


def _write(tmp_path: Path, workload: str, seed: int) -> Path:
    directory = tmp_path / f"{workload}-{seed}"
    cases, ops = workloads.generate(workload, seed, pool_ops=1)
    workloads.write_inputs(directory, workload, seed, cases, ops)
    return directory


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = _write(tmp_path / "a", workload, 7)
    second = _write(tmp_path / "b", workload, 7)
    other = _write(tmp_path / "c", workload, 8)
    assert bench._digest(first) == bench._digest(second)
    assert bench._digest(first) != bench._digest(other)


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    return bench.Runner(_write(tmp_path_factory.mktemp("cli"), "cli", 3))


def _first(runner, command, kind):
    for op in runner.ops:
        if op["argv"][0] == command and runner.cases[op["case"]].expect["kind"] == kind:
            return op
    raise LookupError((command, kind))


def test_checker_rejects_witness_outside_a_disk(cli):
    op = _first(cli, "check", "true")
    code, stdout = cli.execute(op)
    assert cli.check(op, (code, stdout)) is None
    out = json.loads(stdout)
    case = cli.cases[op["case"]]
    out["witness"][0] += 2.0 * float(case.radii.max()) + 1.0
    assert "witness" in cli.check(op, (code, json.dumps(out)))


def test_checker_rejects_flipped_decisions(cli):
    op = _first(cli, "check", "true")
    code, stdout = cli.execute(op)
    out = json.loads(stdout)
    out.update(is_cech=False, witness=None)
    assert "decision" in cli.check(op, (1, json.dumps(out)))

    op = _first(cli, "check", "hollow")
    code, stdout = cli.execute(op)
    assert cli.check(op, (code, stdout)) is None
    out = json.loads(stdout)
    out.update(is_cech=True, witness=[0.0, 0.0])
    assert "decision" in cli.check(op, (0, json.dumps(out)))

    op = _first(cli, "aabb", "true")
    code, stdout = cli.execute(op)
    assert cli.check(op, (code, stdout)) is None
    out = json.loads(stdout)
    out["box"] = [[b[1] + 1.0, b[1] + 2.0] for b in out["box"]]
    assert "witness" in cli.check(op, (code, json.dumps(out)))


def test_checker_rejects_bracket_wider_than_eta(cli):
    op = _first(cli, "cech-scale", "bisect")
    code, stdout = cli.execute(op)
    assert cli.check(op, (code, stdout)) is None
    out = json.loads(stdout)
    out["bracket"][0] = out["bracket"][1] - 2.0 * workloads.ETA
    assert "bracket" in cli.check(op, (code, json.dumps(out)))


def _originals():
    found = {}
    for module_name, path, *_ in CECHKIT_TARGETS:
        owner = sys.modules[module_name]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        found[(module_name, path)] = (owner, attr, getattr(owner, attr), attr in vars(owner))
    return found


def _sample_ops(runner):
    picked = {}
    for op in runner.ops:
        picked.setdefault((op["argv"][0], runner.cases[op["case"]].expect["kind"]), op)
    return list(picked.values())


def test_tracer_restores_every_name_and_adds_no_failures(cli, tmp_path):
    oracle = bench.Runner(_write(tmp_path, "oracle", 3))
    before = _originals()
    tracer = Tracer()
    assert tracer.install() == []
    try:
        for owner, attr, original, _ in before.values():
            assert getattr(owner, attr) is not original
        failures = []
        for runner, ops in ((cli, _sample_ops(cli)), (oracle, oracle.ops[:2])):
            for op in ops:
                with tracer.span("bench.op"):
                    failures += runner.run([op])[1]
    finally:
        tracer.restore()
    assert failures == []
    for (owner, attr, original, own) in before.values():
        assert getattr(owner, attr) is original
        assert (attr in vars(owner)) == own
    totals = tracer.span_totals()
    for name in ("cli.main", "geometry.subset_boundary", "cech.is_cech_system", "aabb.aabb_minimal",
                 "cli.render_svg", "cech.cech_scale", "filtration.build", "oracle.minimax"):
        assert totals[name]["calls"] > 0, name
        assert 0.0 <= totals[name]["self_s"] <= totals[name]["busy_s"] + 1e-12
    assert tracer.counters["cech.bisection_steps"] > 0
    assert tracer.counters["oracle.grid_points"] > 0


def test_tracer_reports_missing_names_instead_of_raising():
    tracer = Tracer()
    missing = tracer.install((
        ("cechkit.geometry", "no_such_function", "x", "call", None, None),
        ("cechkit.no_such_module", "f", "y", "call", None, None),
    ))
    tracer.restore()
    assert missing == ["cechkit.geometry.no_such_function", "cechkit.no_such_module.f"]


def test_traced_counts_repeat_exactly(cli):
    ops = [_first(cli, "cech-scale", "bisect"), _first(cli, "filtration", "filtration")]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            cli.run(ops)
        finally:
            tracer.restore()
        totals = tracer.span_totals()
        counts.append((dict(tracer.counters), totals["geometry.disksystem"]["calls"]))
    assert counts[0] == counts[1]


def test_cycle_metrics_time_whole_cycles_only():
    # Three templates of 1, 2 and 4 ms, four complete cycles and one partial.
    latencies = [0.001, 0.002, 0.004] * 4 + [0.5]
    metrics = bench.cycle_metrics(latencies, 3)
    assert metrics["ops_per_s"][0] == pytest.approx(12 / 0.028)
    assert metrics["latency_p50_ms"][0] == pytest.approx(2.0)
    assert metrics["latency_p90_ms"][0] == pytest.approx(4.0)
