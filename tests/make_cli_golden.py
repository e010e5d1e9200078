"""Record the CLI's outputs on a fixed set of disk systems.

Run from the repository root, with ``PYTHONPATH`` pointing at the ``src/``
of the checkout whose outputs are to be recorded:

    PYTHONPATH=src python3 tests/make_cli_golden.py tests/data/cli_golden.json

The file holds, per system, its CSV text and, per command, the argument
list, the exit code, the output and the standard error.  Every command but
``plot`` runs twice: with ``--format json``, whose output is held parsed,
and in text under ``--strict``, whose output is held as printed; ``plot``
holds its SVG text.  ``tests/test_golden.py`` replays every command and
compares.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from cechkit import DiskSystem, rescale, rips_scale  # noqa: E402
from cechkit.cli import main  # noqa: E402
from conftest import DEGENERATE, NEAR_DEPENDENT, lattice_systems, near_dependent  # noqa: E402

SEED = 7001
NEAR_EPS = 1e-6
FACTORS = (0.95, 1.05, 1.3)
SIZES = (3, 4, 6, 9, 12, 16)


def systems():
    """``(name, system, scaled)`` for every input; cech-scale and filtration
    run on the systems with ``scaled`` False only."""
    rng = np.random.default_rng(SEED)
    for d in (2, 3):
        for m in SIZES:
            base = DiskSystem.from_arrays(rng.uniform(0.0, 1.0, (m, d)), rng.uniform(0.1, 1.0, m))
            nu = rips_scale(base)
            for factor in FACTORS:
                yield f"random-d{d}-m{m}-x{factor}", rescale(base, factor * nu), factor != 1.05
    for name, base in lattice_systems():
        nu = rips_scale(base)
        for factor in FACTORS:
            yield f"{name}-x{factor}", rescale(base, factor * nu), factor != 1.05
    bases = [(name, DiskSystem.from_arrays(*DEGENERATE[name])) for name in sorted(DEGENERATE)]
    # Centers moved 1e-6 off a line or plane: boxes that skip in doubt.
    bases += [(f"{name}+{NEAR_EPS:g}", near_dependent(name, NEAR_EPS)) for name in sorted(NEAR_DEPENDENT)]
    for name, base in bases:
        nu = rips_scale(base)
        yield name, base, False
        for factor in FACTORS:
            yield f"{name}-x{factor}", rescale(base, factor * nu), True


def commands(M, scaled):
    """Argument lists (without the input path) run on M."""
    argvs = [["check"], ["aabb"], ["rips-scale"]]
    if not scaled:
        argvs.append(["cech-scale"])
        argvs.append(["filtration", "--max-dim", str(min(2, len(M) - 1))])
    argvs = [form for name, *rest in argvs for form in ([name, "--format", "json", *rest], [name, "--strict", *rest])]
    if M.dimension == 2:
        argvs.append(["plot"])
    return argvs


def to_csv(M) -> str:
    return "".join(",".join(map(repr, (*c, r))) + "\n" for c, r in zip(M.centers.tolist(), M.radii.tolist()))


def run(argv, csv_text):
    """Exit code, output and standard error of ``main(argv + [path])`` on a
    file holding csv_text; JSON output is parsed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "system.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, path])
    text = out.getvalue()
    if "json" not in argv:
        return code, text, err.getvalue()
    payload = json.loads(text)
    if argv[0] == "filtration":  # compact: [scale, vertices] per simplex
        payload["simplices"] = [[s["scale"], s["vertices"]] for s in payload["simplices"]]
    return code, payload, err.getvalue()


def record():
    cases = []
    for name, M, scaled in systems():
        csv_text = to_csv(M)
        ops = []
        for argv in commands(M, scaled):
            code, output, stderr = run(argv, csv_text)
            ops.append({"argv": argv, "code": code, "output": output, "stderr": stderr})
        cases.append({"name": name, "csv": csv_text, "ops": ops})
    return {"seed": SEED, "cases": cases}


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else "tests/data/cli_golden.json"
    os.makedirs(os.path.dirname(target) or ".", exist_ok=True)
    with open(target, "w", encoding="utf-8") as fh:
        json.dump(record(), fh, separators=(",", ":"))
        fh.write("\n")
