"""CLI outputs against the golden file recorded by ``make_cli_golden.py``.

Exit codes, standard error, text output, decisions, generating subsets,
warnings, iterations, brackets, Rips and Cech scales and SVG text must match
exactly; JSON witnesses, boxes and filtration scales to 1e-12.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from make_cli_golden import run

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8"))
ATOL = 1e-12


def _close(got, want):
    if want is None:
        assert got is None
    else:
        np.testing.assert_allclose(got, want, rtol=0.0, atol=ATOL)


def _assert_same_output(command, got, want):
    if isinstance(want, str):  # text output and SVG
        assert got == want
        return
    assert got.keys() == want.keys()
    approximate = {"check": ("witness",), "aabb": ("box",), "cech-scale": ("witness",)}.get(command, ())
    for key in want:
        if key in approximate:
            _close(got[key], want[key])
        elif key == "simplices":
            scales = {tuple(v): s for s, v in got[key]}
            assert len(scales) == len(got[key]) and scales.keys() == {tuple(v) for _, v in want[key]}
            for s, v in want[key]:
                assert math.isclose(scales[tuple(v)], s, rel_tol=0.0, abs_tol=ATOL), v
        else:
            assert got[key] == want[key], key


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=[c["name"] for c in GOLDEN["cases"]])
def test_cli_matches_golden_outputs(case):
    for op in case["ops"]:
        code, output, stderr = run(op["argv"], case["csv"])
        assert (code, stderr) == (op["code"], op["stderr"]), op["argv"]
        _assert_same_output(op["argv"][0], output, op["output"])
