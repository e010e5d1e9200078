"""CLI: parsing, serialization, subcommands, exit codes, JSON schema."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cechkit.cli import (
    EXIT_DEGENERATE,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    SCHEMA,
    ParseError,
    _parser,
    build_parser,
    main,
    parse_disk_system,
    serialize_disk_system,
)
from conftest import random_system

EXAMPLE_43_CSV = "4,1,0,1.4142135623730951\n4,-1,0,1.4142135623730951\n0,0,0,3\n"
EXAMPLE_44_CSV = (
    "4,1,0,1.4142135623730951\n"
    "4,-1,0,1.4142135623730951\n"
    "0,1,0,3.1622776601683795\n"
    "3,0,1,0.9\n"
)


@pytest.fixture
def csv_43(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(EXAMPLE_43_CSV)
    return str(path)


@pytest.fixture
def csv_44(tmp_path):
    path = tmp_path / "n.csv"
    path.write_text(EXAMPLE_44_CSV)
    return str(path)


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------


def test_parse_csv_three_disks():
    M = parse_disk_system(EXAMPLE_43_CSV, "csv")
    assert len(M) == 3 and M.dimension == 3
    assert M.radii[2] == 3.0


def test_parse_csv_single_disk():
    M = parse_disk_system("0,0,1", "csv")
    assert len(M) == 1 and M.dimension == 2 and M.radii[0] == 1.0


def test_parse_csv_nonpositive_radius():
    with pytest.raises(ParseError, match="line 1"):
        parse_disk_system("0,0,-1", "csv")


def test_parse_csv_ragged_rows():
    with pytest.raises(ParseError, match="line 2"):
        parse_disk_system("0,0,1\n0,0,0,1", "csv")


def test_parse_csv_malformed_number():
    with pytest.raises(ParseError, match="line 3"):
        parse_disk_system("0,0,1\n1,0,1\n2,x,1", "csv")


def test_parse_json_round_trip():
    rng = np.random.default_rng(109)
    M = random_system(rng, 3, 4)
    for fmt in ("csv", "json"):
        again = parse_disk_system(serialize_disk_system(M, fmt), fmt)
        np.testing.assert_allclose(again.centers, M.centers, atol=1e-12)
        np.testing.assert_allclose(again.radii, M.radii, atol=1e-12)


def test_parse_json_errors():
    with pytest.raises(ParseError):
        parse_disk_system("not json", "json")
    with pytest.raises(ParseError):
        parse_disk_system('{"disks": []}', "json")
    with pytest.raises(ParseError, match="disk 1"):
        parse_disk_system('{"dimension": 2, "disks": [[0, 0, -1]]}', "json")


@pytest.mark.parametrize(
    "text, match",
    [
        ('{"dimension": 2, "disks": [5]}', "disk 1"),
        ('{"dimension": 2, "disks": [[0, 0, "a"]]}', "disk 1"),
        ('{"dimension": 2, "disks": [[0, 0, 1], [0, null, 1]]}', "disk 2"),
        ('{"dimension": 2, "disks": [[0, 0, true]]}', "disk 1"),
        ('{"dimension": 2, "disks": 5}', "'disks' must be a list"),
        ('{"dimension": 2, "disks": {"a": 1}}', "'disks' must be a list"),
        ('{"dimension": "x", "disks": []}', "'dimension' and 'disks'"),
        ('{"dimension": 0, "disks": [[1]]}', "dimension must be positive"),
        pytest.param('{"dimension": 2, "disks": [[0, 0, 1%s]]}' % ("0" * 400), "too large for a float",
                     id="radius-1e400-int"),
        pytest.param('{"dimension": 2, "disks": [[1%s, 0, 1]]}' % ("0" * 400), "too large for a float",
                     id="coordinate-1e400-int"),
        pytest.param('{"dimension": 2.7, "disks": [[0, 0, 1], [1, 0, 1]]}', "'dimension' must be an integer",
                     id="dimension-float"),
        pytest.param('{"dimension": "2", "disks": [[0, 0, 1], [1, 0, 1]]}', "'dimension' must be an integer",
                     id="dimension-string"),
        # 5,000 nested lists in 10 KB: json.loads gives up with RecursionError.
        pytest.param('{"dimension": 2, "disks": %s%s}' % ("[" * 5000, "]" * 5000), "nested too deeply",
                     id="nested-5000"),
    ],
)
def test_parse_json_malformed_rows_are_usage_errors(tmp_path, capsys, text, match):
    with pytest.raises(ParseError, match=match):
        parse_disk_system(text, "json")
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["check", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


# Parser fuzz: arbitrary text, CSV-shaped text and JSON documents, some of
# them valid disk systems, through every subcommand.
COMMANDS = ["check", "rips-scale", "cech-scale", "aabb", "filtration", "plot"]
numbers = st.floats(0.1, 2.0) | st.floats(-2.0, 2.0) | st.integers(-(10**400), 10**400) | st.floats()
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)
json_systems = st.fixed_dictionaries(
    {"dimension": st.integers(-1, 4) | json_values, "disks": st.lists(st.lists(numbers, max_size=5), max_size=5)}
)
# Rows of d + 1 numbers, as JSON or CSV: often a valid system.
rows = st.integers(1, 3).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.lists(numbers, min_size=d + 1, max_size=d + 1), min_size=1, max_size=5))
)
csv_texts = rows.map(lambda system: "".join(",".join(map(str, row)) + "\n" for row in system[1])) | st.lists(
    st.lists(numbers | st.text(max_size=3), min_size=1, max_size=5), max_size=5
).map(lambda rows: "".join(",".join(map(str, row)) + "\n" for row in rows))
json_texts = (json_values | json_systems | rows.map(lambda system: {"dimension": system[0], "disks": system[1]})).map(
    json.dumps
)


inputs = (
    st.tuples(st.sampled_from(["csv", "json"]), st.text(max_size=40))
    | csv_texts.map(lambda text: ("csv", text))
    | json_texts.map(lambda text: ("json", text))
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.sampled_from(COMMANDS), inputs)
def test_fuzzed_input_exits_without_a_traceback(tmp_path_factory, command, source):
    fmt, text = source
    path = tmp_path_factory.mktemp("fuzz") / "input"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, "--input-format", fmt, str(path)])
    assert code in (EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE, EXIT_DEGENERATE)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def test_check_true(csv_43, capsys):
    assert main(["check", csv_43]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("TRUE witness=(")


def test_check_false_exit_code(csv_44, capsys):
    assert main(["check", csv_44]) == EXIT_NEGATIVE
    assert capsys.readouterr().out.strip() == "FALSE"


def test_check_json_schema(csv_43, capsys):
    assert main(["check", "--format", "json", csv_43]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == SCHEMA
    assert payload["is_cech"] is True
    np.testing.assert_allclose(payload["witness"], [3.0, 0.0, 0.0], atol=1e-6)


def test_rips_scale_output(csv_43, capsys):
    assert main(["rips-scale", csv_43]) == EXIT_OK
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(math.sqrt(17.0) / (math.sqrt(2.0) + 3.0), abs=1e-9)


def test_cech_scale_tangent_pair(tmp_path, capsys):
    path = tmp_path / "pair.csv"
    path.write_text("0,0,1\n2,0,1\n")
    assert main(["cech-scale", "--eta", "1e-6", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "cech=1 " in out
    assert "iterations=0" in out


def test_cech_scale_json(csv_43, capsys):
    assert main(["cech-scale", "--format", "json", "--eta", "1e-6", csv_43]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["cech_scale"] == pytest.approx(1.0, abs=1e-6)
    assert payload["bracket"][1] - payload["bracket"][0] <= 1e-6


def test_aabb_degenerate_box(csv_43, capsys):
    assert main(["aabb", "--format", "json", csv_43]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(
        payload["box"], [[3.0, 3.0], [0.0, 0.0], [0.0, 0.0]], atol=1e-6
    )


def test_aabb_no_intersection(csv_44, capsys):
    assert main(["aabb", csv_44]) == EXIT_NEGATIVE
    assert capsys.readouterr().out.strip() == "NO-INTERSECTION"


def test_filtration_text_format(tmp_path, capsys):
    path = tmp_path / "eq.csv"
    path.write_text(f"0,0,1\n1,0,1\n0.5,{math.sqrt(3.0) / 2.0},1\n")
    assert main(["filtration", "--max-dim", "2", str(path)]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    parsed = [(float(parts[0]), tuple(map(int, parts[1:])))
              for parts in (line.split() for line in lines)]
    assert parsed[:3] == [(0.0, (0,)), (0.0, (1,)), (0.0, (2,))]
    assert parsed[-1][1] == (0, 1, 2)
    assert parsed[-1][0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)


def test_plot_writes_svg(tmp_path):
    path = tmp_path / "pair.csv"
    path.write_text("0,0,1\n1,0,1\n")
    out = tmp_path / "pair.svg"
    assert main(["plot", "--output", str(out), str(path)]) == EXIT_OK
    svg = out.read_text()
    assert svg.startswith("<svg") and "<circle" in svg and "<rect" in svg


def test_plot_rejects_3d(csv_43, capsys):
    assert main(["plot", csv_43]) == EXIT_USAGE
    assert "2-dimensional" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Flags and exit codes
# ---------------------------------------------------------------------------


def test_unknown_flag_is_usage_error(csv_43, capsys):
    assert main(["check", "--bogus", csv_43]) == EXIT_USAGE


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"], ids=["tol-negative", "tol-nan", "tol-inf"])
def test_bad_tolerance_is_usage_error(tmp_path, capsys, tol):
    # Two overlapping unit disks: a bad --tol must not reach the geometry.
    path = tmp_path / "pair.csv"
    path.write_text("0,0,1\n1,0,1\n")
    assert main(["check", "--tol", tol, str(path)]) == EXIT_USAGE
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cech-scale", "filtration"])
@pytest.mark.parametrize("eta", ["inf", "nan", "0"], ids=["eta-inf", "eta-nan", "eta-zero"])
def test_bad_eta_is_usage_error(tmp_path, capsys, command, eta):
    # With --eta inf the bisection would stop at once and report the Jung bound.
    path = tmp_path / "tri.csv"
    path.write_text("0,0,1\n2.5,0,1\n1.2,2,1\n")
    assert main([command, "--eta", eta, str(path)]) == EXIT_USAGE
    assert "--eta" in capsys.readouterr().err


def _fresh_parser_outcome(argv, capsys):
    """Exit code and stdout of argv run through a newly built parser."""
    args = build_parser().parse_args(argv)
    code = args.func(args)
    return code, capsys.readouterr().out


def test_main_reuses_its_parser_without_carrying_state(tmp_path, capsys):
    path = tmp_path / "tri.csv"
    path.write_text("0,0,1\n2.5,0,1\n1.2,2,1\n")
    svg = tmp_path / "tri.svg"
    pairs = [
        (["cech-scale", "--eta", "1e-3"], ["cech-scale"]),
        (["check", "--preprocess", "--strict"], ["check"]),
        (["plot", "--output", str(svg)], ["plot"]),
    ]
    for pair in pairs:
        for argv in pair:
            argv = [*argv, str(path)]
            code = main(argv)
            got = (code, capsys.readouterr().out)
            assert got == _fresh_parser_outcome(argv, capsys), argv
    assert svg.read_text().startswith("<svg")
    assert _parser() is _parser()


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent/disks.csv"]) == EXIT_USAGE


def test_preprocess_drops_dominated(tmp_path, capsys):
    path = tmp_path / "dom.csv"
    path.write_text("0,0,1\n0.1,0,5\n5,0,1\n")
    assert main(["check", str(path), "--preprocess"]) == EXIT_NEGATIVE
    assert main(["rips-scale", str(path), "--preprocess"]) == EXIT_OK
    # with the containing disk dropped, the scale is that of the far pair
    value = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert value == pytest.approx(math.hypot(5.0, 0.0) / 2.0, abs=1e-9)


def test_preprocess_keeps_the_decision_of_a_redundant_disk(tmp_path, capsys):
    # Unit disks 2e-8 apart and a disk of radius 1000 containing both: the
    # big disk widens neither unit disk's reach, so check answers FALSE with
    # it as without it (--preprocess drops it).
    path = tmp_path / "gap.csv"
    path.write_text("0,0,1\n2.00000002,0,1\n1,0,1000\n")
    for flags in ([], ["--preprocess"]):
        assert main(["check", str(path), *flags]) == EXIT_NEGATIVE
        assert capsys.readouterr().out == "FALSE\n"


@pytest.mark.parametrize(
    "flags, vertices",
    [([], [[0], [1], [2], [0, 1], [0, 2], [1, 2], [0, 1, 2]]), (["--preprocess"], [[1], [2], [1, 2]])],
    ids=["input", "preprocess"],
)
def test_indices_name_input_disks(tmp_path, capsys, flags, vertices):
    # Disk 0 contains the other two, so --preprocess drops it; generating
    # subsets and filtration vertices still name lines of the input.
    path = tmp_path / "dom.csv"
    path.write_text("0.1,0,5\n0,0,1\n0.5,0,1\n")
    outputs = []
    for argv in (["check", "--format", "json"], ["check"], ["filtration", "--format", "json"], ["filtration"]):
        assert main([*argv, *flags, str(path)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    check_json, check_text, filtration_json, filtration_text = outputs
    assert json.loads(check_json)["generating_subset"] == [1]
    assert check_text == "TRUE witness=(1,0)\n"
    assert [s["vertices"] for s in json.loads(filtration_json)["simplices"]] == vertices
    assert [list(map(int, line.split()[1:])) for line in filtration_text.splitlines()] == vertices


@pytest.mark.parametrize("command", ["check", "rips-scale", "cech-scale", "aabb", "filtration", "plot"])
@pytest.mark.parametrize(
    "text", ["-1e154,0,1.01e154\n1e154,0,1.01e154\n", "-1e200,0,1\n1e200,0,1\n"], ids=["lens-1e154", "far-1e200"]
)
def test_overflowing_extent_is_usage_error(tmp_path, capsys, command, text):
    path = tmp_path / "big.csv"
    path.write_text(text)
    assert main([command, "--format", "json", str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: disk system too large")


def test_json_output_refuses_non_finite_numbers(tmp_path, capsys, monkeypatch):
    # JSON has no Infinity or NaN: printing one would be invalid output.
    monkeypatch.setattr("cechkit.cli.rips_scale", lambda M: math.inf)
    path = tmp_path / "pair.csv"
    path.write_text("0,0,1\n1,0,1\n")
    assert main(["rips-scale", "--format", "json", str(path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_strict_escalates_degenerate(tmp_path, capsys):
    warning = (
        "warning: degenerate configuration: skipped disk subsets with affinely dependent centers"
        " (or, for a box, a bound with no pole of its own)\n"
    )
    # Disks 0 and 1 are concentric: pair (0, 1) is skipped before the witness
    # of pair (0, 2).  Four disks around a hollow triangle, with disk 3 on
    # the segment of disks 0 and 1: FALSE, after skipping triple (0, 1, 3).
    for name, text, answer in (
        ("concentric", "0,0,1\n0,0,1.5\n1.2727922061357855,1.2727922061357855,1\n", EXIT_OK),
        ("hollow", "0,0,0.55\n1,0,0.55\n0.5,0.866,0.55\n0.5,0,0.55\n", EXIT_NEGATIVE),
    ):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        assert main(["check", str(path)]) == answer, name
        assert capsys.readouterr().err == warning, name
        assert main(["check", str(path), "--strict"]) == EXIT_DEGENERATE, name
        assert capsys.readouterr().err == warning, name
    # Three collinear unit disks: disk 0's pole (1, 0) is the witness, and
    # the dependent triple comes after it.
    path = tmp_path / "col.csv"
    path.write_text("0,0,1\n1,0,1\n2,0,1\n")
    assert main(["check", str(path), "--strict"]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_input_format_override(tmp_path, capsys):
    path = tmp_path / "disks.txt"
    path.write_text('{"dimension": 2, "disks": [[0, 0, 1]]}')
    assert main(["check", "--input-format", "json", str(path)]) == EXIT_OK
