"""End-to-end command-line behavior: output shapes, exit codes, errors.

Exit code contract: 0 success, 1 failed verification under
--expect-pass, 2 malformed input (bad document, unknown map, bad
flags).  JSON output must be byte-stable across runs.
"""

import argparse
import enum
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import digitop
from digitop import cli, mapkit
from digitop.cli import main


class Level(enum.IntEnum):
    ONE = 1


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, obj):
    target = tmp_path / name
    target.write_text(json.dumps(obj))
    return str(target)


@pytest.fixture(autouse=True)
def json_reports_match_the_standard_library(monkeypatch):
    """Every --format json report of these tests renders as json.dumps does."""
    render = cli._json

    def checked(value, indent=""):
        text = render(value, indent)
        if not indent:
            assert text == json.dumps(value, indent=2, sort_keys=True)
        return text

    monkeypatch.setattr(cli, "_json", checked)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        [[], {}, [[]], [{}]],
        {"a": {}, "b": [], "c": {"d": [{}, []]}},
        "plain",
        "non-ASCII: é ∞ 𝔽",
        "control: \x00\x01\x1f\t\n\r \" \\ /",
        10**40,
        -(10**40),
        -7,
        0,
        True,
        False,
        None,
        -0.0,
        1e16,
        float("nan"),
        float("inf"),
        float("-inf"),
        (1, (2, 3), []),
        {1: "a", 2: ["b"]},
        {"outer": {3: [1.5, (True, None)], 4: {}}, "z": [0.1, {"y": (), "x": 2}]},
        ["mixed", 1, 2.5, None, [False, {"é": "∞", "a": -0.0}]],
        {"B": 1, "a": 2, "é": 3, "": 4},
        [1, True],
        [True, False],
        [0, -1, 10**40],
        [[0, 1], [2]],
        [Level.ONE, 2],
        [[1, True]],
        [[1, 2.0]],
        [[1], []],
        [[1], [[2]]],
        [[0, 1], [float("nan")]],
        [[-3, 10**40], [0, -1]],
        {"a": True, "b": 1, "c": 1.5, "d": float("inf")},
        [True, 1, None, "x"],
    ],
    ids=repr,
)
def test_json_rendering_matches_json_dumps(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


JSON_LIKE = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | st.floats()
    | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")])
    | st.text(),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children)
    | st.dictionaries(st.integers(), children),
    max_leaves=25,
)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(JSON_LIKE)
def test_json_rendering_matches_json_dumps_on_any_json_like_value(value):
    assert cli._json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.fixture
def finite(tmp_path):
    return write(
        tmp_path,
        "finite.json",
        {
            "dimension": 1,
            "points": [[0], [1], [2]],
            "adjacency": {"type": "cu", "u": 1},
            "metric": {"type": "lp", "p": "1"},
            "maps": [
                {"name": "T", "pairs": [[[0], [0]], [[1], [0]], [[2], [1]]]},
                {"name": "J", "pairs": [[[0], [0]], [[1], [2]], [[2], [0]]]},
                {"name": "S", "pairs": [[[0], [2]], [[1], [1]], [[2], [0]]]},
            ],
        },
    )


@pytest.fixture
def two_point(tmp_path):
    return write(
        tmp_path,
        "two.json",
        {
            "dimension": 1,
            "points": [[0], [1]],
            "adjacency": {"type": "cu", "u": 1},
            "metric": {"type": "lp", "p": "1"},
            "maps": [
                {"name": "swap", "pairs": [[[0], [1]], [[1], [0]]]},
                {"name": "id", "pairs": [[[0], [0]], [[1], [1]]]},
            ],
        },
    )


@pytest.fixture
def integer_line(tmp_path):
    return write(
        tmp_path,
        "line.json",
        {
            "dimension": 1,
            "points": "Z",
            "adjacency": {"type": "cu", "u": 1},
            "metric": {"type": "lp", "p": 1},
            "maps": [
                {"name": "G", "affine": {"p": 1, "q": 1}},
                {"name": "H", "affine": {"p": 0, "q": 0}},
            ],
        },
    )


@pytest.fixture
def l3_plane(tmp_path):
    return write(
        tmp_path,
        "l3.json",
        {
            "dimension": 2,
            "points": [[0, 0], [1, 0], [1, 1]],
            "adjacency": {"type": "cu", "u": 2},
            "metric": {"type": "lp", "p": 3},
            "maps": [
                {"name": "T", "pairs": [[[0, 0], [1, 1]], [[1, 0], [0, 0]], [[1, 1], [1, 1]]]}
            ],
        },
    )


# -- check-map -------------------------------------------------------


def test_check_map_text(finite, capsys):
    code, out, _ = run(["check-map", "--space", finite, "--map", "T"], capsys)
    assert code == 0
    assert out == (
        "map T: valid self-map of 3 point(s) in Z^1 with c1\n"
        "continuous: yes\n"
        "fixed points: 0\n"
    )


def test_check_map_discontinuous(finite, capsys):
    code, out, _ = run(["check-map", "--space", finite, "--map", "J"], capsys)
    assert code == 0
    assert "continuous: no (edge 0 ~ 1)" in out


def test_check_map_json(finite, capsys):
    code, out, _ = run(
        ["check-map", "--space", finite, "--map", "T", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "command": "check-map",
        "map": "T",
        "valid": True,
        "continuous": True,
        "continuity_violation": None,
        "fixed_points": [[0]],
    }


def test_check_map_affine(integer_line, capsys):
    code, out, _ = run(["check-map", "--space", integer_line, "--map", "G"], capsys)
    assert code == 0
    assert out == "map G: x -> 1*x + 1\nfixed points: none\n"


def test_check_map_requires_map_flag(finite, capsys):
    with pytest.raises(SystemExit):
        main(["check-map", "--space", finite])
    assert "requires --map" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check-map", "classify", "fix"])
def test_malformed_document_is_reported_before_a_missing_map(tmp_path, capsys, command):
    bad = write(tmp_path, "bad.json", {"dimension": 1})
    code, out, err = run([command, "--space", bad], capsys)
    assert (code, out) == (2, "")
    assert err == "error: document: missing field(s): adjacency, metric, points\n"


# -- classify --------------------------------------------------------


def test_classify_single_map(finite, capsys):
    code, out, _ = run(["classify", "--space", finite, "--map", "T"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "classification on 3 point(s) in Z^1 with c1, metric l1:",
        "  contraction: minimal_constant=1 holds_below_one=False",
        "  quasi-max: minimal_constant=1 holds_below_one=False",
        "  five-term-max: minimal_constant=1/2 holds_below_one=True",
    ]


def test_classify_pair(finite, capsys):
    code, out, _ = run(
        ["classify", "--space", finite, "--map", "T", "--map2", "S", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = {r["condition"]: r for r in json.loads(out)["conditions"]}
    # T collapses pairs that S separates, so no constant works
    dom = rows["domination-of-second-by-first"]
    assert dom["no_finite_constant"] is True and dom["minimal_constant"] is None
    assert rows["sum-bound"]["minimal_constant"] == "2"
    assert rows["sum-bound"]["both_constant"] is False
    assert rows["weakly-commutative"]["holds"] is False
    assert rows["compatible"]["holds"] is True
    assert rows["rational-two-map"]["undefined_pairs"] == 0


def test_classify_pair_text(finite, capsys):
    # Text keeps each row's fields in their order, which JSON's sorted keys do not show.
    code, out, _ = run(["classify", "--space", finite, "--map", "T", "--map2", "S"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "classification on 3 point(s) in Z^1 with c1, metric l1:",
        "  domination-of-second-by-first: minimal_constant=None"
        " no_finite_constant=True range_included=False",
        "  sum-bound: minimal_constant=2 no_finite_constant=False both_constant=False",
        "  weakly-commutative: holds=False",
        "  compatible: holds=True",
        "  rational-two-map: holds_on_defined_pairs=False undefined_pairs=0",
    ]


def test_classify_affine_pair_both_orientations(integer_line, capsys):
    # --map names the dominating map, --map2 the dominated one
    code, out, _ = run(
        ["classify", "--space", integer_line, "--map", "G", "--map2", "H"], capsys
    )
    assert code == 0
    assert out.splitlines() == [
        "classification on the integer line:",
        "  domination-of-second-by-first: minimal_constant=0"
        " no_finite_constant=False range_included=True",
    ]
    code, out, _ = run(
        ["classify", "--space", integer_line, "--map", "H", "--map2", "G"], capsys
    )
    assert code == 0
    assert "no_finite_constant=True" in out


def test_classify_single_affine_map(integer_line, capsys):
    argv = ["classify", "--space", integer_line, "--map", "G"]
    assert run(argv, capsys) == (
        0,
        "classification on the integer line:\n  fixed-points: kind=none point=None\n",
        "",
    )
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    rows = json.loads(out)["conditions"]
    assert rows == [{"condition": "fixed-points", "kind": "none", "point": None}]


def test_classify_l3_constants_print_as_floats(l3_plane, capsys):
    # 2^(1/3) = d((0,0), (1,1)) in l_3 is neither an integer nor a surd.
    argv = ["classify", "--space", l3_plane, "--map", "T"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines()[1:] == [
        "  contraction: minimal_constant=1.2599210498948732 holds_below_one=False",
        "  quasi-max: minimal_constant=1.2599210498948732 holds_below_one=False",
        "  five-term-max: minimal_constant=1.0 holds_below_one=False",
    ]
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert '"minimal_constant": 1.2599210498948732' in out
    assert [r["minimal_constant"] for r in json.loads(out)["conditions"]] == [
        1.2599210498948732,
        1.2599210498948732,
        1.0,
    ]


def test_classify_l3_pair_text(tmp_path, capsys):
    maps = {
        "T": [[[0, 0], [1, 1]], [[1, 0], [0, 0]], [[1, 1], [1, 1]]],
        "S": [[[0, 0], [1, 0]], [[1, 0], [0, 0]], [[1, 1], [1, 0]]],
    }
    doc = {
        "dimension": 2,
        "points": [[0, 0], [1, 0], [1, 1]],
        "adjacency": {"type": "cu", "u": 2},
        "metric": {"type": "lp", "p": 3},
        "maps": [{"name": name, "pairs": pairs} for name, pairs in maps.items()],
    }
    space = write(tmp_path, "l3_pair.json", doc)
    code, out, _ = run(["classify", "--space", space, "--map", "T", "--map2", "S"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "classification on 3 point(s) in Z^2 with c2, metric l3:",
        "  domination-of-second-by-first: minimal_constant=0.7937005259840998"
        " no_finite_constant=False range_included=False",
        "  sum-bound: minimal_constant=2.259921049894873"
        " no_finite_constant=False both_constant=False",
        "  weakly-commutative: holds=False",
        "  compatible: holds=False",
        "  rational-two-map: holds_on_defined_pairs=False undefined_pairs=1",
    ]


# -- fix -------------------------------------------------------------


def test_fix_all_orbits(finite, capsys):
    code, out, _ = run(["fix", "--space", finite, "--map", "T"], capsys)
    assert code == 0
    assert out.splitlines() == [
        "fixed points: 0",
        "0 -> 0: settles at 0 (index 0)",
        "1 -> 0 -> 0: settles at 0 (index 1)",
        "2 -> 1 -> 0 -> 0: settles at 0 (index 2)",
    ]


def test_fix_single_start(finite, capsys):
    code, out, _ = run(
        ["fix", "--space", finite, "--map", "T", "--start", "2"], capsys
    )
    assert code == 0
    assert out == "2 -> 1 -> 0 -> 0: settles at 0 (index 2)\n"


def test_fix_truncation(two_point, capsys):
    code, out, _ = run(
        ["fix", "--space", two_point, "--map", "swap", "--start", "0", "--max-steps", "1"],
        capsys,
    )
    assert code == 0
    assert out == "0 -> 1: truncated before repetition\n"


def test_fix_alternating(two_point, capsys):
    code, out, _ = run(
        ["fix", "--space", two_point, "--map", "swap", "--map2", "id", "--start", "0"],
        capsys,
    )
    assert code == 0
    assert out == "0 -> 1 -> 1 -> 0 -> 0: eventually periodic (period 4)\n"


@pytest.mark.parametrize("command", ["fix", "classify"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_an_empty_map2_is_a_map_name(finite, capsys, command, fmt):
    # No map has an empty name, so --map2 "" is refused, not read as absent.
    argv = [command, "--space", finite, "--map", "T", "--map2", "", "--format", fmt]
    assert run(argv, capsys) == (
        2,
        "",
        "error: maps: no map named ''; document has: J, S, T\n",
    )


def test_classify_on_the_integer_line_refuses_an_empty_map2(integer_line, capsys):
    argv = ["classify", "--space", integer_line, "--map", "G", "--map2", ""]
    assert run(argv, capsys) == (2, "", "error: maps: no map named ''; document has: G, H\n")


# Affine maps of Z by the kind of their fixed-point set: (p, q, point).
AFFINE = {"none": (1, 1, None), "single": (3, 4, -2), "all": (1, 0, None)}


@pytest.fixture
def affine_line(tmp_path):
    return write(
        tmp_path,
        "affine.json",
        {
            "dimension": 1,
            "points": "Z",
            "adjacency": {"type": "cu", "u": 1},
            "metric": {"type": "lp", "p": 1},
            "maps": [{"name": k, "affine": {"p": p, "q": q}} for k, (p, q, _) in AFFINE.items()],
        },
    )


@pytest.mark.parametrize(
    "name, text",
    [
        ("none", "map none: x -> 1*x + 1\nfixed points: none\n"),
        ("single", "map single: x -> 3*x + 4\nfixed points: single (-2)\n"),
        ("all", "map all: x -> 1*x + 0\nfixed points: all\n"),
    ],
)
def test_fix_and_check_map_on_the_integer_line(affine_line, capsys, name, text):
    p, q, point = AFFINE[name]
    fixes = {"kind": name, "point": point}
    for command, extra in (("fix", {}), ("check-map", {"affine": {"p": p, "q": q}})):
        argv = [command, "--space", affine_line, "--map", name]
        assert run(argv, capsys) == (0, text, "")
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0
        payload = {"command": command, "map": name, "fixed_points": fixes, **extra}
        assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_fix_bad_start(finite, capsys):
    code, _, err = run(
        ["fix", "--space", finite, "--map", "T", "--start", "nonsense"], capsys
    )
    assert code == 2
    assert "error: --start" in err


@pytest.mark.parametrize("start", ['"a"', "[1.5]", "true", "[[0]]"])
def test_fix_start_that_is_not_a_point(finite, capsys, start):
    code, out, err = run(["fix", "--space", finite, "--map", "T", "--start", start], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: --start: not a lattice point: ")


@pytest.mark.parametrize(
    "extra, flags",
    [
        (["--start", "1"], "--start"),
        (["--max-steps", "0"], "--max-steps"),
        (["--map2", "nowhere"], "--map2"),
        (["--map2", ""], "--map2"),
        (["--map2", "G", "--start", "3", "--max-steps", "2"], "--start/--max-steps/--map2"),
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fix_on_the_integer_line_refuses_orbit_flags(integer_line, capsys, extra, flags, fmt):
    # The affine report runs no orbit: a flag it would ignore is refused.
    argv = ["fix", "--space", integer_line, "--map", "G", "--format", fmt, *extra]
    assert run(argv, capsys) == (
        2,
        "",
        f"error: {flags}: does not apply to a map of the integer line\n",
    )


# -- hausdorff -------------------------------------------------------


def test_hausdorff_text_and_json(finite, capsys):
    code, out, _ = run(
        ["hausdorff", "--space", finite, "--first", "[[0]]", "--second", "[[2]]"],
        capsys,
    )
    assert code == 0 and out == "hausdorff distance: 2\n"
    code, out, _ = run(
        ["hausdorff", "--space", finite, "--first", "[[0],[2]]", "--second", "[[1]]"],
        capsys,
    )
    assert code == 0 and out == "hausdorff distance: 1\n"
    code, out, _ = run(
        [
            "hausdorff",
            "--space",
            finite,
            "--first",
            "[[0]]",
            "--second",
            "[[2]]",
            "--format",
            "json",
        ],
        capsys,
    )
    assert json.loads(out) == {"command": "hausdorff", "distance": 2}


def test_hausdorff_rejects_alien_points(finite, capsys):
    code, _, err = run(
        ["hausdorff", "--space", finite, "--first", "[[9]]", "--second", "[[0]]"],
        capsys,
    )
    assert code == 2
    assert err == "error: --first: 9 is not a point of the space\n"


def test_hausdorff_l3_distance_prints_as_a_float(l3_plane, capsys):
    argv = ["hausdorff", "--space", l3_plane, "--first", "[[0, 0]]", "--second", "[[1, 1]]"]
    assert run(argv, capsys) == (0, "hausdorff distance: 1.2599210498948732\n", "")
    code, out, _ = run(argv + ["--format", "json"], capsys)
    assert code == 0
    assert json.loads(out) == {"command": "hausdorff", "distance": 1.2599210498948732}


@pytest.mark.parametrize("flag", ["--first", "--second"])
@pytest.mark.parametrize(
    "value, message",
    [
        ("[]", "expected a nonempty JSON array of points"),
        ("{}", "expected a nonempty JSON array of points"),
        ("[[0]", "not a point array: '[[0]'"),
        ("[0.5]", "not a lattice point: 0.5"),
        ('["a"]', "not a lattice point: 'a'"),
    ],
)
def test_hausdorff_names_only_the_bad_subset(finite, capsys, flag, value, message):
    subsets = {"--first": "[[0]]", "--second": "[[2]]", flag: value}
    argv = ["hausdorff", "--space", finite, *(x for kv in subsets.items() for x in kv)]
    assert run(argv, capsys) == (2, "", f"error: {flag}: {message}\n")


# -- fpp -------------------------------------------------------------


def test_fpp_two_point_fails_with_witness(two_point, capsys):
    code, out, _ = run(["fpp", "--space", two_point], capsys)
    assert code == 0
    assert out == (
        "fixed point property: fails\n"
        "witness map without fixed points: {0->1, 1->0}\n"
    )


def test_fpp_expect_pass_exit_codes(tmp_path, two_point, capsys):
    code, _, _ = run(["fpp", "--space", two_point, "--expect-pass"], capsys)
    assert code == 1
    singleton = write(
        tmp_path,
        "one.json",
        {
            "dimension": 1,
            "points": [[5]],
            "adjacency": {"type": "cu", "u": 1},
            "metric": {"type": "lp", "p": "1"},
        },
    )
    code, out, _ = run(["fpp", "--space", singleton, "--expect-pass"], capsys)
    assert code == 0
    assert out == "fixed point property: holds\n"


def test_fpp_json_witness_table(two_point, capsys):
    code, out, _ = run(
        ["fpp", "--space", two_point, "--all-maps", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["restricted_to_continuous"] is False
    assert payload["holds"] is False
    assert payload["witness"] == [[[0], [1]], [[1], [0]]]


# -- search ----------------------------------------------------------


def test_search_counterexample_text(capsys):
    code, out, _ = run(
        ["search", "--assertion", "dominated-common-fix", "--size-bound", "2"], capsys
    )
    assert code == 0
    assert out.splitlines() == [
        "dominated-common-fix: counterexample",
        "space: 2 point(s) in Z^1 with c1, metric l1",
        "M1: {0->0, 1->0}",
        "M2: {0->1, 1->1}",
        "parameter: 1/4",
        "replayed: True",
        "hypothesis_hits: 11",
        "instances_scanned: 13",
        "space_metric_combinations: 4",
    ]


def test_search_expect_pass_codes(capsys):
    code, _, _ = run(
        [
            "search",
            "--assertion",
            "dominated-common-fix",
            "--size-bound",
            "2",
            "--expect-pass",
        ],
        capsys,
    )
    assert code == 1
    code, out, _ = run(
        [
            "search",
            "--assertion",
            "quasi-fixed-point",
            "--size-bound",
            "2",
            "--expect-pass",
        ],
        capsys,
    )
    assert code == 0
    assert out.startswith("quasi-fixed-point: exhausted\n")


def test_search_witness_document_is_reusable(tmp_path, capsys):
    code, out, _ = run(
        [
            "search",
            "--assertion",
            "dominated-common-fix",
            "--size-bound",
            "2",
            "--format",
            "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    witness = payload["witness"]
    assert witness["replayed"] is True
    assert witness["param"] == "1/4"
    reread = write(tmp_path, "witness.json", witness["document"])
    code, out, _ = run(
        ["classify", "--space", reread, "--map", "M1", "--map2", "M2"], capsys
    )
    assert code == 0
    assert "classification on 2 point(s)" in out


def test_search_bad_params(capsys):
    code, _, err = run(
        ["search", "--assertion", "quasi-fixed-point", "--params", "1/0"], capsys
    )
    assert code == 2
    assert err == "error: --params: '1/0' has a zero denominator\n"


@pytest.mark.parametrize(
    "params, message",
    [
        ("1/2,3/0", "'3/0' has a zero denominator"),
        ("1e400", "r grid value '1e400' outside [0, 1)"),
        ("1/4,-1", "r grid value '-1' outside [0, 1)"),
    ],
)
def test_a_bad_params_value_is_quoted(capsys, params, message):
    code, out, err = run(
        ["search", "--assertion", "quasi-fixed-point", "--params", params], capsys
    )
    assert code == 2 and out == ""
    assert err == f"error: --params: {message}\n"


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["fix", "--map", "T", "--start", "[9]"], "--start"),
        (["fix", "--map", "T", "--max-steps", "0"], "--max-steps"),
        (["fix", "--map", "T", "--start", "[9]", "--max-steps", "0"], "--start/--max-steps"),
        (["search", "--assertion", "quasi-fixed-point", "--size-bound", "0"], "--size-bound"),
        (["search", "--assertion", "quasi-fixed-point", "--params", "2"], "--params"),
        (["search", "--assertion", "quasi-fixed-point", "--params", ""], "--params"),
        # The rational form takes no parameter: a grid would be ignored.
        (["search", "--assertion", "rational-alternating-common-fix", "--params", "2"], "--params"),
    ],
)
def test_out_of_range_flags_are_named(finite, capsys, argv, flags):
    if argv[0] == "fix":
        argv = [*argv, "--space", finite]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flags}: ")


def test_a_budget_stop_names_the_size_bound(capsys, monkeypatch):
    # The 3-point interval's largest five-term enumeration takes 15 nodes.
    monkeypatch.setattr(mapkit, "ENUM_BUDGET", 14)
    argv = ["search", "--assertion", "five-term-fixed-point", "--size-bound", "3"]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --size-bound: 3 point(s) in Z^1 with c1, metric l1: ")


def test_search_rejects_bad_assertion_flag(capsys):
    with pytest.raises(SystemExit):
        main(["search", "--assertion", "made-up"])
    assert "invalid choice" in capsys.readouterr().err


# -- verify-paper ----------------------------------------------------


def test_verify_paper_passes_and_is_byte_identical(capsys):
    code, first, _ = run(["verify-paper"], capsys)
    assert code == 0
    code, second, _ = run(["verify-paper"], capsys)
    assert code == 0
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "PASS  contraction-theorem-exhaustive"
    assert lines[-1] == "PASS  overall (10/10 entries)"
    code, js1, _ = run(["verify-paper", "--format", "json"], capsys)
    code, js2, _ = run(["verify-paper", "--format", "json"], capsys)
    assert js1 == js2
    assert json.loads(js1)["passed"] is True


def test_classify_an_l2_space_with_a_large_prime_distance(tmp_path, capsys):
    """The squared distance 1000000010**2 + 1 is prime, so simplifying its
    root finds no square factor below its cube root."""
    far = [1000000010, 1]
    doc = write(
        tmp_path,
        "far.json",
        {
            "dimension": 2,
            "points": [[0, 0], far],
            "adjacency": {"type": "cu", "u": 1},
            "metric": {"type": "lp", "p": "2"},
            "maps": [{"name": "T", "pairs": [[[0, 0], [0, 0]], [far, [0, 0]]]}],
        },
    )
    code, out, _ = run(["classify", "--space", doc, "--map", "T"], capsys)
    assert code == 0
    assert "contraction: minimal_constant=0 holds_below_one=True" in out


# -- error paths -----------------------------------------------------


def test_missing_document(tmp_path, capsys):
    code, _, err = run(
        ["check-map", "--space", str(tmp_path / "absent.json"), "--map", "T"], capsys
    )
    assert code == 2
    assert "cannot read" in err


def test_a_document_that_is_not_utf8(tmp_path, capsys):
    target = tmp_path / "bad.json"
    target.write_bytes(b"\xff\xfe{}")
    code, out, err = run(["check-map", "--space", str(target), "--map", "T"], capsys)
    assert (code, out) == (2, "")
    assert err == (
        f"error: {target}: cannot decode: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte\n"
    )


_DEEP = "[" * 3000 + "]" * 3000


def test_a_deeply_nested_document(tmp_path, capsys):
    target = tmp_path / "deep.json"
    target.write_text(_DEEP)
    code, out, err = run(["check-map", "--space", str(target), "--map", "T"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {target}: cannot decode: maximum recursion depth exceeded")


def test_a_deeply_nested_start(finite, capsys):
    code, out, err = run(["fix", "--space", finite, "--map", "T", "--start", _DEEP], capsys)
    assert (code, out, err) == (2, "", f"error: --start: not a point: {_DEEP!r}\n")


@pytest.mark.parametrize("flag", ["--first", "--second"])
def test_a_deeply_nested_subset(finite, capsys, flag):
    subsets = {"--first": "[[0]]", "--second": "[[2]]", flag: _DEEP}
    argv = ["hausdorff", "--space", finite, *(x for kv in subsets.items() for x in kv)]
    assert run(argv, capsys) == (2, "", f"error: {flag}: not a point array: {_DEEP!r}\n")


# Past Python's 4,300-digit limit on int conversion, json raises a plain ValueError.
_LONG = "1" * 5000


def test_a_document_with_an_overlong_integer(tmp_path, capsys):
    target = tmp_path / "long.json"
    target.write_text('{"dimension": ' + _LONG + "}")
    code, out, err = run(["check-map", "--space", str(target), "--map", "T"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {target}: cannot decode: Exceeds the limit (4300 digits)")


def test_an_overlong_integer_start(finite, capsys):
    code, out, err = run(["fix", "--space", finite, "--map", "T", "--start", _LONG], capsys)
    assert (code, out, err) == (2, "", f"error: --start: not a point: {_LONG!r}\n")


def test_an_overlong_integer_in_a_subset(finite, capsys):
    first = f"[[{_LONG}]]"
    argv = ["hausdorff", "--space", finite, "--first", first, "--second", "[[2]]"]
    assert run(argv, capsys) == (2, "", f"error: --first: not a point array: {first!r}\n")


def test_unknown_map_name(finite, capsys):
    code, _, err = run(["check-map", "--space", finite, "--map", "X"], capsys)
    assert code == 2
    assert err == "error: maps: no map named 'X'; document has: J, S, T\n"


def test_half_step_map_rejected_naming_the_point(tmp_path, capsys):
    # t -> t/2 + 1 lands off-lattice first at t = 1
    doc = write(
        tmp_path,
        "half.json",
        {
            "dimension": 1,
            "points": [[0], [1], [2], [3], [4]],
            "adjacency": {"type": "cu", "u": 1},
            "metric": {"type": "lp", "p": "1"},
            "maps": [
                {
                    "name": "F",
                    "pairs": [
                        [[0], [1]],
                        [[1], [1.5]],
                        [[2], [2]],
                        [[3], [2.5]],
                        [[4], [3]],
                    ],
                }
            ],
        },
    )
    code, _, err = run(["check-map", "--space", doc, "--map", "F"], capsys)
    assert code == 2
    assert err == "error: map value [1.5] at 1 is not a lattice point\n"


def test_float_in_structural_field(tmp_path, capsys):
    doc = write(
        tmp_path,
        "bad.json",
        {
            "dimension": 1,
            "points": [[0], [1]],
            "adjacency": {"type": "cu", "u": 1},
            "metric": {"type": "lp", "p": 0.5},
        },
    )
    code, _, err = run(["fpp", "--space", doc], capsys)
    assert code == 2
    assert 'float literals are not allowed; write "num/den"' in err


@pytest.mark.parametrize("maps", [5, None, "ab", {}])
@pytest.mark.parametrize("points", [[[0], [1]], "Z"])
def test_maps_that_are_not_an_array(tmp_path, capsys, maps, points):
    doc = {
        "dimension": 1,
        "points": points,
        "adjacency": {"type": "cu", "u": 1},
        "metric": {"type": "lp", "p": "1"},
        "maps": maps,
    }
    argv = ["check-map", "--space", write(tmp_path, "doc.json", doc), "--map", "T"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("error: maps: expected an array of maps")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-paper", "--expect-pass"],
        ["verify-paper", "--max-steps", "3"],
        ["search", "--assertion", "quasi-fixed-point", "--max-steps", "3"],
        ["fpp", "--map", "T"],
        ["hausdorff", "--map2", "S", "--first", "[[0]]", "--second", "[[1]]"],
        ["check-map", "--map", "T", "--map2", "S"],
        ["check-map", "--map", "T", "--expect-pass"],
        ["classify", "--map", "T", "--max-steps", "3"],
        ["fix", "--map", "T", "--expect-pass"],
    ],
)
def test_options_a_command_does_not_read_are_refused(finite, capsys, argv):
    if argv[0] not in ("verify-paper", "search"):
        argv = [argv[0], "--space", finite, *argv[1:]]
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_finite_command_on_integer_line(integer_line, capsys):
    for command, *rest in (["hausdorff", "--first", "[[0]]", "--second", "[[1]]"], ["fpp"]):
        code, out, err = run([command, "--space", integer_line, *rest], capsys)
        assert (code, out) == (2, "")
        assert err == "error: points: this command needs a finite space document\n"


def child_env(**extra):
    """The environment of a new interpreter that imports the digitop under test."""
    src = str(Path(digitop.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, **extra, PYTHONPATH=path)


def test_console_entry_point(finite):
    proc = subprocess.run(
        [sys.executable, "-m", "digitop.cli", "check-map", "--space", finite, "--map", "T"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert "fixed points: 0" in proc.stdout


@pytest.mark.parametrize("p, loaded", [("1", False), ("2", False), ("3", True)])
def test_only_general_lp_distances_load_mpmath(tmp_path, p, loaded):
    doc = write(
        tmp_path,
        "space.json",
        {
            "dimension": 2,
            "points": [[0, 0], [1, 0], [1, 1]],
            "adjacency": {"type": "cu", "u": 2},
            "metric": {"type": "lp", "p": p},
            "maps": [
                {"name": "T", "pairs": [[[0, 0], [1, 1]], [[1, 0], [0, 0]], [[1, 1], [1, 1]]]}
            ],
        },
    )
    # check-map evaluates no distance; classify's minimal constants do.
    script = "\n".join(
        [
            "import sys",
            "from digitop.cli import main",
            "loaded = ['mpmath' in sys.modules]",
            "for command in ('check-map', 'classify'):",
            f"    assert main([command, '--space', {doc!r}, '--map', 'T']) == 0",
            "    loaded.append('mpmath' in sys.modules)",
            "print(loaded)",
        ]
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str([False, False, loaded])


# -- one parser per process ------------------------------------------


def fresh_process(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "digitop.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(COLUMNS="80"),
    )
    return proc.returncode, proc.stdout, proc.stderr


def in_process(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_a_reused_parser_answers_as_a_fresh_process(finite, two_point, capsys, monkeypatch):
    # Each option is followed by a call that omits it, and each SystemExit
    # (usage error, missing --map, --help) by a good call, so a value or
    # state left behind by one parse would show in the next call's output.
    monkeypatch.setenv("COLUMNS", "80")
    fx = ["--space", finite, "--map", "T"]
    search_ = ["search", "--assertion", "dominated-common-fix", "--size-bound", "2"]
    calls = [
        ["fix", *fx, "--map2", "S", "--format", "json"],
        ["fix", *fx],
        ["fix", *fx, "--start", "2", "--max-steps", "1"],
        ["fix", *fx],
        ["classify", *fx, "--map2", "S"],
        ["classify", *fx],
        ["fpp", "--space", two_point, "--all-maps", "--expect-pass"],
        ["fpp", "--space", two_point],
        [*search_, "--params", "1/3", "--expect-pass"],
        search_,
        ["check-map", *fx, "--bogus"],
        ["check-map", *fx],
        ["check-map", "--space", finite],
        ["hausdorff", "--space", finite, "--first", "[[0]]", "--second", "[[2]]"],
        ["--help"],
        ["check-map", "--space", finite, "--map", "S", "--format", "json"],
        ["fix", "--help"],
        ["fix", "--space", two_point, "--map", "swap", "--start", "0"],
    ]
    for argv in calls:
        assert in_process(argv, capsys) == fresh_process(argv), argv


def test_later_calls_build_no_parser(finite, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    main(["check-map", "--space", finite, "--map", "T"])
    built.clear()
    main(["fix", "--space", finite, "--map", "T"])
    main(["classify", "--space", finite, "--map", "T", "--format", "json"])
    with pytest.raises(SystemExit):
        main(["check-map", "--space", finite])
    capsys.readouterr()
    assert built == []


def test_importing_the_cli_builds_no_parser():
    # Library users and the benchmark import digitop.cli without calling it.
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import digitop, digitop.cli\n"
        "on_import = len(built)\n"
        "digitop.cli.build_parser()\n"
        "print(on_import, len(built) > 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert (proc.returncode, proc.stdout) == (0, "0 True\n"), proc.stderr
