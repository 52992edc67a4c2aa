"""The document commands' output pinned byte for byte against a recorded golden.

tests/golden/cli.json holds, for each command line below, the SHA-256 of its
stdout, its stderr and its exit code.  The calls cover check-map, classify,
fix, hausdorff and fpp on l1, l2, l3 and shortest-path documents in one and
two dimensions and on the integer line, in text and JSON; verify-paper in
text and JSON; argument errors from the parser; and map-table errors in a
document.  A change that alters any report, message or exit code fails
here.  Documents are written to a fresh directory on each run; its path
reads as <dir> in the recorded output.  To record the golden again after
an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from digitop import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

_INTERVAL = [[0], [1], [2], [3]]
_SQUARE = [[0, 0], [0, 1], [1, 0], [1, 1]]


def _finite(points, u, metric, maps):
    return {
        "dimension": len(points[0]),
        "points": points,
        "adjacency": {"type": "cu", "u": u},
        "metric": metric,
        "maps": [{"name": name, "pairs": pairs} for name, pairs in maps.items()],
    }


def _table(points, images):
    return [[p, v] for p, v in zip(points, images)]


# T is continuous and fixes 0; S reverses the interval (no fixed point) and is
# not monotone; C is constant.
_INTERVAL_MAPS = {
    "T": _table(_INTERVAL, [[0], [0], [1], [2]]),
    "S": _table(_INTERVAL, [[3], [2], [1], [0]]),
    "C": _table(_INTERVAL, [[1], [1], [1], [1]]),
}
# T folds the square onto an edge; S rotates it (no fixed point); C is constant.
_SQUARE_MAPS = {
    "T": _table(_SQUARE, [[0, 0], [0, 1], [0, 0], [0, 1]]),
    "S": _table(_SQUARE, [[0, 1], [1, 1], [0, 0], [1, 0]]),
    "C": _table(_SQUARE, [[1, 1], [1, 1], [1, 1], [1, 1]]),
}
_L1 = {"type": "lp", "p": "1"}
_METRICS = {
    "l1": _L1,
    "l2": {"type": "lp", "p": "2"},
    "l3": {"type": "lp", "p": "3"},
    "sp": {"type": "shortest_path"},
}
_SHAPES = {
    "1d": (_INTERVAL, 1, _INTERVAL_MAPS),
    "c1": (_SQUARE, 1, _SQUARE_MAPS),
    "c2": (_SQUARE, 2, _SQUARE_MAPS),
}
_SPACES = {
    f"{metric}-{shape}": _finite(points, u, spec, maps)
    for metric, spec in _METRICS.items()
    for shape, (points, u, maps) in _SHAPES.items()
}
_LINE = {
    "dimension": 1,
    "points": "Z",
    "adjacency": {"type": "cu", "u": 1},
    "metric": {"type": "lp", "p": 1},
    "maps": [
        {"name": "T", "affine": {"p": 1, "q": 1}},
        {"name": "S", "affine": {"p": 2, "q": -3}},
        {"name": "C", "affine": {"p": 0, "q": 5}},
    ],
}


def _table_doc(pairs):
    return _finite(_INTERVAL, 1, _L1, {"T": pairs})


# Map tables with one flaw each, and one that uses the accepted 1-D shorthand.
_GOOD = _INTERVAL_MAPS["T"]
_TABLES = {
    "float-input": _table_doc([[[0.0], [0]], *_GOOD[1:]]),
    "float-output": _table_doc([[[0], [0.0]], *_GOOD[1:]]),
    "bool-input": _table_doc([[[True], [0]], *_GOOD[1:]]),
    "bool-output": _table_doc([[[0], [True]], *_GOOD[1:]]),
    "duplicate-input": _table_doc([*_GOOD, [[1], [2]]]),
    "partial": _table_doc(_GOOD[:3]),
    "unknown-point": _table_doc([*_GOOD[:3], [[7], [2]]]),
    "not-a-pair": _table_doc([*_GOOD[:3], [[3], [2], [1]]]),
    "bare-int-pair": _table_doc([[0, 0], [1, [0]], [[2], 1], [3, 2]]),
}
_DOCUMENTS = {**_SPACES, "line": _LINE, **_TABLES}

_FORMATS = (("--format", "text"), ("--format", "json"))


def _finite_calls(name: str, point: str, subset: str) -> list[tuple[str, ...]]:
    space = ("--space", f"<dir>/{name}.json")
    calls = [
        ("check-map", *space, "--map", "T"),
        ("check-map", *space, "--map", "S"),
        ("classify", *space, "--map", "T"),
        ("classify", *space, "--map", "T", "--map2", "S"),
        ("fix", *space, "--map", "T"),
        ("fix", *space, "--map", "S"),
        ("fix", *space, "--map", "T", "--start", point),
        ("fix", *space, "--map", "T", "--map2", "S"),
        ("fix", *space, "--map", "S", "--max-steps", "1"),
        ("hausdorff", *space, "--first", subset, "--second", f"[{point}]"),
        ("fpp", *space),
        ("fpp", *space, "--all-maps", "--expect-pass"),
    ]
    return [(*call, *fmt) for call in calls for fmt in _FORMATS]


def _cases() -> list[tuple[str, ...]]:
    cases = []
    for name, doc in _SPACES.items():
        if doc["dimension"] == 1:
            cases += _finite_calls(name, "2", "[[0], [1]]")
        else:
            cases += _finite_calls(name, "[1, 0]", "[[0, 0], [0, 1]]")
    line = ("--space", "<dir>/line.json")
    for call in [
        ("check-map", *line, "--map", "T"),
        ("check-map", *line, "--map", "C"),
        ("classify", *line, "--map", "S"),
        ("classify", *line, "--map", "S", "--map2", "T"),
        ("classify", *line, "--map", "C", "--map2", "T"),
        ("fix", *line, "--map", "S"),
        ("fix", *line, "--map", "T", "--start", "0"),
        ("hausdorff", *line, "--first", "[0]", "--second", "[1]"),
        ("fpp", *line),
    ]:
        cases += [(*call, *fmt) for fmt in _FORMATS]
    for name in _TABLES:
        table = ("--space", f"<dir>/{name}.json")
        cases += [("check-map", *table, "--map", "T", *fmt) for fmt in _FORMATS]
    cases += [("verify-paper", *fmt) for fmt in _FORMATS]
    space = ("--space", "<dir>/l1-1d.json")
    cases += [
        (),
        ("-h",),
        ("bogus",),
        ("--format", "json", "check-map", *space, "--map", "T"),
        ("check-map", "--map", "T"),
        ("check-map", *space, "--map", "T", "extra"),
        ("check-map", *space, "--map", "T", "--format", "yaml"),
        ("check-map", "--sp", "<dir>/l1-1d.json", "--map", "T"),
        ("fix", *space, "--map", "T", "--max-steps", "many"),
        ("check-map", "-h"),
        ("check-map", *space),
        ("fix", *space, "--map", "T", "--start", "[0.5]"),
        ("hausdorff", *space, "--first", "[[9]]", "--second", "[[0]]"),
    ]
    return cases


def _run(directory: str, argv) -> dict:
    argv = [arg.replace("<dir>", directory) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exit_:
            code = exit_.code
    stdout, stderr = (s.getvalue().replace(directory, "<dir>") for s in (out, err))
    return {
        "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
        "stderr": stderr,
        "exit": code,
    }


def _write_documents(directory: str) -> None:
    for name, doc in _DOCUMENTS.items():
        Path(directory, f"{name}.json").write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("documents"))
    _write_documents(path)
    return path


@pytest.fixture(autouse=True)
def fixed_width(monkeypatch):
    # argparse wraps usage and help to the terminal width.
    monkeypatch.setenv("COLUMNS", "80")


def test_the_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in _cases())


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_cli_output_matches_the_golden(golden, directory, argv):
    assert _run(directory, argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        _write_documents(scratch)
        recorded = {" ".join(argv): _run(scratch, argv) for argv in _cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}", file=sys.stderr)
