"""`search` output pinned byte for byte against a recorded golden.

tests/golden/search.json holds, for each command line below, the SHA-256
of its stdout, its stderr and its exit code.  A change that alters any
search verdict, witness, statistic or rendering fails here.  To record the
golden again after an intended output change, run

    PYTHONPATH=src python tests/test_search_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from digitop import cli, search

GOLDEN = Path(__file__).resolve().parent / "golden" / "search.json"

_FORMATS = (("--format", "text"), ("--format", "json"))
_GRIDS = ("3/4,1/4", "1/4,1/4", "1/2,0,3/4")


def _cases() -> list[tuple[str, ...]]:
    cases = []
    for assertion in sorted(search.ASSERTIONS):
        base = ("search", "--assertion", assertion)
        for bound in range(1, 8):
            cases += [(*base, "--size-bound", str(bound), *fmt) for fmt in _FORMATS]
        for bound in (4, 5):
            for grid in _GRIDS:
                cases += [
                    (*base, "--size-bound", str(bound), "--params", grid, *fmt)
                    for fmt in _FORMATS
                ]
    return cases


def _run(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        "stderr": err.getvalue(),
        "exit": code,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_the_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(" ".join(argv) for argv in _cases())


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_search_output_matches_the_golden(golden, argv):
    assert _run(argv) == golden[" ".join(argv)]


if __name__ == "__main__":
    recorded = {" ".join(argv): _run(argv) for argv in _cases()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}", file=sys.stderr)
