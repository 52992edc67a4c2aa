"""The four benchmark workloads.

A workload turns a seed into inputs during set-up and exposes one pass as
a list of ops.  Each op is one call a user of digitop makes and waits
for; it carries its own output check (against a golden recorded from the
seed commit where the inputs allow, and against oracle.py otherwise) and
the number of map tables it decided, counted by the benchmark, not read
from the program.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

from digitop import cli, documents, mapkit, search
from digitop.space import Adjacency, DigitalImage

import oracle

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 0


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    tables: Callable[[object], int]


def _load_golden(name: str):
    path = GOLDEN_DIR / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else None


def _dump(payload) -> str:
    """The CLI's JSON rendering (cli._emit)."""
    return json.dumps(payload, indent=2, sort_keys=True)


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        # Goldens are recorded with the default seed.  `golden` serves the
        # outputs whose inputs do not depend on the seed, `default_golden`
        # all outputs, and only under the default seed.
        self.golden = _load_golden(self.name)
        self.default_golden = self.golden if seed == DEFAULT_SEED else None
        self.ops: list[Op] = []

    def inputs(self):
        """A JSON-able description of everything drawn from the seed."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def record(self) -> dict:
        """Golden data: every op's output summary for this seed."""
        return {op.label: self.summary(op.label, op.run()) for op in self.ops}

    def summary(self, label: str, result):
        """The part of an op's output that a golden records."""
        return result


# -- suite --------------------------------------------------------------

class Suite(Workload):
    """verify_paper_suite(): fixed, no seed."""

    name = "suite"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ops = [Op("verify-paper", self._run, self._check, self._tables)]

    @staticmethod
    def _tables(doc) -> int:
        """Tables the document reports deciding: every verdict of the
        exhaustive sweeps and every instance the probes scanned."""
        total = 0
        for entry in doc["entries"]:
            evidence = entry["evidence"]
            if entry["name"].endswith("-exhaustive"):
                total += sum(evidence.values())
            total += evidence.get("instances_scanned", 0)
        return total

    def inputs(self):
        return None

    @staticmethod
    def _run():
        return search.verify_paper_suite().as_document()

    def _check(self, doc) -> bool:
        return _dump(doc) == self.golden["verify-paper"]

    def summary(self, label, result):
        return _dump(result)

    def warm_up(self):
        self._run()


# -- searches (hunt, enumerate) ----------------------------------------

# The benchmark's own reading of each assertion: arity and conclusion.
_CONCLUSIONS = {
    "quasi-fixed-point": (1, lambda pts, m: bool(oracle.fixed_points(pts, m[0]))),
    "five-term-fixed-point": (1, lambda pts, m: bool(oracle.fixed_points(pts, m[0]))),
    "dominated-common-fix-with-range": (
        2,
        lambda pts, m: len(oracle.common_fixed_points(pts, *m)) == 1,
    ),
    "dominated-common-fix": (2, lambda pts, m: len(oracle.common_fixed_points(pts, *m)) == 1),
    "dominated-monotone-compatible": (2, lambda pts, m: oracle.compatible(pts, *m)),
    "sum-bound-common-fix": (2, lambda pts, m: bool(oracle.common_fixed_points(pts, *m))),
    "rational-alternating-common-fix": (2, lambda pts, m: oracle.alternating_conclusion(pts, *m)),
}
_METRIC_KEYS = {"l1": "l1", "l2": "l2", "shortest_path": "sp"}
_PARAMETERLESS = {"rational-alternating-common-fix"}


class _Searches(Workload):
    """find_counterexample over a seeded parameter grid; each op replays
    its witness and renders it as a document, as `digitop search` does."""

    assertions: tuple[str, ...] = ()
    size_bound = 0
    warm_up_bound = 3
    one_dimensional_only = False

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.universe = oracle.scan_universe(self.size_bound, self.one_dimensional_only)
        self.grid = oracle.draw_grid(seed, self.universe)
        self.ops = [
            Op(
                f"search {a}",
                partial(self._search, a, self.size_bound),
                partial(self._check_search, a),
                partial(self._search_tables, a),
            )
            for a in self.assertions
        ]

    def inputs(self):
        return [str(v) for v in self.grid]

    def warm_up(self):
        for a in dict.fromkeys(self.assertions):
            self._search(a, self.warm_up_bound)

    def _search(self, assertion, size_bound):
        outcome = search.find_counterexample(assertion, size_bound, self.grid)
        if outcome.status != search.COUNTEREXAMPLE:
            return outcome, None, None
        space = outcome.space
        names = [f"M{i + 1}" for i in range(len(outcome.maps))]
        witness = documents.ParsedDocument(
            space.image.dimension,
            space.image.adjacency,
            space.metric,
            space.image,
            space,
            dict(zip(names, outcome.maps)),
        )
        return outcome, outcome.verify(), documents.serialize_document(witness)

    def summary(self, label, result):
        outcome, _, document = result
        param = None if outcome.param is None else str(outcome.param)
        return {"status": outcome.status, "param": param, "document": document}

    def _grid_size(self, assertion) -> int:
        return 1 if assertion in _PARAMETERLESS else len(self.grid)

    def _witness(self, outcome) -> tuple:
        image = outcome.space.image
        k = 0 if outcome.param is None else self.grid.index(outcome.param)
        metric = _METRIC_KEYS[str(outcome.space.metric)]
        return (
            image.points,
            image.adjacency.u,
            metric,
            k,
            tuple(m.values for m in outcome.maps),
        )

    def _search_tables(self, assertion, result) -> int:
        outcome = result[0]
        arity = _CONCLUSIONS[assertion][0]
        witness = self._witness(outcome) if outcome.status == search.COUNTEREXAMPLE else None
        return oracle.universe_count(
            self.universe, arity, self._grid_size(assertion), witness
        )

    def _check_search(self, assertion, result) -> bool:
        outcome, replayed, _ = result
        arity, conclusion = _CONCLUSIONS[assertion]
        if outcome.status == search.EXHAUSTED:
            universe = oracle.universe_count(self.universe, arity, self._grid_size(assertion))
            ok = outcome.stats["instances_scanned"] == universe
        elif outcome.status == search.COUNTEREXAMPLE:
            maps = [m.values for m in outcome.maps]
            ok = (
                replayed is True
                and len(maps) == arity
                and not conclusion(outcome.space.points, maps)
                and (outcome.param is None or outcome.param in self.grid)
            )
        else:
            ok = False
        label = f"search {assertion}"
        if self.default_golden is not None:
            ok = ok and self.default_golden[label] == self.summary(label, result)
        return ok


_WITNESS_HUNTS = (
    "dominated-common-fix-with-range",
    "dominated-common-fix",
    "sum-bound-common-fix",
    "rational-alternating-common-fix",
)
# A block runs each witness search this many times, the four in turn.
_WITNESS_REPEATS = 10


class Hunt(_Searches):
    """The six size-bound-5 hunts: two exhaustions of several seconds, and
    four witness searches of about a millisecond.  A pass runs a block of
    witness searches before, between and after the exhaustions, so that
    their latency is sampled often and at several moments of the pass."""

    name = "hunt"
    _block = _WITNESS_HUNTS * _WITNESS_REPEATS
    assertions = (
        _block + ("quasi-fixed-point",) + _block + ("five-term-fixed-point",) + _block
    )
    size_bound = 5


class Enumerate(_Searches):
    """The size-bound-4 map-pair enumeration, with has_fpp (continuous maps
    and all maps) on every image of the size-6 scan universe before and
    after it, so that each has_fpp call is sampled at two moments a pass."""

    name = "enumerate"
    assertions = ("dominated-monotone-compatible",)
    size_bound = 4
    one_dimensional_only = True
    fpp_bound = 6

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        fpp = self._fpp_ops(self.fpp_bound)
        self.ops = fpp + self.ops + fpp

    def _fpp_ops(self, size_bound):
        ops = []
        for i, (points, u) in enumerate(oracle.scan_universe(size_bound)):
            for restrict in (True, False):
                label = f"fpp image{i} {'continuous' if restrict else 'all-maps'}"
                ops.append(
                    Op(
                        label,
                        partial(self._fpp, points, u, restrict),
                        partial(self._check_fpp, label, points, u, restrict),
                        lambda r, points=points: oracle.fpp_count(points, r[1]),
                    )
                )
        return ops

    def warm_up(self):
        super().warm_up()
        for op in self._fpp_ops(4):
            op.run()

    @staticmethod
    def _fpp(points, u, restrict):
        verdict = mapkit.has_fpp(DigitalImage(points, Adjacency(u)), restrict)
        witness = None if verdict.counterexample is None else verdict.counterexample.values
        return verdict.holds, witness

    def summary(self, label, result):
        if label.startswith("fpp "):
            holds, witness = result
            return [holds, None if witness is None else [list(p) for p in witness]]
        return super().summary(label, result)

    def _check_fpp(self, label, points, u, restrict, result) -> bool:
        holds, witness = result
        if holds == (witness is not None):
            return False
        if witness is not None:
            if oracle.fixed_points(points, witness):
                return False
            if restrict and not oracle.is_continuous(points, witness, u):
                return False
        # has_fpp inputs do not depend on the seed: the golden always applies.
        return self.golden[label] == self.summary(label, result)


# -- cli-docs -----------------------------------------------------------

_SHAPES = (
    (oracle.interval(3), 1),
    (oracle.interval(5), 1),
    (oracle.interval(7), 1),
    (oracle.interval(9), 1),
    (oracle.grid(2, 2), 1),
    (oracle.grid(2, 2), 2),
    (oracle.grid(2, 3), 1),
    (oracle.grid(2, 3), 2),
    (oracle.grid(3, 3), 1),
    (oracle.grid(3, 3), 2),
)
_METRIC_DOCS = {
    "l1": {"type": "lp", "p": "1"},
    "l2": {"type": "lp", "p": "2"},
    "l3": {"type": "lp", "p": "3"},
    "sp": {"type": "shortest_path"},
}
_FPP_MAX_POINTS = 6
# Map draws per shape and metric: more draws average out per-map cost.
_DRAWS = 3


class CliDocs(Workload):
    """In-process `digitop` calls on seeded space documents."""

    name = "cli-docs"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        self.docs = []
        for shape, (points, u) in enumerate(_SHAPES):
            for metric, spec in _METRIC_DOCS.items():
                for draw in range(_DRAWS):
                    self._add_doc(rng, shape, points, u, metric, spec, fpp=draw == 0)

    def _add_doc(self, rng, shape, points, u, metric, spec, fpp):
        doc = {
            "dimension": len(points[0]),
            "points": [list(p) for p in points],
            "adjacency": {"type": "cu", "u": u},
            "metric": spec,
            "maps": [
                {"name": name, "pairs": [[list(p), list(rng.choice(points))] for p in points]}
                for name in ("T", "S")
            ],
        }
        first = sorted(rng.sample(points, rng.randint(1, 3)))
        second = sorted(rng.sample(points, rng.randint(1, 3)))
        path = self.workdir / f"doc{len(self.docs)}.json"
        path.write_text(json.dumps(doc))
        self.docs.append((doc, first, second))
        space = ["--space", str(path), "--format", "json"]
        subsets = ["--first", json.dumps([list(p) for p in first])]
        subsets += ["--second", json.dumps([list(p) for p in second])]
        argvs = [
            ["check-map", *space, "--map", "T"],
            ["classify", *space, "--map", "T"],
            ["classify", *space, "--map", "T", "--map2", "S"],
            ["fix", *space, "--map", "T"],
            ["fix", *space, "--map", "T", "--map2", "S"],
            ["hausdorff", *space, *subsets],
        ]
        if fpp and metric == "l1" and len(points) <= _FPP_MAX_POINTS:
            argvs += [["fpp", *space], ["fpp", *space, "--all-maps"]]
        for argv in argvs:
            self._add_op(shape, metric, doc, first, second, argv)

    def _add_op(self, shape, metric, doc, first, second, argv):
        label = f"op{len(self.ops)} {argv[0]} shape{shape} {metric}"
        if "--map2" in argv:
            label += " pair"
        if "--all-maps" in argv:
            label += " all-maps"
        context = (metric, doc, first, second)
        self.ops.append(
            Op(
                label,
                partial(self._call, argv),
                partial(self._check, label, argv[0], context),
                partial(self._tables, argv, doc),
            )
        )

    def inputs(self):
        return self.docs

    def warm_up(self):
        for op in self.ops:
            if " shape0 " in op.label:
                op.run()

    @staticmethod
    def _call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    def summary(self, label, result):
        code, stdout = result
        return [code, hashlib.sha256(stdout.encode()).hexdigest()]

    @staticmethod
    def _tables(argv, doc, result) -> int:
        command = argv[0]
        if command == "hausdorff":
            return 0
        if command != "fpp":
            return 1
        points = [tuple(p) for p in doc["points"]]
        witness = json.loads(result[1])["witness"]
        return oracle.fpp_count(
            points, None if witness is None else [tuple(v) for _, v in witness]
        )

    def _check(self, label, command, context, result) -> bool:
        code, stdout = result
        # fpp depends only on the image, so its golden holds for every seed.
        if command == "fpp" or self.default_golden is not None:
            if self.golden[label] != self.summary(label, result):
                return False
        if code != 0:
            return False
        payload = json.loads(stdout)
        if payload["command"] != command:
            return False
        metric, doc, first, second = context
        points = [tuple(p) for p in doc["points"]]
        u = doc["adjacency"]["u"]
        if command in ("check-map", "fix"):
            t = [tuple(v) for _, v in doc["maps"][0]["pairs"]]
            return payload["fixed_points"] == [list(p) for p in oracle.fixed_points(points, t)]
        if command == "hausdorff":
            powered = oracle.hausdorff_powered(points, u, metric, first, second)
            return oracle.matches(payload["distance"], metric, (0, powered))
        if command == "classify":
            t, s = ([tuple(v) for _, v in m["pairs"]] for m in doc["maps"])
            if "map2" in payload:
                expected = oracle.classify_pair(points, u, metric, t, s)
            else:
                expected = oracle.classify_single(points, u, metric, t)
            rows = payload["conditions"]
            return [row["condition"] for row in rows] == list(expected) and all(
                oracle.matches(row[key], metric, value)
                if key == "minimal_constant"
                else row[key] == value
                for row in rows
                for key, value in expected[row["condition"]].items()
            )
        if command == "fpp":
            if payload["witness"] is None:
                return payload["holds"] is True
            values = [tuple(v) for _, v in payload["witness"]]
            return not oracle.fixed_points(points, values) and (
                not payload["restricted_to_continuous"]
                or oracle.is_continuous(points, values, u)
            )
        return True


WORKLOADS = {w.name: w for w in (Suite, Hunt, Enumerate, CliDocs)}


def set_up(name: str, seed: int, workdir: Path) -> Workload:
    """Input generation and warm-up: everything before the timed passes."""
    workload = WORKLOADS[name](seed, workdir)
    workload.warm_up()
    return workload
