"""Benchmark runner for digitop.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload in this process, single-threaded, as a closed loop:
one caller, ops back to back, whole passes until --seconds have passed.
It checks every op's output, prints a summary line, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; set-up time is the median of
fresh-process set-ups.  --trace 1 reports the per-layer metrics of traced
passes, after one untraced pass for the tracing overhead, and writes the
spans to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import speed
import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
NAMES = ("suite", "hunt", "enumerate", "cli-docs")
# Set-ups per run: at least MIN_SETUPS, and more until SETUP_BUDGET_S of
# wall time is spent, so that short set-ups (mostly import time, which
# the speed probe models poorly) get more samples than the one-second suite.
MIN_SETUPS = 5
SETUP_BUDGET_S = 4
COLD_START_SAMPLES = 5
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 120

_SETUP_CHILD = """
import sys, tempfile
from pathlib import Path
from time import perf_counter
src, bench, out, name, seed = sys.argv[1:]
sys.path[:0] = [src, bench]
import speed
with speed.SpeedSampler() as sampler, tempfile.TemporaryDirectory(dir=out) as workdir:
    start = perf_counter()
    import workloads
    workloads.set_up(name, int(seed), Path(workdir))
    print(sampler.scaled(start, perf_counter()))
"""

_COLD_START_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from digitop.cli import main
raise SystemExit(main(sys.argv[2:]))
"""


def source_digest() -> str:
    """Identifies the program under test and the workloads without git: a
    hash of the Python files under src/ and perfbench/."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _child(code: str, *argv) -> str:
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, argv)],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return done.stdout


def setup_seconds(name: str, seed: int) -> list[float]:
    """Fresh-process set-ups (import, input generation and warm-up), in
    reference-speed seconds."""
    setups = []
    start = perf_counter()
    while len(setups) < MIN_SETUPS or perf_counter() - start < SETUP_BUDGET_S:
        setups.append(float(_child(_SETUP_CHILD, SRC, BENCH_DIR, OUT_DIR, name, seed).split()[-1]))
    return setups


def cold_start_ms(workdir: Path) -> float:
    """Median wall time of a fresh interpreter running one check-map."""
    doc = workdir / "cold-start.json"
    doc.write_text(
        json.dumps(
            {
                "dimension": 1,
                "points": [[0], [1], [2]],
                "adjacency": {"type": "cu", "u": 1},
                "metric": {"type": "lp", "p": "1"},
                "maps": [{"name": "T", "pairs": [[[0], [0]], [[1], [0]], [[2], [1]]]}],
            }
        )
    )
    times = []
    for _ in range(COLD_START_SAMPLES):
        start = perf_counter()
        _child(_COLD_START_CHILD, SRC, "check-map", "--space", doc, "--map", "T")
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000


class Tally:
    """Timings, table counts and failures over the timed passes.  Times are
    reference-speed seconds with a sampler, wall seconds without;
    wall_pass_s is always wall seconds."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.wall_pass_s: list[float] = []
        self.op_s: dict[str, list[float]] = defaultdict(list)
        self.tables = 0
        self.attempted = 0
        self.failed = 0


def run_pass(workload, tally: Tally, tracer=None, sampler=None) -> None:
    gc.collect()
    elapsed = wall = 0.0
    for op in workload.ops:
        tally.attempted += 1
        result = error = None
        start = perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.op(op.label):
                    result = op.run()
        except Exception as err:  # an op that raises is a failed op
            error = err
        end = perf_counter()
        wall += end - start
        took = end - start if sampler is None else sampler.scaled(start, end)
        elapsed += took
        tally.op_s[op.label].append(took)
        ok = False
        if error is None:
            try:
                ok = op.check(result)
                if ok:
                    tally.tables += op.tables(result)
            except Exception as err:  # a malformed output fails its check
                error = err
        if not ok:
            tally.failed += 1
            print(f"FAILED {op.label}", file=sys.stderr)
            if error is not None:
                traceback.print_exception(error, file=sys.stderr)
    tally.pass_s.append(elapsed)
    tally.wall_pass_s.append(wall)


def run_passes(
    workload, seconds: float, min_passes: int, tracer=None, on_pass=None, sampler=None
) -> Tally:
    """Whole passes back to back until `seconds` have passed."""
    tally = Tally()
    start = perf_counter()
    while len(tally.pass_s) < min_passes or perf_counter() - start < seconds:
        run_pass(workload, tally, tracer, sampler)
        if on_pass is not None:
            on_pass()
    return tally


def op_percentile(tally: Tally, k: int) -> float:
    """The k-th percentile of op latency over the workload's op mix.

    Every op runs once per pass, so each op's median over the passes is
    taken first: that removes noise from the tails, and with few ops per
    pass (hunt has six) it keeps the percentile from falling between the
    extreme samples of two different ops.
    """
    medians = [statistics.median(times) for times in tally.op_s.values()]
    if len(medians) == 1:
        return medians[0]
    return statistics.quantiles(medians, n=100, method="inclusive")[k - 1]


def report(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares under `kind` ("end_to_end" or
    "per_layer"), in its order and with its units."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in benchmark[kind]}


def end_to_end(workload, args) -> tuple[Tally, dict]:
    setups = setup_seconds(args.workload, args.seed)
    with speed.SpeedSampler() as sampler:
        tally = run_passes(workload, args.seconds, 1, sampler=sampler)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(tally.pass_s),
        "tables_per_s": tally.tables / sum(tally.pass_s),
        "op_p50_ms": op_percentile(tally, 50) * 1000,
        "op_p90_ms": op_percentile(tally, 90) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(
        f"{args.workload} seed={args.seed}: passes={len(tally.pass_s)} "
        f"ops={tally.attempted} ({len(tally.op_s)} distinct) setups={len(setups)} "
        f"wall pass_s={statistics.median(tally.wall_pass_s):.4f}s "
        f"error_rate={tally.failed / tally.attempted:.4f}"
    )
    return tally, report("end_to_end", metrics)


def per_layer(workload, args, workdir: Path) -> tuple[Tally, dict, bool]:
    reference = run_passes(workload, 0, 1)
    tracer = tracing.Tracer()
    passes = []
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(spans_path, "wt", compresslevel=1) as sink:
        tracer.install()
        try:
            tally = run_passes(
                workload,
                args.seconds,
                MIN_TRACED_PASSES,
                tracer,
                lambda: passes.append(tracer.take_pass(sink)),
            )
        finally:
            tracer.uninstall()
    metrics = {
        name: statistics.median(p[name] for p in passes) for name in passes[0]
    }
    metrics["cli.cold_start_ms"] = cold_start_ms(workdir)
    metrics["trace.overhead_s"] = statistics.median(tally.pass_s) - reference.pass_s[0]
    consistent = check_fingerprint(passes, args)
    tally.attempted += reference.attempted
    tally.failed += reference.failed
    print(f"{args.workload} seed={args.seed}: traced passes={len(passes)} spans in {spans_path}")
    return tally, report("per_layer", metrics), consistent


def check_fingerprint(passes: list[dict], args) -> bool:
    """Counts must repeat across traced passes, and match baseline.json
    when it was recorded from this same source and seed."""
    prints = [{k: p[k] for k in tracing.FINGERPRINT} for p in passes]
    print("fingerprint " + json.dumps(prints[0], sort_keys=True))
    ok = all(p == prints[0] for p in prints)
    if not ok:
        print("FINGERPRINT differs between traced passes", file=sys.stderr)
    baseline_path = BENCH_DIR / "baseline.json"
    if baseline_path.is_file():
        baseline = json.loads(baseline_path.read_text())
        recorded = baseline["workloads"].get(args.workload, {}).get("fingerprint")
        if recorded is not None and args.seed == baseline["seed"]:
            if baseline["source_digest"] == source_digest():
                if recorded != prints[0]:
                    ok = False
                    print("FINGERPRINT differs from baseline.json for this source", file=sys.stderr)
            elif recorded != prints[0]:
                print("fingerprint changed since baseline.json: " + json.dumps(recorded, sort_keys=True))
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "digitop" / "__init__.py").is_file():
        print(f"error: no digitop sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workload = workloads.set_up(args.workload, args.seed, Path(workdir))
        consistent = True
        if args.trace:
            tally, metrics, consistent = per_layer(workload, args, Path(workdir))
        else:
            tally, metrics = end_to_end(workload, args)
    result = {
        "correct": tally.failed == 0 and consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
