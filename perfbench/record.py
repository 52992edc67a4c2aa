"""Record the benchmark's reference data from the current source.

    python3 perfbench/record.py golden
        Rewrite perfbench/golden/<workload>.json: every op's output
        summary under the default seed.  Run only at a commit whose
        outputs are known to be right.

    python3 perfbench/record.py baseline
        Run every workload ten times untraced (seeds 1..10) and twice traced
        (default seed), then write perfbench/baseline.json: medians and
        quartile spreads of the end-to-end metrics, the per-layer metrics,
        the exact-count fingerprint, and the machine they came from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import run
import tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
BASELINE_SEEDS = range(1, 11)


def record_golden() -> None:
    sys.path[:0] = [str(run.SRC)]
    import workloads

    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
            data = cls(workloads.DEFAULT_SEED, Path(workdir)).record()
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(run.ROOT)} ({len(data)} ops)")


def bench(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload]
    command += ["--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"])]
    done = subprocess.run(
        command + ["--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=900,
        cwd=run.ROOT,
        check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{done.stderr}")
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": values}


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=run.ROOT, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def record_baseline() -> None:
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    out = {
        "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
        "commit": git_commit(),
        "source_digest": run.source_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "run_seconds": BENCHMARK["run_seconds"],
        "seed": 0,
        "untraced_seeds": list(BASELINE_SEEDS),
        "workloads": {},
    }
    for workload in run.NAMES:
        results = [bench(workload, seed, 0) for seed in out["untraced_seeds"]]
        e2e = {
            name: spread([r["metrics"][name]["value"] for r in results]) for name in bounds
        }
        traced = [bench(workload, out["seed"], 1) for _ in range(2)]
        prints = [
            {k: t["metrics"][k]["value"] for k in tracer.FINGERPRINT} for t in traced
        ]
        if prints[0] != prints[1]:
            raise SystemExit(f"{workload}: fingerprint differs between traced runs: {prints}")
        out["workloads"][workload] = {
            "attempted_per_run": statistics.median(r["attempted"] for r in results),
            "end_to_end": e2e,
            "fingerprint": prints[0],
            "per_layer": {k: v["value"] for k, v in traced[0]["metrics"].items()},
        }
        for name, stats in e2e.items():
            flag = "" if stats["spread"] < bounds[name] / 3 else "  WIDE"
            print(
                f"{workload:10} {name:13} median {stats['median']:12.4f} "
                f"spread {stats['spread']:.3f} bound {bounds[name]}{flag}",
                flush=True,
            )
    path = run.BENCH_DIR / "baseline.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("golden", "baseline"))
    args = parser.parse_args()
    if args.what == "golden":
        record_golden()
    else:
        record_baseline()


if __name__ == "__main__":
    main()
