"""Self-check of the benchmark itself.

    python3 bench/selfcheck.py

Runs every workload at tiny size, untraced and traced, and asserts that:
- each run is correct and prints exactly the metrics BENCHMARK.json names
  for its mode, each with its unit, end-to-end values positive;
- the traced runs confirm the routing: no events or bounds calls on
  bc_grid, no borel_cantelli calls anywhere else;
- one deliberately corrupted result per workload is counted as a failure,
  so the output checks have teeth;
- a run refuses to start when UNION_BOUNDS_TOL is set, and in a checkout
  holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every assertion holds and prints one line per failure otherwise.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SECONDS = "0.5"


def run(args, cwd=ROOT, env=None):
    proc = subprocess.run(
        [sys.executable, "bench/run.py"] + args,
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    predictions = json.loads((BENCH / "predictions.json").read_text(encoding="utf-8"))
    failures: list[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            failures.append(message)

    workloads = [w["name"] for w in spec["workloads"]]
    modes = {0: spec["end_to_end"], 1: spec["per_layer"]}
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for layer, claim in predictions["layers"].items():
        for name in claim["metrics"]:
            expect(name in known, f"predictions: {layer} names unknown metric {name}")
        for metric, workload in claim["moves"] + claim["holds"]:
            expect(metric in known, f"predictions: {layer} predicts unknown metric {metric}")
            expect(workload in workloads, f"predictions: {layer} names unknown workload {workload}")

    for workload in workloads:
        for trace, wanted in modes.items():
            code, result, err = run(
                ["--workload", workload, "--seed", "7", "--seconds", SECONDS,
                 "--trace", str(trace), "--tiny"]
            )
            label = f"{workload} trace={trace}"
            if result is None or code != 0:
                failures.append(f"{label}: exit {code}, no result\n{err}")
                continue
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
            expect(result["correct"] is True and result["failed"] == 0, f"{label}: not correct\n{err}")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in wanted}, f"{label}: metric names differ")
            for m in wanted:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"], f"{label}: {m['name']} unit {got.get('unit')}")
                value = got.get("value")
                expect(isinstance(value, (int, float)) and math.isfinite(value), f"{label}: {m['name']} value {value}")
                if trace == 0:
                    expect(isinstance(value, (int, float)) and value > 0, f"{label}: {m['name']} is not positive")
            if trace == 1:
                calls = {k: metrics[k]["value"] for k in metrics if k.endswith(".calls")}
                if workload == "bc_grid":
                    expect(calls["events.calls"] == 0 and calls["bounds.calls"] == 0, f"{label}: events or bounds called")
                    expect(calls["borel_cantelli.calls"] > 0, f"{label}: borel_cantelli not called")
                else:
                    expect(calls["borel_cantelli.calls"] == 0, f"{label}: borel_cantelli called")
        code, result, _ = run(
            ["--workload", workload, "--seed", "7", "--seconds", SECONDS, "--trace", "0",
             "--tiny", "--inject-fault"]
        )
        expect(
            code == 1 and result is not None and result["correct"] is False and result["failed"] >= 1,
            f"{workload}: a corrupted result was not counted as a failure",
        )

    env = dict(os.environ, UNION_BOUNDS_TOL="1e-6")
    code, result, _ = run(["--workload", workloads[0], "--seed", "1", "--seconds", SECONDS, "--tiny"], env=env)
    expect(code != 0 and result is None, "a run with UNION_BOUNDS_TOL set did not refuse")

    bare = ROOT / ".bench_build" / f"selfcheck-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = run(["--workload", workloads[0], "--seed", "1", "--seconds", SECONDS], cwd=bare)
        expect(code != 0 and result is None, "a run without the library did not refuse")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"selfcheck: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
