"""Smoke test of the benchmark at a tiny size (12-day seasons, 40
calibration days); takes about a minute.

    python3 perfbench/smoke.py

For every workload it checks that an untraced and a traced run are
correct and emit exactly the metrics BENCHMARK.json names, each with its
unit, that BENCHMARK.json gives every metric a direction, that no self
time is negative, and that the exact counts repeat across two traced
runs. It also checks that the benchmark refuses to run without the
roomtune sources. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = (
    "gp.log_marginal_likelihood.calls",
    "gp.posterior_batch.kernel_entries",
    "gp.with_data.rows",
    "plant.simulate_day.calls",
)


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0 and cwd == ROOT:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            expect(m.get("better") in ("higher", "lower"), f"{m['name']}: no direction")
            expect(bool(m.get("unit")), f"{m['name']}: no unit")

    for workload in (w["name"] for w in spec["workloads"]):
        counts = []
        for trace, kind in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
            code, lines = run(workload, trace)
            where = f"{workload} --trace {trace}"
            expect(code == 0, f"{where}: exit code {code}")
            if code != 0:
                break
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
            expect(result["correct"] and result["failed"] == 0, f"{where}: not correct")
            expect(result["attempted"] >= 1, f"{where}: nothing attempted")
            metrics = result["metrics"]
            expect(set(metrics) == {m["name"] for m in spec[kind]}, f"{where}: metric names")
            for m in spec[kind]:
                got = metrics.get(m["name"], {})
                expect(got.get("unit") == m["unit"], f"{where}: {m['name']} unit")
                expect(isinstance(got.get("value"), (int, float)), f"{where}: {m['name']} value")
            if trace == 0:
                expect(all(v["value"] > 0 for v in metrics.values()), f"{where}: an end-to-end metric is 0")
                continue
            expect(all(v["value"] >= 0 for k, v in metrics.items() if k.endswith("self_s")),
                   f"{where}: negative self time")
            spans = json.loads((HERE / "out" / f"trace_{workload}_seed0.json").read_text())["spans"]
            expect(all(s["self"] >= 0 for s in spans), f"{where}: negative span self time")
            counts.append([metrics[name]["value"] for name in EXACT_COUNTS])
        expect(len(counts) == 2 and counts[0] == counts[1], f"{workload}: exact counts differ between runs")

    with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, lines = run("season_fixed", 0, cwd=bare)
        expect(code != 0 and not lines, "runs without the roomtune sources")

    for failure in failures:
        print(f"FAIL {failure}")
    print("smoke test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
