"""roomtune benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload season_fixed --seed 0 --seconds 10 --trace 0

Run from the repository root (any working directory works); roomtune is
imported from ``src/`` next to this directory, single process, BLAS
pinned to one thread. A run sets up the workload (median of up to three
set-up passes), repeats whole rounds of it until ``--seconds`` have
passed, checks the outputs outside the timed phase, and prints a report
line followed by the result object as the last line of stdout.

Every item of a round (a calibration, a season, a CLI command) and every
set-up pass is timed on its own and rescaled to a reference host speed
(see ``hostspeed.py``). ``ops_per_s`` is a round's operations over the
sum of the items' median rescaled times; ``setup_s`` is the median
rescaled set-up pass. The report line keeps the wall-clock figures.

With ``--trace 1`` one more round runs with every layer boundary wrapped
in a span; its outputs must equal the untraced ones byte for byte. The
spans are written to ``perfbench/out/trace_<workload>_seed<seed>.json``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # must precede the first numpy import
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PASSES = 3  # set-up repeats, as long as they fit in SETUP_BUDGET_S
SETUP_BUDGET_S = 3.0
TINY = {"days": 12, "calibration_days": 40}  # --size tiny, for the smoke test


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("calibrate", "season_tuned", "season_fixed", "inspect"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "roomtune" / "__init__.py").is_file():
        print(f"error: roomtune sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import layers
    from hostspeed import Clock, HostSpeed
    from roomtune.harness import SeasonConfig
    from spans import Tracer
    from workloads import WORKLOADS, Checks

    env = environment(np, scipy)
    env["loadavg_start"] = os.getloadavg()
    config = SeasonConfig() if args.size == "full" else replace(SeasonConfig(), **TINY)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](config, args.seed, workdir)
        with HostSpeed() as speed:
            setups = []
            while len(setups) < SETUP_PASSES and sum(p.seconds for p in setups) < SETUP_BUDGET_S:
                setups.append(speed.time(workload.setup)[1])

            clock, rounds, round_s = Clock(speed), [], []
            started = time.perf_counter()
            while not rounds or time.perf_counter() - started < args.seconds:
                outdir = workdir / f"round{len(rounds)}"
                done, piece = speed.time(lambda: workload.run_round(outdir, clock))
                rounds.append(done)
                round_s.append(piece.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = [p.seconds for p in setups]
        setup_rescaled = [speed.rescaled(p) for p in setups]

        checks = Checks()
        attempted_ops = sum(r.ops for r in rounds)
        if args.trace:
            with Tracer() as tracer:
                layers.instrument(tracer)
                start = time.perf_counter()
                traced = workload.run_round(workdir / "traced", Clock(HostSpeed()))
                traced_s = time.perf_counter() - start
            attempted_ops += traced.ops
            checks.expect(traced.outputs == rounds[0].outputs, "traced outputs differ from untraced ones")
        start = time.perf_counter()
        workload.check(rounds, checks)
        check_s = time.perf_counter() - start

        if args.trace:
            metrics = layers.per_layer(tracer, config.plant.steps_per_day, workload.quality)
            untraced_s = statistics.median(round_s)
            metrics["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
            metrics["trace.timed_s"] = (traced_s, "s")
            trace_file = OUT / f"trace_{args.workload}_seed{args.seed}.json"
            trace_file.write_text(json.dumps({"env": env, "spans": tracer.to_records()}))
        else:
            metrics = {
                "setup_s": (statistics.median(setup_rescaled), "s"),
                "ops_per_s": (clock.ops_per_s(), "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["loadavg_end"] = os.getloadavg()
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "op": workload.op,
        "ops_per_round": rounds[0].ops,
        "setup_s": setup_s,
        "setup_s_rescaled": setup_rescaled,
        "round_s": round_s,
        "item_repeats": clock.repeats,
        "reference_s": statistics.median(r for _, r in speed.readings),
        "ops_per_s_raw": clock.ops_per_s(rescaled=False),
        "check_s": check_s,
        "quality": workload.quality,
        "checks": checks.attempted,
        "failed_checks": checks.failed,
        "env": env,
    }
    print(json.dumps({"report": report}))
    for failure in checks.failed:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": not checks.failed,
        "attempted": attempted_ops + checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
