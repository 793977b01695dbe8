"""Command-line front end for calibration, season runs, and reporting."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .blas import single_blas_thread
from .harness import (
    SeasonConfig,
    build_optimizer_state,
    calibration_path,
    collect_results,
    compare_report,
    load_calibration,
    load_config,
    persist_run,
    run_calibration,
    run_season,
    save_calibration,
    write_atomically,
)
from .optimizer import (
    ALL_METHODS,
    METHOD_FIXED,
    gain_schedule,
    safe_set,
    state_at_day,  # noqa: F401 -- unused here, but perfbench's tracer wraps it by this name
    state_from_json,
)


def _cmd_calibrate(args) -> int:
    config = load_config(args.config)
    seeds = [args.seed] if args.seed is not None else list(range(config.seeds))
    for seed in seeds:
        calibration = run_calibration(config, seed)
        path = save_calibration(config, seed, calibration)
        print(f"seed {seed}: calibration written to {path}")
    return 0


def _cmd_run(args) -> int:
    config = load_config(args.config)
    cal_path = Path(args.calibration) if args.calibration else calibration_path(config, args.seed)
    if cal_path.exists():
        calibration = load_calibration(cal_path)
    elif args.method == METHOD_FIXED:
        calibration = None  # fixed gains need no calibration; costs stay raw
    else:
        print(f"error: calibration file {cal_path} not found; run `calibrate` first", file=sys.stderr)
        return 2
    run = run_season(config, args.method, args.seed, calibration)
    path = persist_run(config, run)
    mean_cost = float(np.mean([r.j_total for r in run.results]))
    violations = sum(r.violation for r in run.results)
    print(
        f"{args.method} seed {args.seed}: {len(run.results)} days, "
        f"mean cost {mean_cost:.4f}, {violations} violation day(s) -> {path}"
    )
    return 0


def _cmd_report(args) -> int:
    grouped = collect_results(args.dir)
    report = compare_report(grouped)
    out = Path(args.dir) / "summary.json"
    text = report.to_json()
    write_atomically(out, lambda fh: fh.write(text))
    print(f"{'method':<8} {'final median cum. avg':>22} {'vs fixed':>10}")
    for method in sorted(report.final_median, key=report.final_median.get):
        final = report.final_median[method]
        if report.improvement_vs_fixed_pct:
            delta = f"{report.improvement_vs_fixed_pct[method]:+.1f}%"
        else:
            delta = "n/a"
        print(f"{method:<8} {final:>22.4f} {delta:>10}")
    print(f"summary written to {out}")
    return 0


def _cmd_gain_schedule(args) -> int:
    state = state_from_json(Path(args.state).read_text())
    oats = np.linspace(args.oat_min, args.oat_max, args.points)
    print("oat_c,kp,ki")
    for oat, gains in gain_schedule(state, oats):
        print(f"{oat},{gains.kp},{gains.ki}")
    return 0


def _cmd_safe_set(args) -> int:
    state = state_from_json(Path(args.state).read_text(), day=args.day)
    if not state.constraint_models:
        print(f"error: a {state.method} state has no safe set; only scbo certifies gains", file=sys.stderr)
        return 2
    mask = safe_set(state, args.oat)
    print(f"# day {args.day} oat {args.oat} safe {int(mask.sum())} of {mask.size}")
    print("kp,ki,safe")
    # Points are kp-major, so the rows pair the axes' values in that order.
    # Each value is formatted once: Python's float str, like numpy's, is
    # the shortest form that reads back to the same float.
    kps = [str(v) for v in state.domain.kp_values.tolist()]
    kis = [str(v) for v in state.domain.ki_values.tolist()]
    labels = [f"{kp},{ki}," for kp in kps for ki in kis]
    sys.stdout.write("".join(f"{label}{flag:d}\n" for label, flag in zip(labels, mask.tolist())))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roomtune",
        description="Tune room-heating PI gains over a simulated season with safe contextual Bayesian optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="run the perturbed-gain calibration season and fit GP hyperparameters")
    p.add_argument("--config", required=True, help="season config JSON")
    p.add_argument("--seed", type=int, default=None, help="single seed (default: all configured seeds)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("run", help="run one method over one seeded season")
    p.add_argument("--config", required=True)
    p.add_argument("--method", required=True, choices=ALL_METHODS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--calibration", default=None, help="calibration JSON (default: output dir of the config)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="aggregate results CSVs into a cross-seed summary")
    p.add_argument("--dir", required=True, help="directory holding <method>_seed<N>.csv files")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("gain-schedule", help="print context-to-gains lookup table from a trained state")
    p.add_argument("--state", required=True, help="optimizer state JSON")
    p.add_argument("--oat-min", type=float, default=-10.0)
    p.add_argument("--oat-max", type=float, default=15.0)
    p.add_argument("--points", type=int, default=26)
    p.set_defaults(func=_cmd_gain_schedule)

    p = sub.add_parser("safe-set", help="print safe-set membership over the gain grid")
    p.add_argument("--state", required=True)
    p.add_argument("--day", type=int, required=True, help="0 = before any data")
    p.add_argument("--oat", type=float, required=True)
    p.set_defaults(func=_cmd_safe_set)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with single_blas_thread():
            return args.func(args)
    except BrokenPipeError:
        # downstream pipe (head, less) closed early; not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
