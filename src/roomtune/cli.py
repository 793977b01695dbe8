"""Command-line front end for calibration, season runs, and reporting."""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .blas import single_blas_thread
from .harness import (
    calibration_path,
    collect_results,
    compare_report,
    load_calibration,
    load_config,
    persist_run,
    run_calibration,
    run_season,
    save_calibration,
    season_weather,
    write_atomically,
)
from .optimizer import (
    ALL_METHODS,
    gain_schedule,
    safe_set,
    state_at_day,
    state_from_json,
)


class _InputError(Exception):
    """An input file that cannot be read as what the command needs."""


def _read(what: str, load, path):
    """``load(path)``, with a file that is missing, unreadable, not JSON,
    short of a field or holding a refused value raised as an
    :class:`_InputError` that names it."""
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        detail = f"no {exc} field" if isinstance(exc, KeyError) else getattr(exc, "strerror", None) or exc
        raise _InputError(f"{what} {path}: {detail}") from None


def _read_config(path):
    """The season config at ``path``, and the weather CSV it names, if
    any, read and checked to cover the season, so that a bad one is
    refused before a day is simulated or a file written."""
    config = _read("config", load_config, path)
    if config.weather_csv is not None:
        _read("weather CSV", lambda _: season_weather(config, 0), config.weather_csv)
    return config


def _cmd_calibrate(args) -> int:
    config = _read_config(args.config)
    seeds = [args.seed] if args.seed is not None else list(range(config.seeds))
    for seed in seeds:
        calibration = run_calibration(config, seed)
        path = save_calibration(config, seed, calibration)
        print(f"seed {seed}: calibration written to {path}")
    return 0


def _cmd_run(args) -> int:
    config = _read_config(args.config)
    cal_path = Path(args.calibration) if args.calibration else calibration_path(config, args.seed)
    if not cal_path.exists():
        # every method needs one: without it a fixed run's costs stay raw
        # and a report would compare them with normalized ones
        print(f"error: calibration file {cal_path} not found; run `calibrate` first", file=sys.stderr)
        return 2
    run = run_season(config, args.method, args.seed, _read("calibration", load_calibration, cal_path))
    path = persist_run(config, run)
    mean_cost = float(np.mean([r.j_total for r in run.results]))
    violations = sum(r.violation for r in run.results)
    print(
        f"{args.method} seed {args.seed}: {len(run.results)} days, "
        f"mean cost {mean_cost:.4f}, {violations} violation day(s) -> {path}"
    )
    return 0


def _cmd_report(args) -> int:
    results = _read("results directory", collect_results, args.dir)
    try:
        report = compare_report(results)
    except ValueError as exc:  # runs of different lengths; any other fault stays a traceback
        raise _InputError(f"results directory {args.dir}: {exc}") from None
    out = Path(args.dir) / "summary.json"
    write_atomically(out, report.to_json())
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
    state = _read("state", lambda p: state_from_json(Path(p).read_text()), args.state)
    oats = np.linspace(args.oat_min, args.oat_max, args.points)
    print("oat_c,kp,ki")
    for oat, gains in gain_schedule(state, oats):
        print(f"{oat},{gains.kp},{gains.ki}")
    return 0


def _cmd_safe_set(args) -> int:
    state = state_at_day(_read("state", lambda p: state_from_json(Path(p).read_text()), args.state), args.day)
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


def _checked(convert, ok, wanted: str):
    """An argparse type: ``convert(text)`` where ``ok`` holds of it; any
    other text is refused as not what was ``wanted``."""

    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")

    return parse


_finite_float = _checked(float, math.isfinite, "a finite number")  # an outside temperature
_point_count = _checked(int, lambda n: n >= 1, "an integer >= 1")
_non_negative = _checked(int, lambda n: n >= 0, "an integer >= 0")  # a seed or a day


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roomtune",
        description="Tune room-heating PI gains over a simulated season with safe contextual Bayesian optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="run the perturbed-gain calibration season and fit GP hyperparameters")
    p.add_argument("--config", required=True, help="season config JSON")
    p.add_argument("--seed", type=_non_negative, default=None, help="single seed (default: all configured seeds)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("run", help="run one method over one seeded season")
    p.add_argument("--config", required=True)
    p.add_argument("--method", required=True, choices=ALL_METHODS)
    p.add_argument("--seed", type=_non_negative, required=True)
    p.add_argument("--calibration", default=None, help="calibration JSON (default: output dir of the config)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="aggregate results CSVs into a cross-seed summary")
    p.add_argument("--dir", required=True, help="directory holding <method>_seed<N>.csv files")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("gain-schedule", help="print context-to-gains lookup table from a trained state")
    p.add_argument("--state", required=True, help="optimizer state JSON")
    p.add_argument("--oat-min", type=_finite_float, default=-10.0)
    p.add_argument("--oat-max", type=_finite_float, default=15.0)
    p.add_argument("--points", type=_point_count, default=26)
    p.set_defaults(func=_cmd_gain_schedule)

    p = sub.add_parser("safe-set", help="print safe-set membership over the gain grid")
    p.add_argument("--state", required=True)
    p.add_argument("--day", type=_non_negative, required=True, help="0 = before any data")
    p.add_argument("--oat", type=_finite_float, required=True)
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
    except _InputError as exc:  # a bad input is refused before any work or write
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
