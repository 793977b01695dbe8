"""The four benchmark workloads, driven through roomtune's public API.

Each workload owns a dominant layer, so that an optimisation of one layer
shows on one workload and reads as no change on another:

- ``calibrate``: ``run_calibration``; the likelihood fit dominates and
  no surrogate is ever queried.
- ``season_tuned``: all five methods over one season against a
  calibration built in setup; the GP query path dominates.
- ``season_fixed``: ``fixed`` seasons over several seeds; the simulator
  dominates and the GP never runs.
- ``inspect``: ``roomtune safe-set`` and ``gain-schedule`` through
  ``cli.main`` on a full-season scbo state built in setup; state restore
  and queries at the full observation count dominate.

A round is the fixed unit of work the timing loop repeats. It is made
of items (one calibration, one season, one CLI command), each run
through a ``clock`` that times it on its own, so that the run can report
the median time of every item over its repeats. ``setup`` builds the
workload's inputs and runs one short warm-up pass.
"""

from __future__ import annotations

import contextlib
import io
import math
import statistics
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from roomtune import cli, harness, optimizer
from roomtune.gp import LENGTHSCALE_BOUNDS, VARIANCE_BOUNDS
from roomtune.optimizer import ALL_METHODS, METHOD_FIXED, METHOD_SCBO
from roomtune.pid import PIGains

WARM_UP_DAYS = 12  # season length of a warm-up pass
WARM_UP_CALIBRATION_DAYS = 40  # the fewest calibrate_normalization accepts
CALIBRATION_SEEDS = 2  # calibrations per calibrate round; the fit's work varies by seed
FIXED_SEEDS = 5  # fixed seasons per season_fixed round
INSPECT_DAYS = 5  # safe-set days per inspect round, spread over the season
INSPECT_OATS = 3  # safe-set outside temperatures per day
SCHEDULE_POINTS = 6  # gain-schedule rows per inspect round
BENCH_STREAM = 7  # benchmark-owned random stream, apart from roomtune's own


class Checks:
    """Tally of output checks; failures are kept for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


@dataclass
class Round:
    ops: int
    outputs: dict[str, bytes]  # artifact or command -> bytes, compared across rounds
    data: object = None


class FitTap:
    """Keeps the FitResults that ``run_calibration`` reduces to models,
    for the fitted log marginal likelihoods and bound counts."""

    def __enter__(self) -> "FitTap":
        self.results = []
        self._original = harness.fit_hyperparameters

        def tap(*args, **kwargs):
            result = self._original(*args, **kwargs)
            self.results.append(result)
            return result

        harness.fit_hyperparameters = tap
        return self

    def __exit__(self, *exc) -> None:
        harness.fit_hyperparameters = self._original


def hyperparameters_on_bound(fit) -> int:
    values = [(v, LENGTHSCALE_BOUNDS) for v in fit.kernel.lengthscales]
    values += [(fit.kernel.signal_variance, VARIANCE_BOUNDS), (fit.noise_variance, VARIANCE_BOUNDS)]
    return sum(
        any(math.isclose(math.log(v), math.log(b), abs_tol=1e-6) for b in bounds) for v, bounds in values
    )


def fit_quality(fits) -> dict:
    return {
        "fit_lml": sum(f.log_marginal_likelihood for f in fits if not f.degenerate),
        "fits": len(fits),
        "on_bound": sum(hyperparameters_on_bound(f) for f in fits),
        "degenerate": sum(f.degenerate for f in fits),
    }


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _check_same_outputs(rounds: list[Round], checks: Checks) -> None:
    for i, r in enumerate(rounds[1:], start=1):
        checks.expect(r.outputs == rounds[0].outputs, f"round {i} outputs differ from round 0")


def _check_season(config, run, path: Path, checks: Checks) -> None:
    """One finite row per configured day, and a CSV that reads back equal."""
    rows = run.results
    where = f"{run.method} seed {run.seed}"
    checks.expect([r.day for r in rows] == list(range(1, config.days + 1)), f"{where}: day rows")
    numbers = [getattr(r, f.name) for r in rows for f in fields(r)]
    checks.expect(all(math.isfinite(v) for v in numbers), f"{where}: non-finite value in a day row")
    checks.expect(harness.read_results_csv(path) == list(rows), f"{where}: CSV round trip")
    if run.final_state is not None:
        text = harness.state_path(config, run.method, run.seed).read_text()
        state = optimizer.state_from_json(text)
        checks.expect(optimizer.state_to_json(state) == text, f"{where}: state JSON round trip")


def _check_calibration(path: Path, calibration, checks: Checks) -> None:
    text = path.read_text()
    checks.expect(text == calibration.to_json(), f"{path.name}: differs from the calibration in memory")
    checks.expect(harness.load_calibration(path).to_json() == text, f"{path.name}: JSON round trip")
    norm = calibration.normalization
    finite = all(math.isfinite(v) and v > 0 for v in norm.scales + norm.thresholds)
    checks.expect(finite, f"{path.name}: non-finite or non-positive normalization")


def certify_scbo(run, checks: Checks) -> int:
    """Re-derive every scbo day's certificate from the final state; returns
    the number of days whose proposal was not the anchor fallback."""
    final = run.final_state
    domain = final.domain
    certified = 0
    for row in run.results:
        index = domain.index_of(PIGains(row.kp, row.ki))
        if row.day == 1:  # the first day plays the anchor before any data
            ok = index == domain.anchor_index and row.safe_set_size == 1
            certified += 1
        else:
            mask = optimizer.safe_set(optimizer.state_at_day(final, row.day - 1), row.oat_c, fallback=False)
            if mask.any():
                ok = bool(mask[index]) and row.safe_set_size == int(mask.sum())
                certified += 1
            else:
                ok = index == domain.anchor_index and row.safe_set_size == 1
        checks.expect(ok, f"scbo day {row.day}: gains not certified by the state at day {row.day - 1}")
    return certified


def season_quality(runs: dict) -> dict:
    report = harness.compare_report({m: [list(r.results)] for m, r in runs.items()})
    out = {f"improvement_pct.{m}": v for m, v in report.improvement_vs_fixed_pct.items()}
    if METHOD_SCBO in runs:
        rows = runs[METHOD_SCBO].results
        out["violation_frac.scbo"] = sum(r.violation for r in rows) / len(rows)
        out["safe_set_size.p50.scbo"] = statistics.median(r.safe_set_size for r in rows)
    return out


class Workload:
    name = ""
    op = ""  # what one counted operation is

    def __init__(self, config, seed: int, workdir: Path):
        self.config = config
        self.seed = seed
        self.workdir = workdir
        self.quality: dict = {}

    def _config_in(self, directory: Path):
        directory.mkdir(parents=True, exist_ok=True)
        return replace(self.config, output_dir=str(directory))

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, outdir: Path, clock) -> Round:
        """One round; every item runs as ``clock(key, ops, fn)``."""
        raise NotImplementedError

    def check(self, rounds: list[Round], checks: Checks) -> None:
        raise NotImplementedError


class Calibrate(Workload):
    name = "calibrate"
    op = "calibration day"

    @property
    def seeds(self) -> list[int]:
        return [self.seed + k for k in range(CALIBRATION_SEEDS)]

    def setup(self) -> None:
        warm = replace(self.config, calibration_days=WARM_UP_CALIBRATION_DAYS)
        harness.run_calibration(warm, self.seed)

    def run_round(self, outdir: Path, clock) -> Round:
        config = self._config_in(outdir)
        calibrations = []
        for seed in self.seeds:
            def item():
                calibration = harness.run_calibration(config, seed)
                harness.save_calibration(config, seed, calibration)
                return calibration

            with FitTap() as tap:
                calibration = clock(f"calibration {seed}", config.calibration_days, item)
            calibrations.append((seed, calibration, tap.results))
        return Round(len(calibrations) * config.calibration_days, _files(outdir), (config, calibrations))

    def check(self, rounds: list[Round], checks: Checks) -> None:
        _check_same_outputs(rounds, checks)
        config, calibrations = rounds[0].data
        for seed, calibration, fits in calibrations:
            _check_calibration(harness.calibration_path(config, seed), calibration, checks)
            checks.expect(len(fits) == 7, f"seed {seed}: {len(fits)} fits, expected 7")
            for i, fit in enumerate(fits):
                ok = fit.degenerate or math.isfinite(fit.log_marginal_likelihood)
                checks.expect(ok, f"seed {seed} fit {i}: non-finite LML")
        self.quality = fit_quality(calibrations[0][2])


class SeasonTuned(Workload):
    name = "season_tuned"
    op = "season day of one method"

    def setup(self) -> None:
        config = self._config_in(self.workdir / "setup")
        with FitTap() as tap:
            self.calibration = harness.run_calibration(config, self.seed)
        self.calibration_file = harness.save_calibration(config, self.seed, self.calibration)
        self.quality = fit_quality(tap.results)
        warm = replace(config, days=WARM_UP_DAYS)
        for method in ALL_METHODS:
            harness.run_season(warm, method, self.seed, self.calibration)

    def run_round(self, outdir: Path, clock) -> Round:
        config = self._config_in(outdir)
        runs = {}
        for method in ALL_METHODS:
            def item():
                run = harness.run_season(config, method, self.seed, self.calibration)
                harness.persist_run(config, run)
                return run

            runs[method] = clock(method, config.days, item)
        return Round(len(ALL_METHODS) * config.days, _files(outdir), (config, runs))

    def check(self, rounds: list[Round], checks: Checks) -> None:
        _check_same_outputs(rounds, checks)
        _check_calibration(self.calibration_file, self.calibration, checks)
        config, runs = rounds[0].data
        for run in runs.values():
            _check_season(config, run, harness.results_path(config, run.method, run.seed), checks)
        certified = certify_scbo(runs[METHOD_SCBO], checks)
        self.quality.update(season_quality(runs))
        self.quality["certified_frac.scbo"] = certified / config.days


class SeasonFixed(Workload):
    name = "season_fixed"
    op = "fixed season day"

    @property
    def seeds(self) -> list[int]:
        return [self.seed + k for k in range(FIXED_SEEDS)]

    def setup(self) -> None:
        harness.run_season(self.config, METHOD_FIXED, self.seed)

    def run_round(self, outdir: Path, clock) -> Round:
        config = self._config_in(outdir)
        runs = []
        for seed in self.seeds:
            def item():
                run = harness.run_season(config, METHOD_FIXED, seed)
                harness.persist_run(config, run)
                return run

            runs.append(clock(f"fixed {seed}", config.days, item))
        return Round(len(runs) * config.days, _files(outdir), (config, runs))

    def check(self, rounds: list[Round], checks: Checks) -> None:
        _check_same_outputs(rounds, checks)
        config, runs = rounds[0].data
        for run in runs:
            _check_season(config, run, harness.results_path(config, run.method, run.seed), checks)
            checks.expect(run.final_state is None, f"fixed seed {run.seed}: carries an optimizer state")


class Inspect(Workload):
    name = "inspect"
    op = "CLI command"

    def setup(self) -> None:
        config = self._config_in(self.workdir / "setup")
        with FitTap() as tap:
            calibration = harness.run_calibration(config, self.seed)
        self.quality = fit_quality(tap.results)
        run = harness.run_season(config, METHOD_SCBO, self.seed, calibration)
        harness.persist_run(config, run)
        self.quality.update(season_quality({METHOD_SCBO: run}))
        path = str(harness.state_path(config, METHOD_SCBO, self.seed))
        scaler = calibration.scaler
        rng = np.random.default_rng(np.random.SeedSequence([BENCH_STREAM, self.seed]))
        oats = [f"{v:.2f}" for v in rng.uniform(scaler.oat_min, scaler.oat_max, INSPECT_OATS)]
        days = np.linspace(1, config.days, INSPECT_DAYS).round().astype(int)
        self.commands = [
            ["safe-set", "--state", path, "--day", str(day), "--oat", oat] for day in days for oat in oats
        ]
        self.commands.append(
            ["gain-schedule", "--state", path, "--oat-min", f"{scaler.oat_min:.2f}",
             "--oat-max", f"{scaler.oat_max:.2f}", "--points", str(SCHEDULE_POINTS)]
        )
        self.state_file = path
        self._call(self.commands[0])
        self._call(self.commands[-1][:-1] + ["1"])

    @staticmethod
    def _call(argv: list[str]) -> bytes:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"roomtune {' '.join(argv)} exited with {code}")
        return buffer.getvalue().encode()

    def run_round(self, outdir: Path, clock) -> Round:
        outputs = {}
        for argv in self.commands:
            key = " ".join(argv)
            outputs[key] = clock(key, 1, lambda: self._call(argv))
        return Round(len(self.commands), outputs)

    def check(self, rounds: list[Round], checks: Checks) -> None:
        _check_same_outputs(rounds, checks)
        state = optimizer.state_from_json(Path(self.state_file).read_text())
        domain = state.domain
        for argv in self.commands:
            lines = rounds[0].outputs[" ".join(argv)].decode().splitlines()
            if argv[0] == "safe-set":
                day, oat = int(argv[4]), float(argv[6])
                mask = optimizer.safe_set(optimizer.state_at_day(state, day), oat)
                flags = [int(line.rsplit(",", 1)[1]) for line in lines[2:]]
                checks.expect(len(flags) == domain.size, f"safe-set day {day}: {len(flags)} rows")
                checks.expect(flags == mask.astype(int).tolist(), f"safe-set day {day} oat {oat}: mask")
                checks.expect(lines[0].endswith(f"safe {int(mask.sum())} of {domain.size}"),
                              f"safe-set day {day} oat {oat}: header count")
            else:
                rows = [line.split(",") for line in lines[1:]]
                checks.expect(len(rows) == SCHEDULE_POINTS, f"gain-schedule: {len(rows)} rows")
                for oat, kp, ki in rows:
                    index = domain.index_of(PIGains(float(kp), float(ki)))
                    ok = bool(optimizer.safe_set(state, float(oat))[index])
                    checks.expect(ok, f"gain-schedule oat {oat}: choice outside the certified set")


WORKLOADS = {w.name: w for w in (Calibrate, SeasonTuned, SeasonFixed, Inspect)}
