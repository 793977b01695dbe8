"""Experiment driver: calibration, seeded season runs, persistence.

One seed owns one synthetic weather season. The calibration pass replays
that season under randomly perturbed anchor gains to produce the cost
normalization, the safety thresholds, the context scaling, and the
maximum-likelihood kernel hyperparameters; the evaluation pass then runs
a method day by day against the same weather. Plant noise is keyed by
(seed, day) only, never by method, so every method faces identical
disturbance realizations.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import re
import secrets
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .blas import single_blas_thread
from .costs import (
    DEFAULT_WEIGHTS,
    MIN_CALIBRATION_EPISODES,
    CalibrationError,
    CostNormalization,
    EpisodeTrace,
    RawCosts,
    calibrate_normalization,
    check_weights,
    compute_raw_costs,
)
from .gp import GPModel, KernelSpec, StartPool, fit_hyperparameters, fit_starts, model_from_dict, model_to_dict
from .optimizer import (
    ALL_METHODS,
    DEFAULT_ANCHOR,
    DEFAULT_BETA,
    DEFAULT_EPSILON,
    DEFAULT_GRID_SIZE,
    DEFAULT_KI_BOUNDS,
    DEFAULT_KP_BOUNDS,
    GP_METHODS,
    METHOD_BO,
    METHOD_FIXED,
    METHOD_SCBO,
    ContextScaler,
    GainDomain,
    OptimizerState,
    QueryWorkspace,
    check_confidence,
    contextual_kernel_template,
    propose,
    state_to_json,
    surrogate_data,
    update,
)
from .pid import PIGains
from .plant import (
    DEFAULT_COMPENSATION,
    DaySchedule,
    PlantParams,
    RoomState,
    WeatherCompensation,
    WeatherConfig,
    WeatherDay,
    check_field_kinds,
    load_weather_csv,
    simulate_day,
    synth_weather,
)

logger = logging.getLogger(__name__)

# Independent random streams, combined as SeedSequence([master, seed, stream, ...]).
STREAM_WEATHER = 0
STREAM_CAL_NOISE = 1
STREAM_CAL_GAINS = 2
STREAM_PLANT = 3
STREAM_FIT = 4

# Raw-cost passthrough for calibration-free fixed-PI runs: unit scales,
# thresholds that never flag a finite cost.
IDENTITY_NORMALIZATION = CostNormalization((1.0, 1.0, 1.0, 1.0), (np.finfo(float).max,) * 3, DEFAULT_WEIGHTS)


@dataclass(frozen=True)
class SeasonConfig:
    plant: PlantParams = PlantParams()
    compensation: WeatherCompensation = DEFAULT_COMPENSATION
    schedule: DaySchedule = DaySchedule()
    weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS
    calibration_days: int = 145
    perturbation: float = 0.25
    beta: float = DEFAULT_BETA
    epsilon: float = DEFAULT_EPSILON
    kp_bounds: tuple[float, float] = DEFAULT_KP_BOUNDS
    ki_bounds: tuple[float, float] = DEFAULT_KI_BOUNDS
    grid_size: int = DEFAULT_GRID_SIZE
    initial_gains: tuple[float, float] = DEFAULT_ANCHOR
    days: int = 145
    seeds: int = 5
    master_seed: int = 20161021
    output_dir: str = "results"
    weather: WeatherConfig = WeatherConfig()  # synthetic generator settings
    weather_csv: str | None = None  # measured weather; synthetic when None

    def __post_init__(self):
        check_field_kinds(self)
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.calibration_days < MIN_CALIBRATION_EPISODES:
            raise CalibrationError(
                f"calibration_days must be >= {MIN_CALIBRATION_EPISODES}, got {self.calibration_days}"
            )
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        check_weights(self.weights)
        if not 0.0 < self.perturbation < 1.0:
            raise ValueError("perturbation must lie in (0, 1)")
        self.schedule.morning_step_index  # rejects a schedule with no comfort sample
        # the tuner's own rules, checked before a calibration is simulated
        self.build_domain()
        check_confidence(self.beta, self.epsilon)

    @property
    def anchor_gains(self) -> PIGains:
        return PIGains(*self.initial_gains)

    def build_domain(self) -> GainDomain:
        return GainDomain.build(self.kp_bounds, self.ki_bounds, self.grid_size, self.initial_gains)


# Config sections whose keys set the SeasonConfig fields of the same name;
# "season" also holds the "weather" block.
_CONFIG_SECTIONS = {
    "costs": ("weights", "calibration_days", "perturbation"),
    "optimizer": ("beta", "epsilon", "kp_bounds", "ki_bounds", "grid_size", "initial_gains"),
    "season": ("days", "seeds", "master_seed", "output_dir"),
}


def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _check_keys(doc: dict, allowed, where: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {where} config keys: {unknown}")


def config_from_dict(doc: dict) -> SeasonConfig:
    """Assemble a config from the sectioned JSON layout; missing keys
    fall back to the SeasonConfig defaults, unknown keys are rejected."""
    _check_keys(doc, ("plant", "compensation", "schedule", *_CONFIG_SECTIONS), "top-level")
    overrides = {}
    typed = (("plant", PlantParams), ("compensation", WeatherCompensation), ("schedule", DaySchedule))
    for section, cls in typed:
        if section in doc:
            _check_keys(doc[section], _field_names(cls), section)
            overrides[section] = cls(**doc[section])
    for section, names in _CONFIG_SECTIONS.items():
        section_doc = doc.get(section, {})
        _check_keys(section_doc, names + (("weather",) if section == "season" else ()), section)
        overrides.update(
            (k, tuple(v) if isinstance(v, list) else v) for k, v in section_doc.items() if k in names
        )
    weather_doc = dict(doc.get("season", {}).get("weather", {}))
    source = weather_doc.pop("source", "synthetic")
    if source not in ("synthetic", "csv"):
        raise ValueError("weather source must be 'synthetic' or 'csv'")
    if source == "csv":
        _check_keys(weather_doc, ("path",), "weather")
        if not weather_doc.get("path"):
            raise ValueError("csv weather source needs a path")
        overrides["weather_csv"] = weather_doc["path"]
    else:
        _check_keys(weather_doc, _field_names(WeatherConfig), "weather")
        overrides["weather"] = WeatherConfig(**weather_doc)
    return SeasonConfig(**overrides)


def load_config(path) -> SeasonConfig:
    with open(path) as fh:
        return config_from_dict(json.load(fh))


def season_weather(config: SeasonConfig, seed: int) -> list[WeatherDay]:
    """Weather for the full horizon (max of calibration and evaluation
    lengths) so both phases of one seed see identical days."""
    horizon = max(config.days, config.calibration_days)
    if config.weather_csv is not None:
        days = load_weather_csv(config.weather_csv)
        if len(days) < horizon:
            raise ValueError(f"weather CSV covers {len(days)} days, need {horizon}")
        return days[:horizon]
    rng = np.random.default_rng(_seed_sequence(config, seed, STREAM_WEATHER))
    return synth_weather(config.weather, horizon, rng)


def _seed_sequence(config: SeasonConfig, seed: int, *keys: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([config.master_seed, seed, *keys])


class _ClosedLoop:
    """One seed's room under PI control over the first ``days`` weather
    days, played a day at a time; the calibration and every season method
    play their days through it.

    The room starts at the night setpoint and settles on a discarded
    burn-in day, so that day 1 is not distorted by a cold controller: the
    first weather day at the anchor gains, on noise key 0, from a
    discharged integrator. Each day then starts from the room and the
    integral action the day before closed with. Day d's plant noise is
    keyed by (seed, stream, d) only, never by method, so every method of
    one stream faces identical disturbance realizations.
    """

    def __init__(self, config: SeasonConfig, seed: int, stream: int, days: int):
        self._config = config
        self._seed = seed
        self._stream = stream
        weather = season_weather(config, seed)[:days]
        self._days = (weather[0], *weather)  # day 0, the burn-in, replays the first weather day
        morning = config.schedule.morning_step_index
        self.morning_oats = [float(day.oat_profile[morning]) for day in weather]  # each day's context
        night = config.schedule.night_setpoint
        self._room = RoomState(night, night)
        self._carry = 0.0
        self.play(0, config.anchor_gains)

    def play(self, day: int, gains: PIGains) -> EpisodeTrace:
        """Simulate day ``day`` (1-based) from where the day before left
        the room and the integrator; returns its trace."""
        config = self._config
        trace, self._room, self._carry = simulate_day(
            config.plant,
            config.compensation,
            self._days[day],
            gains,
            config.schedule,
            self._room,
            np.random.default_rng(_seed_sequence(config, self._seed, self._stream, day)),
            initial_integral_action=self._carry,
        )
        return trace


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Calibration:
    """Per-seed artifact shared by all GP methods of that seed."""

    normalization: CostNormalization
    scaler: ContextScaler
    contextual_cost_models: tuple[GPModel, ...]  # 4, basis mean enabled
    contextual_constraint_models: tuple[GPModel, ...]  # 3, zero mean

    def to_json(self) -> str:
        doc = {
            "normalization": self.normalization.to_dict(),
            "context": self.scaler.to_dict(),
            "models": {
                "cost_contextual": [model_to_dict(m) for m in self.contextual_cost_models],
                "constraint_contextual": [model_to_dict(m) for m in self.contextual_constraint_models],
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Calibration":
        doc = json.loads(text)
        return cls(
            normalization=CostNormalization.from_dict(doc["normalization"]),
            scaler=ContextScaler.from_dict(doc["context"]),
            contextual_cost_models=tuple(model_from_dict(d) for d in doc["models"]["cost_contextual"]),
            contextual_constraint_models=tuple(
                model_from_dict(d) for d in doc["models"]["constraint_contextual"]
            ),
        )


# The calibration's seven fits, named in the column order of ``surrogate_data``'s targets.
_FIT_NAMES = (*(f"cost_j{i}" for i in range(1, 5)), *(f"constraint_j{i}" for i in range(1, 4)))


@single_blas_thread()
def run_calibration(config: SeasonConfig, seed: int) -> Calibration:
    """Perturbed-anchor season: simulate, derive normalization, fit all
    kernel hyperparameters once. The perturbed gains double as the
    random safe inputs for maximum-likelihood fitting. BLAS runs on one
    thread, so the fits do not depend on the host's core count. The
    season is simulated first; then every fit's random starts are drawn
    and queued at once on one ``StartPool``, which splits them between
    this process and a worker per further CPU, and the seven fits, each
    bit-identical to one without the pool, collect them in turn. One
    DEBUG line after the fits gives the seed, the pool's process count
    and the wall seconds in the closed-loop days and in the fits."""
    loop = _ClosedLoop(config, seed, STREAM_CAL_NOISE, config.calibration_days)
    rng_gains = np.random.default_rng(_seed_sequence(config, seed, STREAM_CAL_GAINS))
    anchor = config.anchor_gains
    raws: list[RawCosts] = []
    gain_rows = []
    day_s = 0.0
    for day in range(1, config.calibration_days + 1):
        factors = 1.0 + rng_gains.uniform(-config.perturbation, config.perturbation, 2)
        gains = PIGains(anchor.kp * factors[0], anchor.ki * factors[1])
        start = time.perf_counter()
        trace = loop.play(day, gains)
        day_s += time.perf_counter() - start
        raws.append(compute_raw_costs(trace))
        gain_rows.append([gains.kp, gains.ki])

    oats = loop.morning_oats
    normalization = calibrate_normalization(raws, config.weights)
    scaler = ContextScaler(min(oats), max(oats))
    x, y = surrogate_data(
        config.build_domain().normalize(np.asarray(gain_rows)),
        [scaler.normalize(v) for v in oats],
        [normalization.normalize(r).as_array() for r in raws],
        normalization.thresholds,
    )
    # (name, targets, basis flag, start seed) per fit; the four cost
    # surrogates fit a basis mean, the three constraint ones do not
    fits = [
        (name, y[:, i], i < 4, int(_seed_sequence(config, seed, STREAM_FIT, i).generate_state(1)[0]))
        for i, name in enumerate(_FIT_NAMES)
    ]
    template = contextual_kernel_template()
    start = time.perf_counter()
    with StartPool() as pool:
        pool.queue([fit_starts(template, x, targets, with_basis=basis, seed=s) for _, targets, basis, s in fits])
        models = tuple(_fit_surrogate(pool, template, x, *fit) for fit in fits)
    logger.debug(
        "calibration seed %d: %d process(es), %.3f s in the closed-loop days, %.3f s in the fits",
        seed,
        pool.size,
        day_s,
        time.perf_counter() - start,
    )
    return Calibration(normalization, scaler, models[:4], models[4:])


def _fit_surrogate(
    pool: StartPool, template: KernelSpec, x: np.ndarray, name: str, y: np.ndarray, with_basis: bool, seed: int
) -> GPModel:
    """One hyperparameter fit of the calibration, its random starts drawn
    from ``seed`` and shared with ``pool``, logged at DEBUG with its
    fitted likelihood, how many hyperparameters sit on a bound, its
    likelihood evaluations over every process, how many of its starts
    did not converge, and its wall time."""
    start = time.perf_counter()
    fit = fit_hyperparameters(template, x, y, with_basis=with_basis, seed=seed, pool=pool)
    logger.debug(
        "fit %s: lml %.6f, degenerate %s, %d hyperparameter(s) on a bound, "
        "%d likelihood evaluation(s), %d start(s) not converged, %.3f s",
        name,
        fit.log_marginal_likelihood,
        fit.degenerate,
        fit.on_bound,
        fit.evaluations,
        fit.unconverged,
        time.perf_counter() - start,
    )
    return fit.build()


def calibration_path(config: SeasonConfig, seed: int) -> Path:
    return Path(config.output_dir) / f"calibration_seed{seed}.json"


def write_atomically(path, text: str) -> None:
    """Write ``text`` as it is (no newline translation) into a temporary
    file in the same directory, then rename that over ``path``: a reader
    sees the old file or the new one, never part of one. If the write
    fails, the old file stays and the temporary file is removed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, "x", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_calibration(config: SeasonConfig, seed: int, calibration: Calibration) -> Path:
    path = calibration_path(config, seed)
    write_atomically(path, calibration.to_json())
    return path


def load_calibration(path) -> Calibration:
    return Calibration.from_json(Path(path).read_text())


def build_optimizer_state(config: SeasonConfig, calibration: Calibration, method: str) -> OptimizerState:
    """Initial state of a GP method, on the calibration's contextual fits.
    ``bo`` gets no scaler, which holds its context input fixed."""
    if method not in GP_METHODS:
        raise ValueError(f"no optimizer state for method {method!r}")
    return OptimizerState(
        method=method,
        domain=config.build_domain(),
        scaler=None if method == METHOD_BO else calibration.scaler,
        weights=calibration.normalization.weights,
        thresholds=calibration.normalization.thresholds,
        cost_models=calibration.contextual_cost_models,
        constraint_models=calibration.contextual_constraint_models if method == METHOD_SCBO else (),
        beta=config.beta,
        epsilon=config.epsilon,
    )


# ---------------------------------------------------------------------------
# Season runs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DailyResult:
    seed: int
    day: int
    oat_c: float
    kp: float
    ki: float
    j1_raw: float
    j2_raw: float
    j3_raw: float
    j4_raw: float
    j1: float
    j2: float
    j3: float
    j4: float
    j_total: float
    safe_set_size: int
    violation: bool


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _parse_flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"flag must be 0 or 1, got {text!r}")
    return text == "1"


# Results-CSV columns, in DailyResult field order; bools are stored as 0/1
# and floats are finite; the reader rejects anything else.
RESULTS_FIELDS = _field_names(DailyResult)
_RESULTS_PARSERS = tuple(
    {"int": int, "float": _parse_finite, "bool": _parse_flag}[f.type] for f in fields(DailyResult)
)


@dataclass(frozen=True)
class SeasonRun:
    method: str
    seed: int
    results: tuple[DailyResult, ...]
    final_state: OptimizerState | None


@single_blas_thread()
def run_season(
    config: SeasonConfig,
    method: str,
    seed: int,
    calibration: Calibration | None = None,
) -> SeasonRun:
    """One method over one seeded season, one episode per day.

    Gains recorded per row are the ones the day ran on. Simulator divergence
    propagates: a bad day aborts the run rather than being skipped.
    Each GP day's proposal (gain index, safe-set size, whether it fell
    back to the anchor) is logged at DEBUG, and so are the season's wall
    seconds in ``propose``, in ``update`` and in the closed-loop days.
    The proposals share one ``QueryWorkspace``. BLAS runs on one thread.
    """
    if method not in ALL_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if calibration is None and method != METHOD_FIXED:
        raise ValueError(f"{method} requires a calibration artifact")
    normalization = calibration.normalization if calibration else IDENTITY_NORMALIZATION
    loop = _ClosedLoop(config, seed, STREAM_PLANT, config.days)
    opt_state = build_optimizer_state(config, calibration, method) if method in GP_METHODS else None
    workspace = QueryWorkspace()
    gains, safe_size = config.anchor_gains, 1
    rows = []
    propose_s = update_s = day_s = 0.0
    for day, oat in enumerate(loop.morning_oats, start=1):
        if opt_state is not None:
            start = time.perf_counter()
            proposal = propose(opt_state, oat, workspace=workspace)
            propose_s += time.perf_counter() - start
            logger.debug(
                "%s day %d: gain index %d, safe set %d, fallback %s",
                method,
                day,
                proposal.gain_index,
                proposal.safe_set_size,
                proposal.used_fallback,
            )
            gains, safe_size = proposal.gains, proposal.safe_set_size
        start = time.perf_counter()
        trace = loop.play(day, gains)
        day_s += time.perf_counter() - start
        raw = compute_raw_costs(trace)
        normed = normalization.normalize(raw)
        rows.append(
            DailyResult(
                seed=seed,
                day=day,
                oat_c=oat,
                kp=gains.kp,
                ki=gains.ki,
                j1_raw=raw.j1_rise_s,
                j2_raw=raw.j2_overshoot_c,
                j3_raw=raw.j3_du_l2,
                j4_raw=raw.j4_u_l2,
                j1=normed.j1,
                j2=normed.j2,
                j3=normed.j3,
                j4=normed.j4,
                j_total=normed.total,
                safe_set_size=safe_size,
                violation=normalization.is_violation(normed),
            )
        )
        if opt_state is not None:
            start = time.perf_counter()
            opt_state = update(opt_state, gains, oat, normed, day=day)
            update_s += time.perf_counter() - start
    logger.debug(
        "%s seed %d: %d days, %.3f s in propose, %.3f s in update, %.3f s in the closed-loop days",
        method,
        seed,
        len(rows),
        propose_s,
        update_s,
        day_s,
    )
    return SeasonRun(method, seed, tuple(rows), opt_state)


def results_path(config: SeasonConfig, method: str, seed: int) -> Path:
    return Path(config.output_dir) / f"{method}_seed{seed}.csv"


def state_path(config: SeasonConfig, method: str, seed: int) -> Path:
    return Path(config.output_dir) / f"{method}_seed{seed}_state.json"


def write_results_csv(path, results) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(RESULTS_FIELDS)
    for r in results:
        values = (getattr(r, name) for name in RESULTS_FIELDS)
        writer.writerow(int(v) if isinstance(v, bool) else v for v in values)
    write_atomically(path, buffer.getvalue())


def read_results_csv(path) -> list[DailyResult]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != RESULTS_FIELDS:
            raise ValueError(f"unexpected results header in {path}")
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(RESULTS_FIELDS):
                raise ValueError(f"{where}: {len(row)} fields, header has {len(RESULTS_FIELDS)}")
            try:
                out.append(DailyResult(*(parse(text) for parse, text in zip(_RESULTS_PARSERS, row))))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return out


def persist_run(config: SeasonConfig, run: SeasonRun) -> Path:
    path = results_path(config, run.method, run.seed)
    write_results_csv(path, run.results)
    if run.final_state is not None:
        write_atomically(state_path(config, run.method, run.seed), state_to_json(run.final_state))
    return path


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeasonReport:
    days: int
    cumulative: dict  # method -> {"median"|"min"|"max": list per day}
    final_median: dict  # method -> float
    improvement_vs_fixed_pct: dict  # method -> float, present when fixed ran

    def to_json(self) -> str:
        doc = {
            "days": self.days,
            "cumulative_average": self.cumulative,
            "final_median_cumulative_average": self.final_median,
            "improvement_vs_fixed_pct": self.improvement_vs_fixed_pct,
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def compare_report(results_by_method: dict[str, list[list[DailyResult]]]) -> SeasonReport:
    """Aggregate per-seed runs into the cross-seed cumulative-average
    statistics and the end-of-season improvement over the fixed gains."""
    if not results_by_method:
        raise ValueError("no results to report")
    day_counts = {
        len(rows) for seed_runs in results_by_method.values() for rows in seed_runs
    }
    if len(day_counts) != 1:
        raise ValueError(f"mismatched day counts across runs: {sorted(day_counts)}")
    days = day_counts.pop()
    if days < 1:
        raise ValueError("runs are empty")
    cumulative = {}
    final_median = {}
    for method, seed_runs in results_by_method.items():
        if not seed_runs:
            raise ValueError(f"method {method!r} has no seed runs")
        for rows in seed_runs:
            if sorted(r.day for r in rows) != list(range(1, days + 1)):
                raise ValueError(f"a {method} run of seed {rows[0].seed} does not hold days 1..{days} once each")
        # each seed's prefix means of the daily totals, ordered by day
        totals = np.array([[r.j_total for r in sorted(rows, key=lambda r: r.day)] for rows in seed_runs])
        stacked = np.cumsum(totals, axis=1) / np.arange(1, days + 1)
        cumulative[method] = {
            "median": np.median(stacked, axis=0).tolist(),
            "min": stacked.min(axis=0).tolist(),
            "max": stacked.max(axis=0).tolist(),
        }
        final_median[method] = float(np.median(stacked[:, -1]))
    improvements = {}
    if METHOD_FIXED in final_median:
        base = final_median[METHOD_FIXED]
        improvements = {
            method: float(100.0 * (base - value) / base) for method, value in final_median.items()
        }
    return SeasonReport(days, cumulative, final_median, improvements)


_RESULT_FILE = re.compile(rf"^({'|'.join(ALL_METHODS)})_seed(\d+)\.csv$")


def collect_results(directory) -> dict[str, list[list[DailyResult]]]:
    """Load every results CSV in a directory, grouped by method."""
    grouped: dict[str, list[list[DailyResult]]] = {}
    for path in sorted(Path(directory).iterdir()):
        m = _RESULT_FILE.match(path.name)
        if m:
            grouped.setdefault(m.group(1), []).append(read_results_csv(path))
    if not grouped:
        raise ValueError("no results CSVs found")
    return grouped
