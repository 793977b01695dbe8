"""Safe contextual Bayesian tuning of room-heating PI gains on a
simulated thermal plant."""

from .costs import (
    CostNormalization,
    EpisodeTrace,
    NormalizedCosts,
    RawCosts,
    calibrate_normalization,
    compute_raw_costs,
)
from .gp import GPModel, KernelSpec, fit_hyperparameters
from .harness import (
    Calibration,
    DailyResult,
    SeasonConfig,
    SeasonReport,
    compare_report,
    run_calibration,
    run_season,
)
from .optimizer import (
    ContextScaler,
    GainDomain,
    OptimizerState,
    acquire,
    gain_schedule,
    propose,
    safe_set,
    state_at_day,
    state_from_json,
    state_to_json,
    update,
)
from .pid import PIGains
from .plant import (
    DaySchedule,
    PlantParams,
    RoomState,
    WeatherCompensation,
    WeatherDay,
    simulate_day,
    synth_weather,
)

__all__ = [
    "Calibration",
    "ContextScaler",
    "CostNormalization",
    "DailyResult",
    "DaySchedule",
    "EpisodeTrace",
    "GPModel",
    "GainDomain",
    "KernelSpec",
    "NormalizedCosts",
    "OptimizerState",
    "PIGains",
    "PlantParams",
    "RawCosts",
    "RoomState",
    "SeasonConfig",
    "SeasonReport",
    "WeatherCompensation",
    "WeatherDay",
    "acquire",
    "calibrate_normalization",
    "compare_report",
    "compute_raw_costs",
    "fit_hyperparameters",
    "gain_schedule",
    "propose",
    "run_calibration",
    "run_season",
    "safe_set",
    "simulate_day",
    "state_at_day",
    "state_from_json",
    "state_to_json",
    "synth_weather",
    "update",
]
