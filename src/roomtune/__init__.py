"""Safe contextual Bayesian tuning of room-heating PI gains on a
simulated thermal plant.

The package root exports the library entry points; every other name
lives in its submodule (``roomtune.gp``, ``roomtune.optimizer``, ...)."""

from .harness import SeasonConfig, compare_report, run_calibration, run_season

__all__ = ["SeasonConfig", "compare_report", "run_calibration", "run_season"]
