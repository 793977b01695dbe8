import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from roomtune import blas
from roomtune.blas import single_blas_thread

SRC = str(Path(__file__).resolve().parents[1] / "src")

# A short season of every method, calibration included, into argv[1].
SEASON_SCRIPT = """
import sys
from roomtune.harness import SeasonConfig, persist_run, run_calibration, run_season, save_calibration
from roomtune.optimizer import ALL_METHODS

config = SeasonConfig(days=8, calibration_days=40, seeds=1, output_dir=sys.argv[1])
calibration = run_calibration(config, 0)
save_calibration(config, 0, calibration)
for method in ALL_METHODS:
    persist_run(config, run_season(config, method, 0, calibration))
"""


def thread_counts():
    return [getter() for _, getter in blas._openblas_pools()]


def test_single_blas_thread_caps_and_restores_every_pool():
    before = thread_counts()
    with single_blas_thread():
        assert thread_counts() == [1] * len(before)
    assert thread_counts() == before
    with pytest.raises(RuntimeError):
        with single_blas_thread():
            raise RuntimeError("body failed")
    assert thread_counts() == before


def test_no_pool_found_logs_one_debug_line(monkeypatch, caplog):
    monkeypatch.setattr(blas, "_openblas_pools", lambda: [])
    with caplog.at_level(logging.DEBUG, logger="roomtune.blas"):
        with single_blas_thread():
            ran = True
    assert ran
    assert [(r.name, r.levelno) for r in caplog.records] == [("roomtune.blas", logging.DEBUG)]


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    """Calibration, results CSVs and state JSON of all four methods have
    the same bytes with OPENBLAS_NUM_THREADS unset, 1 and 2. Unpinned, a
    two-thread calibration of this size fits different hyperparameters."""
    unset = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in unset}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    artifacts = {}
    for threads in (None, "1", "2"):
        env = base if threads is None else {**base, "OPENBLAS_NUM_THREADS": threads}
        out = tmp_path / f"threads_{threads}"
        subprocess.run([sys.executable, "-c", SEASON_SCRIPT, str(out)], env=env, timeout=300, check=True)
        artifacts[threads] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert len(artifacts[None]) == 1 + 4 + 3  # calibration, CSVs, bo/cbo/scbo states
    assert artifacts["1"] == artifacts[None]
    assert artifacts["2"] == artifacts[None]
