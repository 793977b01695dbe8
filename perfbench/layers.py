"""Which roomtune functions the traced run wraps, and the per-layer
metrics it derives from their spans.

Layer names follow roomtune's modules. ``pid`` runs inside
``plant.simulate_day``: wrapping each of its 288 steps a day would
distort the simulator's own time.
"""

from __future__ import annotations

import statistics

import numpy as np

from roomtune import cli, gp, harness, optimizer
from workloads import hyperparameters_on_bound

SPAN_NAMES = (
    "plant.simulate_day",
    "costs.compute_raw_costs",
    "gp.fit_hyperparameters",
    "gp.log_marginal_likelihood",
    "gp.posterior_batch",
    "gp.with_data",
    "optimizer.propose",
    "optimizer.safe_set",
    "optimizer.acquire",
    "optimizer.update",
    "optimizer.fit_fopdt",
    "optimizer.state_from_json",
    "optimizer.state_at_day",
    "harness.run_calibration",
    "harness.run_season",
    "harness.persist_run",
    "cli.main",
)

# Deterministic tuning-quality numbers, 0 on a workload that does not produce them.
QUALITY = {
    "improvement_pct.scbo": "%",
    "violation_frac.scbo": "frac",
    "fit_lml": "nats",
}


def _persisted_bytes(args, kwargs, _path) -> dict:
    config, season = args
    paths = [harness.results_path(config, season.method, season.seed)]
    if season.final_state is not None:
        paths.append(harness.state_path(config, season.method, season.seed))
    return {"bytes": sum(p.stat().st_size for p in paths)}


def instrument(tracer) -> None:
    """Wrap each public function where its caller looks it up."""
    w = tracer.wrap
    w(harness, "run_calibration", "harness.run_calibration")
    w(harness, "run_season", "harness.run_season")
    w(harness, "persist_run", "harness.persist_run", _persisted_bytes)
    w(harness, "simulate_day", "plant.simulate_day")
    w(harness, "compute_raw_costs", "costs.compute_raw_costs")
    w(harness, "fit_hyperparameters", "gp.fit_hyperparameters",
      lambda a, k, r: {"on_bound": hyperparameters_on_bound(r), "degenerate": r.degenerate})
    w(harness, "propose", "optimizer.propose",
      lambda a, k, r: {"method": a[0].method, "fallback": r.used_fallback, "size": r.safe_set_size})
    w(harness, "update", "optimizer.update")
    w(gp, "log_marginal_likelihood", "gp.log_marginal_likelihood")
    w(gp.GPModel, "posterior_batch", "gp.posterior_batch",
      lambda a, k, r: {"entries": len(a[1]) * a[0].num_observations})
    w(gp.GPModel, "with_data", "gp.with_data", lambda a, k, r: {"rows": len(a[1])})
    w(optimizer, "safe_set", "optimizer.safe_set")
    w(optimizer, "acquire", "optimizer.acquire")
    w(optimizer, "fit_fopdt", "optimizer.fit_fopdt")
    w(cli, "main", "cli.main")
    w(cli, "safe_set", "optimizer.safe_set")
    w(cli, "state_from_json", "optimizer.state_from_json")
    w(cli, "state_at_day", "optimizer.state_at_day")


def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def per_layer(tracer, steps_per_day: int, quality: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    self_times = tracer.self_times()
    calls = dict.fromkeys(SPAN_NAMES, 0)
    busy = dict.fromkeys(SPAN_NAMES, 0.0)
    own = dict.fromkeys(SPAN_NAMES, 0.0)
    infos = {name: [] for name in SPAN_NAMES}
    for span, self_s in zip(tracer.spans, self_times):
        calls[span.name] += 1
        busy[span.name] += span.duration
        own[span.name] += self_s
        if span.info:
            infos[span.name].append(span.info)

    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.s"] = (busy[name], "s")
        out[f"{name}.self_s"] = (own[name], "s")

    days = calls["plant.simulate_day"]
    out["plant.step_us"] = (1e6 * own["plant.simulate_day"] / (days * steps_per_day) if days else 0.0, "us")
    fits = infos["gp.fit_hyperparameters"]
    out["gp.fit_hyperparameters.on_bound"] = (sum(i["on_bound"] for i in fits), "count")
    out["gp.fit_hyperparameters.degenerate"] = (sum(i["degenerate"] for i in fits), "count")
    lml_calls = calls["gp.log_marginal_likelihood"]
    out["gp.log_marginal_likelihood.us_per_call"] = (
        1e6 * busy["gp.log_marginal_likelihood"] / lml_calls if lml_calls else 0.0, "us"
    )
    out["gp.posterior_batch.kernel_entries"] = (sum(i["entries"] for i in infos["gp.posterior_batch"]), "count")
    out["gp.with_data.rows"] = (sum(i["rows"] for i in infos["gp.with_data"]), "count")
    propose_ms = [1e3 * s.duration for s in tracer.spans if s.name == "optimizer.propose"]
    out["optimizer.propose.ms.p50"] = (_pct(propose_ms, 50), "ms")
    out["optimizer.propose.ms.p95"] = (_pct(propose_ms, 95), "ms")
    scbo = [i for i in infos["optimizer.propose"] if i["method"] == optimizer.METHOD_SCBO]
    out["optimizer.certified_frac"] = (
        sum(not i["fallback"] for i in scbo) / len(scbo) if scbo else 0.0, "frac"
    )
    out["optimizer.safe_set_size.p50"] = (statistics.median(i["size"] for i in scbo) if scbo else 0.0, "count")
    out["harness.self_s"] = (own["harness.run_calibration"] + own["harness.run_season"], "s")
    out["harness.persist_run.bytes"] = (sum(i["bytes"] for i in infos["harness.persist_run"]), "bytes")
    out["cli.self_s"] = (own["cli.main"], "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    for name, unit in QUALITY.items():
        out[name] = (quality.get(name, 0.0), unit)
    return out
