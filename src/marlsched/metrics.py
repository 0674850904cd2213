"""Episode metric computation, cross-episode aggregation and reporting math."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .simenv import SimState, total_energy

DEFAULT_OBJECTIVE_WEIGHTS = (0.4, 0.2, 0.3, 0.1)


@dataclass
class EpisodeMetrics:
    atct: float | None          # mean completion time over completed tasks; None if none completed
    energy_kwh: float
    sla_rate: float             # met-SLA completions / total tasks (drops and unresolved violate)
    throughput: float           # completed tasks per 1000 s of makespan
    completed: int
    mean_step_util_variance: float
    objective_j: float
    makespan: float


def max_energy_kwh(state: SimState, horizon: float) -> float:
    """Theoretical maximum: every node at full power for the whole horizon."""
    return sum((state.specs.p_idle + state.specs.p_dyn).tolist()) * horizon / 3.6e6


def objective_j(
    atct: float,
    energy_kwh: float,
    sla_violation_frac: float,
    mean_util_variance: float,
    e_max_kwh: float,
    max_time: float,
) -> float:
    """Weighted scalar over the four normalized objective components (reporting only)."""
    w1, w2, w3, w4 = DEFAULT_OBJECTIVE_WEIGHTS
    return (
        w1 * (atct / max_time)
        + w2 * (energy_kwh / e_max_kwh if e_max_kwh > 0 else 0.0)
        + w3 * sla_violation_frac
        + w4 * mean_util_variance
    )


def summarize_episode(state: SimState) -> EpisodeMetrics:
    """Metrics for a finished episode (horizon reached or all tasks resolved)."""
    total = len(state.tasks)
    records = state.completions
    completed = len(records)
    met = sum(1 for r in records if r.met_sla)
    atct = sum(r.completion_time for r in records) / completed if completed else None
    energy = total_energy(state)
    makespan = min(state.time, state.config.max_time)
    throughput = completed / (makespan / 1000.0) if makespan > 0 else 0.0
    sla_rate = met / total if total else 0.0
    util_var = state.mean_util_variance()
    j = objective_j(
        atct if atct is not None else 0.0,
        energy,
        1.0 - sla_rate,
        util_var,
        max_energy_kwh(state, state.config.max_time),
        state.config.max_time,
    )
    return EpisodeMetrics(
        atct=atct,
        energy_kwh=energy,
        sla_rate=sla_rate,
        throughput=throughput,
        completed=completed,
        mean_step_util_variance=util_var,
        objective_j=j,
        makespan=makespan,
    )


def aggregate_final(values: Sequence[float | None], k: int) -> tuple[float, float]:
    """Sample mean and n-1 std over the final k entries; None entries are
    excluded with a warning, never imputed."""
    if len(values) < k:
        raise ValueError(f"need at least {k} episodes, got {len(values)}")
    window = values[-k:]
    usable = [v for v in window if v is not None]
    if not usable:
        raise ValueError("no usable values in the aggregation window")
    if len(usable) < len(window):
        warnings.warn(f"excluding {len(window) - len(usable)} zero-completion episodes from aggregation")
    arr = np.asarray(usable, dtype=float)
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    return float(arr.mean()), std
