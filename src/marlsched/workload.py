"""Synthetic episode workloads following the trace-derived statistical model.

Durations are heavy-tailed Pareto, resource demands log-normal, arrivals a
homogeneous Poisson process, and each task carries one of three priority
classes with a class-dependent deadline multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import RngStream, categorical_cdf, pareto_from_uniform

# Distribution parameters of the workload model.
DURATION_ALPHA = 1.5
DURATION_TMIN = 5.0
CPU_MU, CPU_SIGMA = 0.5, 0.8
MEM_MU, MEM_SIGMA = 2.0, 1.0
DEFAULT_ARRIVAL_RATE = 0.5
DEFAULT_PRIORITY_MIX = (0.25, 0.60, 0.15)  # Production, Batch, Best-effort

# Deadline multiplier per priority class.
DEADLINE_FACTORS = (1.5, 3.0, 5.0)


@dataclass(frozen=True)
class Task:
    """One unit of work."""

    id: int
    duration: float   # seconds of service demand
    cpu: float        # cores
    mem: float        # GB
    arrival: float    # seconds
    priority: int     # 0=Production, 1=Batch, 2=Best-effort
    deadline: float   # seconds


def deadline_for(arrival: float, duration: float, priority: int) -> float:
    """Deadline = arrival + class multiplier times duration."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    if priority not in (0, 1, 2):
        raise ValueError(f"priority must be 0, 1 or 2, got {priority}")
    return arrival + DEADLINE_FACTORS[priority] * duration


def generate_workload(
    s: RngStream,
    count: int,
    arrival_rate: float = DEFAULT_ARRIVAL_RATE,
    priority_mix: Sequence[float] = DEFAULT_PRIORITY_MIX,
) -> list[Task]:
    """Generate ``count`` tasks in arrival order, ids 0..count-1.

    Each task draws its inter-arrival gap, duration, cpu, mem and priority in
    that order, so the workload is a deterministic function of the stream
    (draw order unchanged; transforms on arrays). The inverse-CDF transforms
    run on whole arrays, except the Pareto power: it stays a Python float
    ``**``, because numpy's array ``power`` can differ from it in the last
    bit. Arrival times are a sequential float sum of the gaps.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")
    cum_mix = categorical_cdf(priority_mix)

    uniform, normal = s.uniform, s.normal
    draws = np.array([f() for _ in range(count) for f in (uniform, uniform, normal, normal, uniform)])
    u_gap, u_duration, z_cpu, z_mem, u_priority = draws.reshape(count, 5).T
    gaps = (-np.log1p(-u_gap) / arrival_rate).tolist()
    durations = [pareto_from_uniform(u, DURATION_ALPHA, DURATION_TMIN) for u in u_duration.tolist()]
    cpus = np.exp(CPU_MU + CPU_SIGMA * z_cpu).tolist()
    mems = np.exp(MEM_MU + MEM_SIGMA * z_mem).tolist()
    priorities = np.minimum(np.searchsorted(cum_mix, u_priority, side="right"),
                            len(cum_mix) - 1).tolist()

    tasks = []
    now = 0.0
    for i, (gap, duration, cpu, mem, priority) in enumerate(
            zip(gaps, durations, cpus, mems, priorities)):
        now += gap
        tasks.append(Task(id=i, duration=duration, cpu=cpu, mem=mem, arrival=now,
                          priority=priority, deadline=deadline_for(now, duration, priority)))
    return tasks
