"""Synthetic episode workloads following the trace-derived statistical model.

Durations are heavy-tailed Pareto, resource demands log-normal, arrivals a
homogeneous Poisson process, and each task carries one of three priority
classes with a class-dependent deadline multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .rng import RngStream, sample_categorical, sample_exponential, sample_lognormal, sample_pareto

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

    Per-task sampling order is fixed (duration, cpu, mem, priority) so the
    workload is a deterministic function of the stream.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")

    tasks = []
    now = 0.0
    for i in range(count):
        now += sample_exponential(s, arrival_rate)
        duration = sample_pareto(s, DURATION_ALPHA, DURATION_TMIN)
        cpu = sample_lognormal(s, CPU_MU, CPU_SIGMA)
        mem = sample_lognormal(s, MEM_MU, MEM_SIGMA)
        priority = sample_categorical(s, priority_mix)
        tasks.append(
            Task(
                id=i,
                duration=duration,
                cpu=cpu,
                mem=mem,
                arrival=now,
                priority=priority,
                deadline=deadline_for(now, duration, priority),
            )
        )
    return tasks
