"""Synthetic episode workloads following the trace-derived statistical model.

Durations are heavy-tailed Pareto, resource demands log-normal, arrivals a
homogeneous Poisson process, and each task carries one of three priority
classes with a class-dependent deadline multiplier.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

import numpy as np

# Distribution parameters of the workload model.
DURATION_ALPHA = 1.5
DURATION_TMIN = 5.0
CPU_MU, CPU_SIGMA = 0.5, 0.8
MEM_MU, MEM_SIGMA = 2.0, 1.0
DEFAULT_ARRIVAL_RATE = 0.5
PRIORITY_MIX = (0.25, 0.60, 0.15)  # Production, Batch, Best-effort
PRIORITY_BINS = np.cumsum(PRIORITY_MIX)

# Deadline multiplier per priority class.
DEADLINE_FACTORS = (1.5, 3.0, 5.0)


def pareto_from_uniform(u: float, alpha: float, t_min: float) -> float:
    """Inverse CDF of Pareto(alpha, t_min) at ``u``."""
    return t_min * (1.0 - u) ** (-1.0 / alpha)


class Task(NamedTuple):
    """One unit of work."""

    id: int
    duration: float   # seconds of service demand
    cpu: float        # cores
    mem: float        # GB
    arrival: float    # seconds
    priority: int     # 0=Production, 1=Batch, 2=Best-effort
    deadline: float   # seconds


def generate_workload(s: np.random.Generator, count: int, arrival_rate: float = DEFAULT_ARRIVAL_RATE) -> list[Task]:
    """Generate ``count`` tasks in arrival order, ids 0..count-1.

    Each task draws its inter-arrival gap, duration, cpu, mem and priority in
    that order (u u n n u), so the workload is a deterministic function of the
    stream. After the first two uniforms the stream is a run of ``n n u u u``
    blocks ending in ``n n u``, so the draws fill one array with two calls
    per task, through the row views of a (count - 1, 5) block array; an
    array fill draws the same sequence as that many scalar draws. The
    inverse-CDF transforms run on whole arrays, except the Pareto power: it
    stays a Python float ``**``, because numpy's array ``power`` can differ
    from it in the last bit. Arrival times are a sequential float sum
    of the gaps, and a deadline is arrival + class multiplier times duration.
    The records are built by ``tuple.__new__``, which skips the Python-level
    ``Task.__new__`` and makes the same tuples.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if arrival_rate <= 0:
        raise ValueError("arrival_rate must be positive")

    draws = np.empty(5 * count)
    uniform, normal = s.random, s.standard_normal
    uniform(out=draws[:2])
    blocks = draws[2:-3].reshape(count - 1, 5)
    for n_row, u_row in zip(blocks[:, :2], blocks[:, 2:]):
        normal(out=n_row)
        uniform(out=u_row)
    normal(out=draws[-3:-1])
    uniform(out=draws[-1:])
    u_gap, u_duration, z_cpu, z_mem, u_priority = draws.reshape(count, 5).T

    arrivals = np.add.accumulate(-np.log1p(-u_gap) / arrival_rate)
    durations = [pareto_from_uniform(u, DURATION_ALPHA, DURATION_TMIN) for u in u_duration.tolist()]
    cpus = np.exp(CPU_MU + CPU_SIGMA * z_cpu)
    mems = np.exp(MEM_MU + MEM_SIGMA * z_mem)
    priorities = np.minimum(np.searchsorted(PRIORITY_BINS, u_priority, side="right"),
                            len(PRIORITY_MIX) - 1)
    deadlines = arrivals + np.array(DEADLINE_FACTORS)[priorities] * durations
    return list(map(partial(tuple.__new__, Task),
                    zip(range(count), durations, cpus.tolist(), mems.tolist(),
                        arrivals.tolist(), priorities.tolist(), deadlines.tolist())))
