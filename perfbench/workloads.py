"""Benchmark workloads: one fixed episode protocol ("unit") per workload.

A unit is one ``run_scheduler`` call with fresh scheduler state, so every unit
of a workload does identical, seed-determined work and repeats of it can be
compared byte for byte. Importing this module does not import ``marlsched``;
``make_config`` does, so the set-up probe times that import.

Every workload ends its episodes at a horizon that falls inside the arrival
stream. Task durations are Pareto with alpha = 1.5, so the drain after the
last arrival lasts from minutes to hours of simulated time depending on the
seed; run to completion, an episode's step count, energy and host time would
differ several-fold between seeds. Cut at the horizon, every episode of a
workload simulates the same window of an ongoing Poisson arrival stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    scheduler: str
    n_nodes: int
    # Episodes per unit; the outcome metrics average over all of them.
    episodes: int
    horizon_s: float
    # Tasks per episode; None sizes the stream to outlast the horizon.
    n_tasks: int | None = None
    # Target offered CPU load as a share of cluster cores; None keeps the
    # program's default arrival rate.
    load: float | None = None


WORKLOADS = {
    # Desk scale (200 tasks at 0.5/s arrive over ~400 s), drl trained online
    # over consecutive episodes: training (apply_update, replay sample)
    # dominates host time. Run by hand; not in BENCHMARK.json, which keeps
    # two workloads so that each run can measure longer (perfbench/README.md).
    "drl-desk": Workload("drl", n_nodes=20, n_tasks=200, episodes=10,
                         horizon_s=300.0),
    # Full scale (1000 tasks arrive over ~2000 s), fresh agents: 100
    # observations and forwards per step, so the width of the agent
    # population dominates.
    "drl-full": Workload("drl", n_nodes=100, n_tasks=1000, episodes=2,
                         horizon_s=1200.0),
    # No marl code runs. Offered load 0.9 of cluster cores keeps a backlog of
    # hundreds of pending tasks, so the engine's pending, queue and
    # deadline-drop paths carry real work.
    "minmin-loaded": Workload("minmin", n_nodes=100, episodes=3,
                              horizon_s=600.0, load=0.9),
}

# Arrivals by the horizon are Poisson; 5 % headroom is many standard
# deviations at these counts, so the stream always outlasts the horizon.
STREAM_HEADROOM = 1.05


def expected_core_seconds_per_task() -> float:
    """E[cpu * duration] of the workload model: lognormal cpu, Pareto duration."""
    from marlsched import workload as wl

    mean_cpu = math.exp(wl.CPU_MU + wl.CPU_SIGMA ** 2 / 2.0)
    mean_duration = wl.DURATION_ALPHA * wl.DURATION_TMIN / (wl.DURATION_ALPHA - 1.0)
    return mean_cpu * mean_duration


def unit_cores(seed: int, spec: Workload) -> float:
    """Mean total cores over the unit's episode clusters."""
    from marlsched.cluster import generate_cluster
    from marlsched.rng import derive_stream

    # Same stream labels as experiment.build_episode_inputs.
    totals = [
        sum(n.cpu_capacity for n in generate_cluster(derive_stream(seed, f"cluster-{ep}"), spec.n_nodes))
        for ep in range(spec.episodes)
    ]
    return sum(totals) / len(totals)


def make_config(name: str, seed: int, output_dir: str):
    """The ExperimentConfig of one unit of workload ``name`` at master seed ``seed``."""
    from marlsched.experiment import ExperimentConfig
    from marlsched.simenv import SimConfig

    spec = WORKLOADS[name]
    config = ExperimentConfig(
        master_seed=seed,
        episodes=spec.episodes,
        final_window=spec.episodes,
        schedulers=(spec.scheduler,),
        n_nodes=spec.n_nodes,
        output_dir=output_dir,
        sim=SimConfig(max_time=spec.horizon_s),
    )
    if spec.load is not None:
        config.arrival_rate = spec.load * unit_cores(seed, spec) / expected_core_seconds_per_task()
    config.n_tasks = spec.n_tasks or math.ceil(STREAM_HEADROOM * config.arrival_rate * spec.horizon_s)
    return config
