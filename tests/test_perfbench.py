"""The names and state the benchmark under perfbench/ patches and reads.

perfbench replaces program functions by name and checks invariants on a
finished episode's state; a refactor that drops either breaks only a traced
benchmark run, so these checks catch it in seconds.
"""

import importlib
from pathlib import Path

import pytest

from marlsched.experiment import ExperimentConfig, build_episode_inputs
from marlsched.metrics import summarize_episode
from marlsched.rng import derive_stream
from marlsched.schedulers import RandomScheduler
from marlsched.simenv import advance, enqueue_assignment, init_episode

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_traced_boundaries_exist(perfbench_module):
    tracing = perfbench_module("tracing")
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in tracing.traced_boundaries() if attr not in owner.__dict__]
    assert missing == []


def test_finished_episode_passes_the_benchmark_invariants(perfbench_module):
    run = perfbench_module("run")
    cfg = ExperimentConfig(n_nodes=6, n_tasks=20, episodes=1, final_window=1)
    tasks, cluster = build_episode_inputs(cfg, 0)
    state = init_episode(cfg.sim, tasks, cluster)
    sched = RandomScheduler()
    sched.reset(state, derive_stream(cfg.master_seed, "sched-random-0"))
    step_energy_j = 0.0
    while not state.all_resolved():
        enqueue_assignment(state, sched.assign(state, list(state.pending.values())))
        step_energy_j += advance(state, cfg.sim.dt).energy_joules
    assert state.completions
    assert run.episode_problem(state, summarize_episode(state), step_energy_j, cfg.n_tasks) is None


def test_run_hooks_targets_exist(perfbench_module):
    """The untraced run, the one whose figures are compared, and the traced run
    patch ``(owner, attr)`` pairs that must exist on each workload's scheduler
    class, and that class must be the one ``make_scheduler`` builds."""
    from marlsched import experiment
    from marlsched.marl import DrlScheduler

    run, workloads = perfbench_module("run"), perfbench_module("workloads")
    for workload in workloads.WORKLOADS:
        config = workloads.make_config(workload, 42, "unused")
        name = config.schedulers[0]
        cls = experiment.BASELINES.get(name, DrlScheduler)
        for traced in (False, True):
            missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
                       for owner, attr, _ in run.RunHooks(config, traced).replacements(cls)
                       if attr not in owner.__dict__]
            assert missing == [], (workload, traced)
        assert type(experiment.make_scheduler(name, config)) is cls, workload
