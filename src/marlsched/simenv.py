"""Discrete-time simulation engine.

Tracks task queues, admission, execution, completion, SLA accounting and
energy accrual on a fixed 5-second grid, and builds the 50-dimensional
partial observation each node agent sees.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from itertools import islice
from math import inf
from operator import attrgetter
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .cluster import (
    MAX_CPU_CAPACITY,
    MAX_MEM_CAPACITY,
    MAX_P_DYN,
    MAX_P_IDLE,
    NodeSpec,
    stack_specs,
    step_energy,
)
from .workload import Task

# Observation layout: 7 own-node features, 3 ring-neighbour aggregates over
# NEIGHBOR_COUNT neighbours, then QUEUE_WINDOW pending tasks x TASK_FEATURES.
NEIGHBOR_COUNT = 4
QUEUE_WINDOW = 8
TASK_FEATURES = 5
OBS_DIM = 7 + 3 + QUEUE_WINDOW * TASK_FEATURES
# Largest duration rendered distinguishably in the log-scaled feature.
DURATION_LOG_CEILING = 1000.0


@dataclass
class SimConfig:
    max_time: float = 10_000.0
    dt = 5.0  # the fixed step in seconds; unannotated, so not a field or a config key

    def __post_init__(self):
        if self.max_time <= 0:
            raise ValueError(f"max_time must be positive, got {self.max_time}")


@dataclass
class NodeState:
    # (finish_time, task_id) pairs in sorted order, so a step's completions are a prefix
    running: list[tuple[float, int]] = field(default_factory=list)
    queue: list[int] = field(default_factory=list)  # assigned, waiting for admission (FIFO)
    energy_joules: float = 0.0


class CompletionRecord(NamedTuple):
    task_id: int
    arrival: float
    finish_time: float
    completion_time: float
    met_sla: bool
    priority: int
    node_id: int


@dataclass
class StepReport:
    """What happened during one advance."""

    arrived: list[int]
    completions: list[CompletionRecord]
    dropped: list[int]
    energy_joules: float
    util_variance: float


@dataclass
class SimState:
    config: SimConfig
    tasks: dict[int, Task]
    nodes: list[NodeState]
    # the node specs as one population (``stack_specs``), indexed by node id
    specs: NodeSpec
    time: float = 0.0
    # arrived, unassigned tasks by id in arrival order; a dict, so that
    # membership and removal are O(1) and iteration keeps arrival order
    pending: dict[int, Task] = field(default_factory=dict)
    completions: list[CompletionRecord] = field(default_factory=list)
    dropped: list[int] = field(default_factory=list)
    util_variance_sum: float = 0.0
    steps: int = 0
    # the tasks in arrival order; those before _next_arrival_idx are revealed
    _arrivals: list[Task] = field(default_factory=list)
    _next_arrival_idx: int = 0
    # load of admitted tasks per node: cores and GB in use
    cpu_in_use: np.ndarray = field(init=False)
    mem_in_use: np.ndarray = field(init=False)

    def __post_init__(self):
        self.cpu_in_use = np.zeros(len(self.nodes))
        self.mem_in_use = np.zeros(len(self.nodes))

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def all_resolved(self) -> bool:
        # a task leaves the episode only by completing or by a deadline drop
        return len(self.completions) + len(self.dropped) == len(self.tasks)

    def mean_util_variance(self) -> float:
        return self.util_variance_sum / self.steps if self.steps else 0.0

    def utilization(self) -> np.ndarray:
        """CPU in use over capacity, per node."""
        return self.cpu_in_use / self.specs.cpu_capacity


def init_episode(config: SimConfig, tasks: Sequence[Task], nodes: Sequence[NodeSpec]) -> SimState:
    """Fresh state at time 0: everything idle, all tasks not yet arrived."""
    if not nodes:
        raise ValueError("node list must be nonempty")
    arrivals = [t.arrival for t in tasks]
    if any(b < a for a, b in zip(arrivals, arrivals[1:])):
        raise ValueError("tasks must be sorted by arrival")
    state = SimState(
        config=config,
        tasks={t.id: t for t in tasks},
        nodes=[NodeState() for _ in nodes],
        specs=stack_specs(nodes),
        _arrivals=list(tasks),
    )
    _reveal_arrivals(state, 0.0)
    return state


def feasible_nodes(state: SimState, task: Task) -> list[int]:
    """Nodes whose static capacity can ever hold the task; load is ignored."""
    fits = (task.cpu <= state.specs.cpu_capacity) & (task.mem <= state.specs.mem_capacity)
    return np.flatnonzero(fits).tolist()


def _try_admit(state: SimState, node_id: int, now: float) -> None:
    """FIFO admission scan on one node at time ``now``."""
    node = state.nodes[node_id]
    queue, specs = node.queue, state.specs
    cpu_cap, mem_cap = specs.cpu_capacity.item(node_id), specs.mem_capacity.item(node_id)
    cpu, mem = state.cpu_in_use.item(node_id), state.mem_in_use.item(node_id)
    admitted = 0
    for tid in queue:
        task = state.tasks[tid]
        if cpu + task.cpu > cpu_cap or mem + task.mem > mem_cap:
            break
        insort(node.running, (now + task.duration, tid))
        cpu += task.cpu
        mem += task.mem
        admitted += 1
    del queue[:admitted]
    state.cpu_in_use[node_id], state.mem_in_use[node_id] = cpu, mem


def enqueue_assignment(state: SimState, decisions: Iterable[tuple[int, int]]) -> None:
    """Realize one step's scheduling decisions, ``(task_id, node_id)`` pairs:
    queue each task in order, then admit what fits, FIFO, on each node that
    received one. Usage only grows here, so a queue head that is blocked stays
    blocked and admitting once per node equals admitting after every enqueue.
    A decision that fails is raised after the ones before it are applied."""
    pending, nodes = state.pending, state.nodes
    cpu_cap, mem_cap = state.specs.cpu_capacity.tolist(), state.specs.mem_capacity.tolist()
    touched = set()
    try:
        for task_id, node_id in decisions:
            task = pending.get(task_id)
            if task is None:
                raise ValueError(f"task {task_id} is not pending")
            if task.cpu > cpu_cap[node_id] or task.mem > mem_cap[node_id]:
                raise ValueError(f"node {node_id} is statically infeasible for task {task_id}")
            del pending[task_id]
            nodes[node_id].queue.append(task_id)
            touched.add(node_id)
    finally:
        for node_id in touched:
            _try_admit(state, node_id, state.time)


def _reveal_arrivals(state: SimState, now: float) -> list[int]:
    start = state._next_arrival_idx
    end = bisect_right(state._arrivals, now, start, key=attrgetter("arrival"))
    state._next_arrival_idx = end
    arrived = state._arrivals[start:end]
    state.pending.update((t.id, t) for t in arrived)
    return [t.id for t in arrived]


def advance(state: SimState, dt: float) -> StepReport:
    """Advance the clock by one step; sub-step order is fixed.

    (1) complete, (2) admit queued FIFO, (3) reveal arrivals, (4) drop expired
    pending tasks, (5) accrue energy on post-admission load, (6) tick time.
    Nodes share no state, so (1) and (2) run node by node in one pass.
    """
    if dt != state.config.dt:
        raise ValueError("dt must equal config.dt")
    new_time = state.time + dt

    completions = []
    for i, node in enumerate(state.nodes):
        # 1. completions, each node's in (finish_time, task_id) order
        running = node.running
        if running and running[0][0] <= new_time:
            done = bisect_right(running, (new_time, inf))
            cpu, mem = state.cpu_in_use.item(i), state.mem_in_use.item(i)
            for finish_time, task_id in running[:done]:
                task = state.tasks[task_id]
                cpu -= task.cpu
                mem -= task.mem
                # positional: a NamedTuple built by keyword costs twice as much
                completions.append(CompletionRecord(
                    task_id, task.arrival, finish_time, finish_time - task.arrival,
                    finish_time <= task.deadline, task.priority, i))
            del running[:done]
            # guard against float drift when a node fully empties (a node whose
            # list was already empty has exactly zero in use)
            if not running:
                cpu = mem = 0.0
            state.cpu_in_use[i], state.mem_in_use[i] = cpu, mem
        # 2. admission (queued tasks start at the step boundary)
        if node.queue:
            _try_admit(state, i, new_time)

    # 3. arrivals
    arrived = _reveal_arrivals(state, new_time)

    # 4. deadline drops for never-assigned tasks
    dropped = [tid for tid, t in state.pending.items() if t.deadline < new_time]
    for tid in dropped:
        del state.pending[tid]
    state.dropped.extend(dropped)

    # 5. energy on post-admission utilization, summed in node order
    node_energy = step_energy(state.specs, state.cpu_in_use, dt).tolist()
    for node, e in zip(state.nodes, node_energy):
        node.energy_joules += e
    util_variance = float(np.var(state.utilization()))
    state.util_variance_sum += util_variance
    state.steps += 1

    # 6. tick
    state.time = new_time
    state.completions.extend(completions)

    return StepReport(
        arrived=arrived,
        completions=completions,
        dropped=dropped,
        energy_joules=sum(node_energy),
        util_variance=util_variance,
    )


def total_energy(state: SimState) -> float:
    """Accumulated cluster energy in kWh."""
    return sum(n.energy_joules for n in state.nodes) / 3.6e6


def build_observation(state: SimState) -> np.ndarray:
    """The 50-dimensional local views of all node agents, one row per node,
    all features in [0, 1].

    Layout: 0-6 own-node features, 7-9 ring-neighbor utilization aggregates,
    10-49 a window of the 8 oldest pending tasks x 5 features, zero-padded.
    The window is the same for every agent.
    """
    n = state.n_nodes
    obs = np.zeros((n, OBS_DIM))
    specs = state.specs
    util = state.utilization()
    obs[:, 0] = util
    obs[:, 1] = state.mem_in_use / specs.mem_capacity
    obs[:, 2] = np.minimum([len(node.queue) for node in state.nodes], 50) / 50.0
    obs[:, 3] = specs.cpu_capacity / MAX_CPU_CAPACITY
    obs[:, 4] = specs.mem_capacity / MAX_MEM_CAPACITY
    obs[:, 5] = specs.p_idle / MAX_P_IDLE
    obs[:, 6] = specs.p_dyn / MAX_P_DYN

    # Ring offsets -1, +1, -2, +2, ...; on small rings they repeat or wrap
    # onto the node itself, so keep the first of each and drop offset 0.
    offsets = []
    for off in range(1, NEIGHBOR_COUNT // 2 + 1):
        offsets += [-off % n, off % n]
    offsets = [o for o in dict.fromkeys(offsets) if o != 0]
    if offsets:
        nb = util[(np.arange(n)[:, None] + offsets) % n]
        obs[:, 7] = nb.mean(axis=1)
        obs[:, 8] = nb.min(axis=1)
        obs[:, 9] = nb.max(axis=1)

    now = state.time
    window = []
    for t in islice(state.pending.values(), QUEUE_WINDOW):
        window += [
            t.cpu / MAX_CPU_CAPACITY,
            t.mem / MAX_MEM_CAPACITY,
            (3 - t.priority) / 3.0,
            (t.deadline - now) / (t.deadline - t.arrival),
            min(np.log(t.duration / 5.0) / np.log(DURATION_LOG_CEILING), 1.0),
        ]
    obs[:, 10 : 10 + len(window)] = window
    return np.clip(obs, 0.0, 1.0)
