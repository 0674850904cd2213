"""Baseline schedulers behind the common per-step scheduler interface.

A scheduler is called once per simulation step with the arrived-but-unassigned
tasks and returns one decision per task; ``node_id=None`` means the task is
left pending this step.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from .rng import RngStream
from .simenv import SimState, feasible_nodes
from .workload import Task


class SchedulerDecision(NamedTuple):
    task_id: int
    node_id: int | None  # None = leave pending this step


class Scheduler:
    """Per-episode scheduler interface shared by baselines and the DRL scheduler."""

    name = "base"

    def reset(self, state: SimState, stream: RngStream | None = None) -> None:
        """Called at episode start; baselines are stateless across episodes."""

    def assign(self, state: SimState, pending: Sequence[Task]) -> list[SchedulerDecision]:
        raise NotImplementedError

    def after_advance(self, state: SimState, report) -> None:
        """Step hook; only the learning scheduler uses it."""

    def end_episode(self, state: SimState) -> None:
        """Episode hook; only the learning scheduler uses it."""


class RandomScheduler(Scheduler):
    """Uniform choice among statically feasible nodes."""

    name = "random"

    def __init__(self):
        self._stream = None

    def reset(self, state, stream=None):
        self._stream = stream

    def assign(self, state, pending):
        decisions = []
        for task in pending:
            feas = feasible_nodes(state, task)
            if not feas:
                decisions.append(SchedulerDecision(task.id, None))
                continue
            u = self._stream.uniform()
            decisions.append(SchedulerDecision(task.id, feas[min(int(u * len(feas)), len(feas) - 1)]))
        return decisions


class WeightedRoundRobinScheduler(Scheduler):
    """Smooth weighted round-robin with weight = CPU capacity.

    Every decision, each feasible node's credit grows by its weight; the
    highest-credit feasible node wins (ties to lowest id) and pays back the
    total feasible weight.
    """

    name = "wrr"

    def __init__(self):
        self._credits = None

    def reset(self, state, stream=None):
        self._credits = np.zeros(state.n_nodes)

    def assign(self, state, pending):
        credits, weight = self._credits, state.specs.cpu_capacity
        decisions = []
        for task in pending:
            feas = feasible_nodes(state, task)
            if not feas:
                decisions.append(SchedulerDecision(task.id, None))
                continue
            w = weight[feas]
            credits[feas] += w
            chosen = feas[int(credits[feas].argmax())]   # the first maximum: ties to the lowest id
            credits[chosen] -= sum(w.tolist())   # added in node order, as a loop over feas adds
            decisions.append(SchedulerDecision(task.id, chosen))
        return decisions


class PriorityMinMinScheduler(Scheduler):
    """Priority-first assignment to the least-loaded node that can start the
    task immediately; tasks that cannot start now stay pending."""

    name = "minmin"

    def assign(self, state, pending):
        order = sorted(pending, key=attrgetter("priority", "arrival", "id"))
        # hypothetical load including assignments made earlier in this call
        cpu_used, mem_used = state.cpu_in_use.tolist(), state.mem_in_use.tolist()
        cpu_cap, mem_cap = state.specs.cpu_capacity.tolist(), state.specs.mem_capacity.tolist()
        # (utilization, id) ascending: the first node that fits is the least
        # utilized one, ties to the lowest id
        nodes = sorted(zip(state.utilization().tolist(), range(state.n_nodes)))
        # Sizes that fit no node, kept Pareto-minimal: cpu ascending, mem
        # descending. Usage only grows within a call and float addition is
        # monotone, so a task at least as large in both fits no node either.
        failed_cpu, failed_mem = [], []
        chosen = []
        for t in order:
            c, m = t.cpu, t.mem
            k = bisect_right(failed_cpu, c)
            if k and failed_mem[k - 1] <= m:
                chosen.append(None)
                continue
            for pos, (_, n) in enumerate(nodes):
                if cpu_used[n] + c <= cpu_cap[n] and mem_used[n] + m <= mem_cap[n]:
                    break
            else:
                # drop the failed sizes this one dominates, then insert it
                lo = hi = bisect_left(failed_cpu, c)
                while hi < len(failed_mem) and failed_mem[hi] >= m:
                    hi += 1
                failed_cpu[lo:hi], failed_mem[lo:hi] = [c], [m]
                chosen.append(None)
                continue
            del nodes[pos]
            cpu_used[n] += c
            mem_used[n] += m
            insort(nodes, (cpu_used[n] / cpu_cap[n], n))
            chosen.append(n)
        return list(map(SchedulerDecision, map(attrgetter("id"), order), chosen))


BASELINES = {
    "random": RandomScheduler,
    "wrr": WeightedRoundRobinScheduler,
    "minmin": PriorityMinMinScheduler,
}
