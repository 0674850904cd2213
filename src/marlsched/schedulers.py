"""Baseline schedulers behind the common per-step scheduler interface.

A scheduler is called once per simulation step with the arrived-but-unassigned
tasks and returns one decision per task; ``node_id=None`` means the task is
left pending this step.
"""

from __future__ import annotations

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
        order = sorted(pending, key=lambda t: (t.priority, t.arrival, t.id))
        # hypothetical load including assignments made earlier in this call
        cpu_used, mem_used = state.cpu_in_use.tolist(), state.mem_in_use.tolist()
        cpu_capacity, mem_capacity = state.specs.cpu_capacity, state.specs.mem_capacity
        cpu_cap, mem_cap = cpu_capacity.tolist(), mem_capacity.tolist()
        util = state.utilization()
        cpu = np.array([t.cpu for t in order])
        mem = np.array([t.mem for t in order])
        # fit[n, k]: task k fits node n's remaining capacity; n_fit[k] counts them.
        # Usage only grows within a call, so a task that fits no node now never
        # will, and a placement on node n can only clear entries of row n.
        fit = ((np.add.outer(cpu_used, cpu) <= cpu_capacity[:, None])
               & (np.add.outer(mem_used, mem) <= mem_capacity[:, None]))
        n_fit = fit.sum(axis=0)
        candidates = np.flatnonzero(n_fit)
        fit, n_fit = fit[:, candidates], n_fit[candidates]
        cpu, mem = cpu[candidates], mem[candidates]
        chosen = [None] * len(order)
        for j, (k, c, m) in enumerate(zip(candidates.tolist(), cpu.tolist(), mem.tolist())):
            if not n_fit[j]:
                continue
            # first index of the least-utilized fitting node: the strict-< scan's pick
            best = int(np.where(fit[:, j], util, np.inf).argmin())
            chosen[k] = best
            cpu_used[best] += c
            mem_used[best] += m
            util[best] = cpu_used[best] / cpu_cap[best]
            row = fit[best, j + 1:]
            still = ((cpu_used[best] + cpu[j + 1:] <= cpu_cap[best])
                     & (mem_used[best] + mem[j + 1:] <= mem_cap[best]))
            n_fit[j + 1:] -= row > still
            row[...] = still
        return [SchedulerDecision(task.id, nid) for task, nid in zip(order, chosen)]


BASELINES = {
    "random": RandomScheduler,
    "wrr": WeightedRoundRobinScheduler,
    "minmin": PriorityMinMinScheduler,
}
