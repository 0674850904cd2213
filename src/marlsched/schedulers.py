"""Baseline schedulers behind the common per-step scheduler interface.

A scheduler is called once per simulation step with the arrived-but-unassigned
tasks and returns one decision per task it places; a task with no decision is
left pending this step.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from operator import attrgetter
from typing import NamedTuple, Sequence

import numpy as np

from .simenv import SimState, feasible_nodes
from .workload import Task


class SchedulerDecision(NamedTuple):
    task_id: int
    node_id: int


class Scheduler:
    """Per-episode scheduler interface shared by baselines and the DRL scheduler."""

    name = "base"

    def reset(self, state: SimState, stream: np.random.Generator | None = None) -> None:
        """Called at episode start; baselines are stateless across episodes."""

    def learn(self, state: SimState) -> None:
        """Called once per step, right before ``assign``, and timed apart from it;
        only the learning scheduler trains here."""

    def assign(self, state: SimState, pending: Sequence[Task]) -> list[SchedulerDecision]:
        """Placements for this step, in the order the engine applies them; a
        pending task without one stays pending."""
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
                continue
            decisions.append(SchedulerDecision(task.id, feas[int(self._stream.random() * len(feas))]))
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
        if not pending:
            return []
        # (priority, arrival, id) order in two stable passes
        order = sorted(pending, key=attrgetter("arrival", "id"))
        order.sort(key=attrgetter("priority"))
        # hypothetical load including assignments made earlier in this call
        cpu_used, mem_used = state.cpu_in_use.tolist(), state.mem_in_use.tolist()
        cpu_cap, mem_cap = state.specs.cpu_capacity.tolist(), state.specs.mem_capacity.tolist()
        # A node without room for the call's smallest cpu and smallest mem fits
        # no task of the call: usage only grows within a call and float addition
        # is monotone. Such nodes are dropped, at the start and after placements.
        min_cpu, min_mem = min(t.cpu for t in pending), min(t.mem for t in pending)
        # (utilization, id) ascending: the first node that fits is the least
        # utilized one, ties to the lowest id
        nodes = sorted(
            (u, n) for u, n in zip(state.utilization().tolist(), range(state.n_nodes))
            if cpu_used[n] + min_cpu <= cpu_cap[n] and mem_used[n] + min_mem <= mem_cap[n])
        # Sizes that fit no node, kept Pareto-minimal: cpu ascending, mem
        # descending. A task at least as large in both fits no node either.
        failed_cpu, failed_mem = [], []
        decisions = []
        for t in order:
            if not nodes:
                break
            c, m = t.cpu, t.mem
            k = bisect_right(failed_cpu, c)
            if k and failed_mem[k - 1] <= m:
                continue
            # memory first: under load, a task that fits no node finds memory
            # room on only a few, so most of its scan stops at that test
            for pos, (_, n) in enumerate(nodes):
                if mem_used[n] + m <= mem_cap[n] and cpu_used[n] + c <= cpu_cap[n]:
                    break
            else:
                # drop the failed sizes this one dominates, then insert it
                lo = hi = bisect_left(failed_cpu, c)
                while hi < len(failed_mem) and failed_mem[hi] >= m:
                    hi += 1
                failed_cpu[lo:hi], failed_mem[lo:hi] = [c], [m]
                continue
            del nodes[pos]
            cpu_used[n] += c
            mem_used[n] += m
            if cpu_used[n] + min_cpu <= cpu_cap[n] and mem_used[n] + min_mem <= mem_cap[n]:
                insort(nodes, (cpu_used[n] / cpu_cap[n], n))
            decisions.append(SchedulerDecision(t.id, n))
        return decisions


BASELINES = {cls.name: cls for cls in (RandomScheduler, WeightedRoundRobinScheduler, PriorityMinMinScheduler)}
