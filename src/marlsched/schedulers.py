"""Baseline schedulers behind the common per-step scheduler interface.

A scheduler is called once per simulation step with the arrived-but-unassigned
tasks and returns one decision per task; ``node_id=None`` means the task is
left pending this step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .rng import RngStream
from .simenv import SimState, feasible_nodes
from .workload import Task


@dataclass(frozen=True)
class SchedulerDecision:
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
        self._credits = [0.0] * state.n_nodes

    def assign(self, state, pending):
        decisions = []
        for task in pending:
            feas = feasible_nodes(state, task)
            if not feas:
                decisions.append(SchedulerDecision(task.id, None))
                continue
            total = 0.0
            for nid in feas:
                w = state.nodes[nid].spec.cpu_capacity
                self._credits[nid] += w
                total += w
            chosen = max(feas, key=lambda nid: (self._credits[nid], -nid))
            self._credits[chosen] -= total
            decisions.append(SchedulerDecision(task.id, chosen))
        return decisions


class PriorityMinMinScheduler(Scheduler):
    """Priority-first assignment to the least-loaded node that can start the
    task immediately; tasks that cannot start now stay pending."""

    name = "minmin"

    def assign(self, state, pending):
        order = sorted(pending, key=lambda t: (t.priority, t.arrival, t.id))
        # hypothetical load including assignments made earlier in this call
        cpu_used = {n.spec.id: n.cpu_in_use for n in state.nodes}
        mem_used = {n.spec.id: n.mem_in_use for n in state.nodes}
        decisions = []
        for task in order:
            best, best_util = None, None
            for node in state.nodes:
                nid = node.spec.id
                if (
                    cpu_used[nid] + task.cpu <= node.spec.cpu_capacity
                    and mem_used[nid] + task.mem <= node.spec.mem_capacity
                ):
                    util = cpu_used[nid] / node.spec.cpu_capacity
                    if best is None or util < best_util:
                        best, best_util = nid, util
            if best is None:
                decisions.append(SchedulerDecision(task.id, None))
            else:
                cpu_used[best] += task.cpu
                mem_used[best] += task.mem
                decisions.append(SchedulerDecision(task.id, best))
        return decisions


BASELINES = {
    "random": RandomScheduler,
    "wrr": WeightedRoundRobinScheduler,
    "minmin": PriorityMinMinScheduler,
}
