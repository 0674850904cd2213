"""In-memory span tracer applied from outside the program.

Each public function or method is replaced, at the name its caller looks up,
by a wrapper that records one span (name, start, end, parent). Patching
``simenv.advance`` alone would record nothing: ``experiment`` imported the
name, so ``experiment.advance`` is what ``run_episode`` calls.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        clock = time.perf_counter
        name_ix, parent, start, end, stack = self.name_ix, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(start)
            name_ix.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def arrays(self):
        """(name_ix, parent, duration, self time) as numpy arrays."""
        name_ix = np.array(self.name_ix, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        duration = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        covered = np.zeros(len(duration))
        np.add.at(covered, parent[has_parent], duration[has_parent])
        return name_ix, parent, duration, duration - covered

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_ix=np.array(self.name_ix, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )


@contextmanager
def patched(replacements):
    """Set ``(owner, attr, value)`` triples; restore the originals on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def traced_boundaries():
    """(owner, attribute, span name) for every layer boundary the tracer wraps."""
    from marlsched import experiment, marl, schedulers, simenv

    return [
        (experiment, "make_scheduler", "experiment.make_scheduler"),
        (experiment, "build_episode_inputs", "experiment.build_episode_inputs"),
        (experiment, "generate_workload", "workload.generate_workload"),
        (experiment, "generate_cluster", "cluster.generate_cluster"),
        (experiment, "advance", "simenv.advance"),
        (experiment, "enqueue_assignment", "simenv.enqueue_assignment"),
        (experiment, "write_episode_csv", "experiment.write_episode_csv"),
        (experiment, "save_checkpoint", "marl.save_checkpoint"),
        (simenv, "step_energy", "cluster.step_energy"),
        (marl, "build_observation", "simenv.build_observation"),
        (marl, "feasible_nodes", "simenv.feasible_nodes"),
        (schedulers, "feasible_nodes", "simenv.feasible_nodes"),
        (marl, "forward", "marl.forward"),
        (marl, "td_error", "marl.td_error"),
        (marl, "apply_update", "marl.apply_update"),
        (marl, "select_assignments", "marl.select_assignments"),
        (marl, "compute_step_reward", "marl.compute_step_reward"),
        (marl.ReplayBuffer, "add", "marl.ReplayBuffer.add"),
        (marl.ReplayBuffer, "sample", "marl.ReplayBuffer.sample"),
        (marl.DrlScheduler, "__init__", "marl.DrlScheduler.init"),
        (marl.DrlScheduler, "assign", "marl.DrlScheduler.assign"),
        (marl.DrlScheduler, "after_advance", "marl.DrlScheduler.after_advance"),
        (marl.DrlScheduler, "end_episode", "marl.DrlScheduler.end_episode"),
        (schedulers.PriorityMinMinScheduler, "assign", "schedulers.minmin.assign"),
    ]


def instrument(tracer: Tracer):
    """Replacement triples that route every traced boundary through ``tracer``."""
    return [(owner, attr, tracer.wrap(name, owner.__dict__[attr]))
            for owner, attr, name in traced_boundaries()]
