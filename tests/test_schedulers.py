"""Baseline scheduler oracles: random uniformity, smooth WRR credits, min-min."""

import numpy as np
import pytest

from marlsched.cluster import NodeSpec, generate_cluster
from marlsched.rng import derive_stream
from marlsched.schedulers import (
    PriorityMinMinScheduler,
    RandomScheduler,
    WeightedRoundRobinScheduler,
)
from marlsched.simenv import SimConfig, enqueue_assignment, init_episode
from marlsched.workload import Task, deadline_for


def node(nid, cpu=4.0, mem=64.0):
    return NodeSpec(id=nid, cpu_capacity=cpu, mem_capacity=mem,
                    p_idle=100.0, p_dyn=200.0, tier="Medium")


def task(tid, duration=10.0, cpu=1.0, mem=1.0, arrival=0.0, priority=1):
    return Task(id=tid, duration=duration, cpu=cpu, mem=mem, arrival=arrival,
                priority=priority, deadline=deadline_for(arrival, duration, priority))


class TestRandom:
    def test_singleton_feasible_set(self):
        state = init_episode(SimConfig(), [], [node(0, cpu=1.0), node(1, cpu=1.0),
                                               node(2, cpu=1.0), node(3, cpu=8.0)])
        sched = RandomScheduler()
        sched.reset(state, derive_stream(0, "r"))
        decisions = sched.assign(state, [task(0, cpu=2.0)])
        assert decisions[0].node_id == 3

    def test_empty_feasible_set_rejects(self):
        state = init_episode(SimConfig(), [], [node(0, cpu=1.0)])
        sched = RandomScheduler()
        sched.reset(state, derive_stream(0, "r"))
        decisions = sched.assign(state, [task(0, cpu=2.0)])
        assert decisions[0].node_id is None

    def test_uniformity_over_100_nodes(self):
        state = init_episode(SimConfig(), [], [node(i) for i in range(100)])
        sched = RandomScheduler()
        sched.reset(state, derive_stream(0, "r"))
        pending = [task(i, cpu=0.5, mem=0.5) for i in range(10_000)]
        counts = np.bincount([d.node_id for d in sched.assign(state, pending)], minlength=100)
        # binomial: mean 100, sigma ~ 9.95, assert within 4 sigma
        assert np.all(np.abs(counts - 100) <= 40)


class TestWeightedRoundRobin:
    def test_hand_traced_credits(self):
        """C = (1, 3): credits give B, A, B, B over four decisions."""
        state = init_episode(SimConfig(), [], [node(0, cpu=1.0), node(1, cpu=3.0)])
        sched = WeightedRoundRobinScheduler()
        sched.reset(state)
        chosen = [sched.assign(state, [task(i, cpu=0.5)])[0].node_id for i in range(4)]
        assert chosen == [1, 0, 1, 1]

    def test_single_feasible_node(self):
        state = init_episode(SimConfig(), [], [node(0, cpu=1.0), node(1, cpu=8.0)])
        sched = WeightedRoundRobinScheduler()
        sched.reset(state)
        for i in range(5):
            assert sched.assign(state, [task(i, cpu=4.0)])[0].node_id == 1

    def test_empty_feasible_set_rejects(self):
        state = init_episode(SimConfig(), [], [node(0, cpu=1.0)])
        sched = WeightedRoundRobinScheduler()
        sched.reset(state)
        assert sched.assign(state, [task(0, cpu=2.0)])[0].node_id is None

    def test_capacity_proportional_shares(self):
        nodes = generate_cluster(derive_stream(42, "cl"), 100)
        state = init_episode(SimConfig(), [], nodes)
        sched = WeightedRoundRobinScheduler()
        sched.reset(state)
        pending = [task(i, cpu=0.5, mem=0.5) for i in range(3200)]
        counts = np.bincount([d.node_id for d in sched.assign(state, pending)], minlength=100)
        shares = counts / 3200.0
        total_cpu = sum(n.cpu_capacity for n in nodes)
        for n in nodes:
            assert shares[n.id] == pytest.approx(n.cpu_capacity / total_cpu, abs=0.01)


class TestPriorityMinMin:
    def test_tie_breaks_to_lower_id(self):
        state = init_episode(SimConfig(), [], [node(0, cpu=4.0), node(1, cpu=8.0)])
        sched = PriorityMinMinScheduler()
        assert sched.assign(state, [task(0, cpu=2.0)])[0].node_id == 0

    def test_least_loaded_wins(self):
        ts = [task(0, duration=100.0, cpu=2.0), task(1, duration=100.0, cpu=1.0), task(2, cpu=1.0)]
        state = init_episode(SimConfig(), ts, [node(0, cpu=4.0), node(1, cpu=4.0)])
        enqueue_assignment(state, 0, 0)   # node 0 at u=0.5
        enqueue_assignment(state, 1, 1)   # node 1 at u=0.25
        sched = PriorityMinMinScheduler()
        assert sched.assign(state, [state.tasks[2]])[0].node_id == 1

    def test_saturated_cluster_rejects(self):
        ts = [task(0, duration=100.0, cpu=4.0), task(1, cpu=2.0)]
        state = init_episode(SimConfig(), ts, [node(0, cpu=4.0)])
        enqueue_assignment(state, 0, 0)
        sched = PriorityMinMinScheduler()
        assert sched.assign(state, [state.tasks[1]])[0].node_id is None

    def test_production_tasks_placed_first(self):
        ts = [task(0, cpu=3.0, priority=2), task(1, cpu=3.0, priority=0)]
        state = init_episode(SimConfig(), ts, [node(0, cpu=4.0)])
        sched = PriorityMinMinScheduler()
        decisions = {d.task_id: d for d in sched.assign(state, [state.tasks[0], state.tasks[1]])}
        assert decisions[1].node_id == 0      # Production task gets the slot
        assert decisions[0].node_id is None  # Best-effort cannot start now

    def test_in_call_bookkeeping(self):
        """Assignments earlier in a call count toward load for later tasks."""
        ts = [task(0, cpu=3.0), task(1, cpu=3.0)]
        state = init_episode(SimConfig(), ts, [node(0, cpu=4.0), node(1, cpu=4.0)])
        sched = PriorityMinMinScheduler()
        decisions = {d.task_id: d.node_id for d in sched.assign(state, [state.tasks[0], state.tasks[1]])}
        assert sorted(decisions.values()) == [0, 1]


def minmin_oracle(state, pending):
    """The per-node scan min-min ran before it was array-shaped: (task, node) pairs."""
    order = sorted(pending, key=lambda t: (t.priority, t.arrival, t.id))
    cpu_used = {n.spec.id: state.cpu_in_use[n.spec.id] for n in state.nodes}
    mem_used = {n.spec.id: state.mem_in_use[n.spec.id] for n in state.nodes}
    decisions = []
    for t in order:
        best, best_util = None, None
        for nd in state.nodes:
            nid = nd.spec.id
            if (
                cpu_used[nid] + t.cpu <= nd.spec.cpu_capacity
                and mem_used[nid] + t.mem <= nd.spec.mem_capacity
            ):
                util = cpu_used[nid] / nd.spec.cpu_capacity
                if best is None or util < best_util:
                    best, best_util = nid, util
        if best is not None:
            cpu_used[best] += t.cpu
            mem_used[best] += t.mem
        decisions.append((t.id, best))
    return decisions


class TestPriorityMinMinOracle:
    """The masked-argmin placement equals the per-node scan, decision for decision."""

    def random_case(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(1, 12))
        # few distinct capacities and quantized loads, so equal utilizations are common
        nodes = [node(i, cpu=float(rng.choice([2, 4, 8])), mem=float(rng.choice([4, 8, 16])))
                 for i in range(n_nodes)]
        state = init_episode(SimConfig(), [], nodes)
        for i, nd in enumerate(state.nodes):
            share = float(rng.choice([0.0, 0.25, 0.5, 1.0]))   # 1.0: saturated node
            state.cpu_in_use[i] = share * nd.spec.cpu_capacity
            state.mem_in_use[i] = float(rng.choice([0.0, 0.5])) * nd.spec.mem_capacity
        pending = [
            # cpu up to 12 cores: some tasks fit no node at all
            task(i, cpu=float(rng.choice([0.25, 0.5, 1.0, 2.0, 3.0, 12.0])),
                 mem=float(rng.choice([0.5, 1.0, 4.0, 20.0])),
                 arrival=float(rng.integers(0, 3)), priority=int(rng.integers(0, 3)))
            for i in rng.permutation(int(rng.integers(0, 40)))
        ]
        return state, pending

    @pytest.mark.parametrize("seed", range(200))
    def test_random_states(self, seed):
        state, pending = self.random_case(seed)
        got = [(d.task_id, d.node_id) for d in PriorityMinMinScheduler().assign(state, pending)]
        assert got == minmin_oracle(state, pending)

    def test_empty_pending(self):
        state = init_episode(SimConfig(), [], [node(0), node(1)])
        assert PriorityMinMinScheduler().assign(state, []) == []

    def test_loaded_cluster_matches_oracle(self):
        nodes = generate_cluster(derive_stream(3, "cl"), 100)
        state = init_episode(SimConfig(), [], nodes)
        rng = np.random.default_rng(3)
        for i, nd in enumerate(state.nodes):
            state.cpu_in_use[i] = float(rng.uniform(0.0, 1.0)) * nd.spec.cpu_capacity
            state.mem_in_use[i] = float(rng.uniform(0.0, 1.0)) * nd.spec.mem_capacity
        pending = [task(i, cpu=float(rng.lognormal(0.5, 0.8)), mem=float(rng.lognormal(2.0, 1.0)),
                        arrival=float(i // 7), priority=int(rng.integers(0, 3)))
                   for i in range(600)]
        got = [(d.task_id, d.node_id) for d in PriorityMinMinScheduler().assign(state, pending)]
        want = minmin_oracle(state, pending)
        assert got == want
        assert any(nid is None for _, nid in want) and any(nid is not None for _, nid in want)
