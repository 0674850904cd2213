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
from marlsched.workload import DEADLINE_FACTORS, Task


def node(nid, cpu=4.0, mem=64.0):
    return NodeSpec(id=nid, cpu_capacity=cpu, mem_capacity=mem,
                    p_idle=100.0, p_dyn=200.0, tier="Medium")


def task(tid, duration=10.0, cpu=1.0, mem=1.0, arrival=0.0, priority=1):
    return Task(id=tid, duration=duration, cpu=cpu, mem=mem, arrival=arrival,
                priority=priority, deadline=arrival + DEADLINE_FACTORS[priority] * duration)


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
        assert sched.assign(state, [task(0, cpu=2.0)]) == []

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
        assert sched.assign(state, [task(0, cpu=2.0)]) == []

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


def wrr_oracle(nodes, credits, pending):
    """The per-node credit loop wrr ran before its credits were an array:
    (task, node) pairs, node None for a task left pending, updating the list
    ``credits`` in place."""
    decisions = []
    for t in pending:
        feas = [n.id for n in nodes if t.cpu <= n.cpu_capacity and t.mem <= n.mem_capacity]
        if not feas:
            decisions.append((t.id, None))
            continue
        total = 0.0
        for nid in feas:
            w = nodes[nid].cpu_capacity
            credits[nid] += w
            total += w
        chosen = max(feas, key=lambda nid: (credits[nid], -nid))
        credits[chosen] -= total
        decisions.append((t.id, chosen))
    return decisions


class TestWeightedRoundRobinOracle:
    """The array credits equal the per-node loop, decision for decision and
    credit for credit, across consecutive calls."""

    @staticmethod
    def check(nodes, batches):
        state = init_episode(SimConfig(), [], nodes)
        sched = WeightedRoundRobinScheduler()
        sched.reset(state)
        credits, decisions = [0.0] * len(nodes), []
        for pending in batches:
            got = [(d.task_id, d.node_id) for d in sched.assign(state, pending)]
            assert got == placed(wrr_oracle(nodes, credits, pending))
            assert sched._credits.tolist() == credits
            decisions += got
        return decisions

    @pytest.mark.parametrize("seed", range(100))
    def test_random_states(self, seed):
        rng = np.random.default_rng(seed)
        # few distinct, mostly non-integer capacities: equal-capacity ties are
        # common and the credit sums round
        nodes = [node(i, cpu=float(rng.choice([0.3, 1.1, 2.7, 2.7, 4.0, 6.35])),
                      mem=float(rng.choice([4.0, 16.0])))
                 for i in range(int(rng.integers(1, 30)))]
        batches = [[task(int(k), cpu=float(rng.choice([0.2, 1.0, 2.5, 5.0, 9.0])),
                         mem=float(rng.choice([1.0, 8.0, 32.0])))   # 9 cores or 32 GB: fits nowhere
                    for k in rng.permutation(int(rng.integers(0, 30)))]
                   for _ in range(int(rng.integers(1, 6)))]
        self.check(nodes, batches)

    def test_equal_capacity_ties_to_lowest_id(self):
        """Equal weights: each decision is a credit tie broken to the lowest id,
        so the nodes take turns in id order."""
        decisions = self.check([node(i) for i in range(4)], [[task(i) for i in range(8)]])
        assert [nid for _, nid in decisions] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_loaded_cluster_matches_oracle(self):
        """100 nodes: enough feasible terms that a pairwise (numpy) sum of the
        payback would differ from the node-order sum."""
        nodes = generate_cluster(derive_stream(7, "cl"), 100)
        rng = np.random.default_rng(7)
        batches = [[task(50 * b + k, cpu=float(rng.lognormal(0.5, 0.8)), mem=float(rng.lognormal(2.0, 1.0)))
                    for k in range(50)] for b in range(40)]
        self.check(nodes, batches)


class TestPriorityMinMin:
    def test_tie_breaks_to_lower_id(self):
        state = init_episode(SimConfig(), [], [node(0, cpu=4.0), node(1, cpu=8.0)])
        sched = PriorityMinMinScheduler()
        assert sched.assign(state, [task(0, cpu=2.0)])[0].node_id == 0

    def test_least_loaded_wins(self):
        ts = [task(0, duration=100.0, cpu=2.0), task(1, duration=100.0, cpu=1.0), task(2, cpu=1.0)]
        state = init_episode(SimConfig(), ts, [node(0, cpu=4.0), node(1, cpu=4.0)])
        enqueue_assignment(state, [(0, 0)])   # node 0 at u=0.5
        enqueue_assignment(state, [(1, 1)])   # node 1 at u=0.25
        sched = PriorityMinMinScheduler()
        assert sched.assign(state, [state.tasks[2]])[0].node_id == 1

    def test_saturated_cluster_rejects(self):
        ts = [task(0, duration=100.0, cpu=4.0), task(1, cpu=2.0)]
        state = init_episode(SimConfig(), ts, [node(0, cpu=4.0)])
        enqueue_assignment(state, [(0, 0)])
        sched = PriorityMinMinScheduler()
        assert sched.assign(state, [state.tasks[1]]) == []

    def test_production_tasks_placed_first(self):
        ts = [task(0, cpu=3.0, priority=2), task(1, cpu=3.0, priority=0)]
        state = init_episode(SimConfig(), ts, [node(0, cpu=4.0)])
        sched = PriorityMinMinScheduler()
        # the Production task gets the slot; Best-effort cannot start now
        assert sched.assign(state, [state.tasks[0], state.tasks[1]]) == [(1, 0)]

    def test_in_call_bookkeeping(self):
        """Assignments earlier in a call count toward load for later tasks."""
        ts = [task(0, cpu=3.0), task(1, cpu=3.0)]
        state = init_episode(SimConfig(), ts, [node(0, cpu=4.0), node(1, cpu=4.0)])
        sched = PriorityMinMinScheduler()
        decisions = {d.task_id: d.node_id for d in sched.assign(state, [state.tasks[0], state.tasks[1]])}
        assert sorted(decisions.values()) == [0, 1]


def minmin_oracle(state, pending):
    """The per-node scan min-min ran before it was array-shaped: (task, node)
    pairs, node None for a task left pending."""
    order = sorted(pending, key=lambda t: (t.priority, t.arrival, t.id))
    cpu_cap, mem_cap = state.specs.cpu_capacity.tolist(), state.specs.mem_capacity.tolist()
    cpu_used = {nid: state.cpu_in_use[nid] for nid in range(state.n_nodes)}
    mem_used = {nid: state.mem_in_use[nid] for nid in range(state.n_nodes)}
    decisions = []
    for t in order:
        best, best_util = None, None
        for nid in range(state.n_nodes):
            if (
                cpu_used[nid] + t.cpu <= cpu_cap[nid]
                and mem_used[nid] + t.mem <= mem_cap[nid]
            ):
                util = cpu_used[nid] / cpu_cap[nid]
                if best is None or util < best_util:
                    best, best_util = nid, util
        if best is not None:
            cpu_used[best] += t.cpu
            mem_used[best] += t.mem
        decisions.append((t.id, best))
    return decisions


def placed(decisions):
    """The placements of an oracle's (task, node) pairs, in order."""
    return [(t, n) for t, n in decisions if n is not None]


def rounding_boundary(holds):
    """(used, size, cap) where ``used + size <= cap`` is ``holds`` and
    ``size <= cap - used`` is not: the two fit tests disagree in the last bit."""
    rng = np.random.default_rng(0)
    while True:
        used, size = rng.uniform(0.1, 4.0, 2).tolist()
        for cap in (used + size, float(np.nextafter(used + size, 0.0))):
            if (used + size <= cap) == holds and (size <= cap - used) != holds:
                return used, size, cap


class TestPriorityMinMinOracle:
    """The (utilization, id) first-fit scan with its staircase of failed sizes
    equals the per-node scan, decision for decision."""

    def decide(self, state, pending):
        got = [(d.task_id, d.node_id) for d in PriorityMinMinScheduler().assign(state, pending)]
        assert got == placed(minmin_oracle(state, pending))
        return got

    @pytest.mark.parametrize("holds", [True, False])
    @pytest.mark.parametrize("dim", ["cpu", "mem"])
    def test_fit_is_used_plus_size_within_capacity(self, dim, holds):
        used, size, cap = rounding_boundary(holds)
        spec = {"cpu": 8.0, "mem": 64.0, dim: cap}
        state = init_episode(SimConfig(), [], [node(0, **spec)])
        getattr(state, f"{dim}_in_use")[0] = used
        sizes = {"cpu": 0.5, "mem": 0.5, dim: size}
        assert self.decide(state, [task(0, **sizes)]) == ([(0, 0)] if holds else [])

    def test_task_smaller_in_one_dimension_is_still_placed(self):
        """Tasks 0 and 1 fit nowhere; each later task is larger than one of them
        in one dimension and smaller in the other, so only a scan decides it."""
        state = init_episode(SimConfig(), [], [node(0, cpu=4.0, mem=8.0), node(1, cpu=4.0, mem=8.0)])
        pending = [task(0, cpu=1.0, mem=10.0, priority=0), task(1, cpu=5.0, mem=1.0, priority=0),
                   task(2, cpu=2.0, mem=1.0), task(3, cpu=4.0, mem=2.0),
                   task(4, cpu=6.0, mem=0.5), task(5, cpu=0.5, mem=9.0),
                   task(6, cpu=7.0, mem=1.0, priority=2), task(7, cpu=1.0, mem=2.0, priority=2)]
        assert dict(self.decide(state, pending)) == {2: 0, 3: 1, 7: 0}

    def test_node_with_room_for_exactly_the_smallest_task_keeps_it(self):
        """Free room equal to the call's smallest cpu and mem, at the start of
        the call or after a placement, still takes that task."""
        state = init_episode(SimConfig(), [], [node(0, cpu=4.0, mem=8.0)])
        state.cpu_in_use[0], state.mem_in_use[0] = 3.0, 7.0
        assert self.decide(state, [task(0, cpu=1.0, mem=1.0)]) == [(0, 0)]
        state.cpu_in_use[0], state.mem_in_use[0] = 0.0, 0.0
        pending = [task(0, cpu=3.0, mem=7.0, priority=0), task(1, cpu=1.0, mem=1.0)]
        assert self.decide(state, pending) == [(0, 0), (1, 0)]

    def test_node_with_cpu_but_no_mem_for_the_smallest_task_is_skipped(self):
        """Node 0 is the least utilized and has cores for every task, but less
        free memory than the smallest task needs: everything goes to node 1."""
        state = init_episode(SimConfig(), [], [node(0, cpu=8.0, mem=4.0), node(1, cpu=8.0)])
        state.mem_in_use[0], state.cpu_in_use[1] = 3.5, 4.0
        pending = [task(0, cpu=1.0, mem=1.0), task(1, cpu=1.0, mem=2.0)]
        assert self.decide(state, pending) == [(0, 1), (1, 1)]

    def test_equal_utilization_after_reinsertion_ties_to_lower_id(self):
        state = init_episode(SimConfig(), [], [node(0, cpu=8.0), node(1, cpu=4.0)])
        state.cpu_in_use[0] = 2.0      # u = 0.25; node 1 idle
        pending = [task(i, cpu=1.0) for i in range(5)]
        # node 1 reaches u = 0.25 and ties node 0, then each placement re-ties the two
        assert self.decide(state, pending) == [(0, 1), (1, 0), (2, 1), (3, 0), (4, 0)]

    def test_pending_out_of_arrival_order(self):
        state = init_episode(SimConfig(), [], [node(0, cpu=4.0)])
        pending = [task(5, cpu=3.0, arrival=3.0), task(9, cpu=3.0, arrival=1.0),
                   task(2, cpu=0.5, arrival=2.0), task(7, cpu=0.5, arrival=1.0),
                   task(4, cpu=0.5, arrival=1.0), task(1, cpu=2.0, arrival=0.0, priority=2)]
        assert self.decide(state, pending) == [(4, 0), (7, 0), (9, 0)]

    def random_case(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(1, 12))
        # few distinct capacities and quantized loads, so equal utilizations are common
        nodes = [node(i, cpu=float(rng.choice([2, 4, 8])), mem=float(rng.choice([4, 8, 16])))
                 for i in range(n_nodes)]
        state = init_episode(SimConfig(), [], nodes)
        for i, nd in enumerate(nodes):
            share = float(rng.choice([0.0, 0.25, 0.5, 1.0]))   # 1.0: saturated node
            state.cpu_in_use[i] = share * nd.cpu_capacity
            state.mem_in_use[i] = float(rng.choice([0.0, 0.5])) * nd.mem_capacity
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
        assert got == placed(minmin_oracle(state, pending))

    def test_empty_pending(self):
        state = init_episode(SimConfig(), [], [node(0), node(1)])
        assert PriorityMinMinScheduler().assign(state, []) == []

    def test_loaded_cluster_matches_oracle(self):
        nodes = generate_cluster(derive_stream(3, "cl"), 100)
        state = init_episode(SimConfig(), [], nodes)
        rng = np.random.default_rng(3)
        for i, nd in enumerate(nodes):
            state.cpu_in_use[i] = float(rng.uniform(0.0, 1.0)) * nd.cpu_capacity
            state.mem_in_use[i] = float(rng.uniform(0.0, 1.0)) * nd.mem_capacity
        pending = [task(i, cpu=float(rng.lognormal(0.5, 0.8)), mem=float(rng.lognormal(2.0, 1.0)),
                        arrival=float(i // 7), priority=int(rng.integers(0, 3)))
                   for i in range(600)]
        got = [(d.task_id, d.node_id) for d in PriorityMinMinScheduler().assign(state, pending)]
        want = minmin_oracle(state, pending)
        assert got == placed(want)
        assert any(nid is None for _, nid in want) and any(nid is not None for _, nid in want)
