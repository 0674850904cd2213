"""Engine oracles: admission, completion traces, drops, energy and observations."""

from dataclasses import fields

import numpy as np
import pytest

from marlsched.cluster import (
    MAX_CPU_CAPACITY,
    MAX_MEM_CAPACITY,
    MAX_P_DYN,
    MAX_P_IDLE,
    NodeSpec,
    generate_cluster,
    stack_specs,
    step_energy,
)
from marlsched.rng import derive_stream
from marlsched.simenv import (
    DURATION_LOG_CEILING,
    NEIGHBOR_COUNT,
    OBS_DIM,
    QUEUE_WINDOW,
    TASK_FEATURES,
    CompletionRecord,
    SimConfig,
    StepReport,
    advance,
    build_observation,
    enqueue_assignment,
    feasible_nodes,
    init_episode,
    total_energy,
)
from marlsched.workload import DEADLINE_FACTORS, Task, generate_workload


def node(nid, cpu=4.0, mem=64.0, p_idle=100.0, p_dyn=200.0, tier="Medium"):
    return NodeSpec(id=nid, cpu_capacity=cpu, mem_capacity=mem,
                    p_idle=p_idle, p_dyn=p_dyn, tier=tier)


def task(tid, duration, cpu=1.0, mem=1.0, arrival=0.0, priority=1):
    return Task(id=tid, duration=duration, cpu=cpu, mem=mem, arrival=arrival,
                priority=priority, deadline=arrival + DEADLINE_FACTORS[priority] * duration)


def node_spec(state, i):
    """Node i's spec with scalar fields, read back from the state's population."""
    return NodeSpec(*(getattr(state.specs, f.name).item(i) for f in fields(NodeSpec)))


def advance_energy(state):
    """One 5-s step: its report and the joules each node accrued in it."""
    before = [n.energy_joules for n in state.nodes]
    report = advance(state, 5.0)
    return report, [n.energy_joules - b for n, b in zip(state.nodes, before)]


@pytest.mark.parametrize("cls, values", [
    (Task, dict(id=3, duration=8.0, cpu=1.5, mem=2.0, arrival=4.0, priority=2, deadline=44.0)),
    (CompletionRecord, dict(task_id=3, arrival=4.0, finish_time=20.0, completion_time=16.0,
                            met_sla=True, priority=2, node_id=1)),
])
def test_records_keep_field_order_and_reject_assignment(cls, values):
    record = cls(**values)
    assert record == cls(*values.values())
    assert [getattr(record, name) for name in values] == list(values.values())
    assert hash(record) == hash(cls(**values))
    for name in [*values, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
    assert [getattr(record, name) for name in values] == list(values.values())


class TestInit:
    def test_fresh_state(self):
        tasks = generate_workload(derive_stream(42, "wl"), 1000)
        nodes = generate_cluster(derive_stream(42, "cl"), 100)
        state = init_episode(SimConfig(), tasks, nodes)
        assert state.n_nodes == 100
        assert all(not n.running and not n.queue for n in state.nodes)
        assert state.cpu_in_use.tolist() == [0.0] * 100
        assert total_energy(state) == 0.0
        assert not state.all_resolved()
        assert np.var(state.utilization()) == 0.0

    def test_empty_nodes_rejected(self):
        with pytest.raises(ValueError):
            init_episode(SimConfig(), [task(0, 10.0)], [])

    def test_unsorted_arrivals_rejected(self):
        ts = [task(0, 10.0, arrival=5.0), task(1, 10.0, arrival=1.0)]
        with pytest.raises(ValueError):
            init_episode(SimConfig(), ts, [node(0)])


class TestFeasibility:
    def test_large_cpu_only_high_tier(self):
        nodes = generate_cluster(derive_stream(42, "cl"), 10)
        state = init_episode(SimConfig(), [], nodes)
        feas = feasible_nodes(state, task(0, 10.0, cpu=20.0))
        assert feas and all(nodes[i].tier == "High" for i in feas)

    def test_oversized_mem_infeasible_everywhere(self):
        nodes = generate_cluster(derive_stream(42, "cl"), 10)
        state = init_episode(SimConfig(), [], nodes)
        assert feasible_nodes(state, task(0, 10.0, mem=200.0)) == []


class TestAssignment:
    def test_idle_node_starts_immediately(self):
        state = init_episode(SimConfig(), [task(0, 10.0, cpu=2.0)], [node(0)])
        enqueue_assignment(state, [(0, 0)])
        nd = state.nodes[0]
        assert not nd.queue and len(nd.running) == 1
        assert nd.running == [(10.0, 0)]   # (finish_time, task_id): started at 0
        assert state.cpu_in_use[0] == 2.0

    def test_busy_node_queues(self):
        ts = [task(0, 10.0, cpu=3.0), task(1, 10.0, cpu=3.0)]
        state = init_episode(SimConfig(), ts, [node(0, cpu=4.0)])
        enqueue_assignment(state, [(0, 0)])
        enqueue_assignment(state, [(1, 0)])
        nd = state.nodes[0]
        assert len(nd.running) == 1 and nd.queue == [1]

    def test_static_infeasibility_rejected(self):
        state = init_episode(SimConfig(), [task(0, 10.0, mem=100.0)], [node(0, mem=64.0)])
        with pytest.raises(ValueError):
            enqueue_assignment(state, [(0, 0)])

    def test_unknown_or_nonpending_task_rejected(self):
        state = init_episode(SimConfig(), [task(0, 10.0)], [node(0)])
        with pytest.raises(ValueError):
            enqueue_assignment(state, [(99, 0)])
        enqueue_assignment(state, [(0, 0)])
        with pytest.raises(ValueError):
            enqueue_assignment(state, [(0, 0)])


class TestAdvance:
    def test_single_task_trace(self):
        state = init_episode(SimConfig(), [task(0, 10.0, cpu=2.0)], [node(0)])
        enqueue_assignment(state, [(0, 0)])
        r1 = advance(state, 5.0)
        assert r1.completions == []
        r2 = advance(state, 5.0)
        assert [c.task_id for c in r2.completions] == [0]
        c = r2.completions[0]
        assert c.completion_time == 10.0 and c.finish_time == 10.0 and c.met_sla
        assert state.all_resolved()

    def test_queued_task_admitted_at_step_boundary(self):
        """Hand-computed two-node trace covering admission, completion and energy.

        Node 0 (C=4, 100/200 W): t0 (cpu 2, 10 s) runs 0-10; t1 (cpu 3, 7 s)
        queues, starts at the t=10 boundary, finishes 17.  Per-step energy on
        node 0: 1000, 1250, 1250, 500 J.  Node 1 stays idle at 50 W.
        """
        ts = [task(0, 10.0, cpu=2.0), task(1, 7.0, cpu=3.0)]
        nodes = [node(0, cpu=4.0), node(1, cpu=4.0, p_idle=50.0)]
        state = init_episode(SimConfig(), ts, nodes)
        enqueue_assignment(state, [(0, 0)])
        enqueue_assignment(state, [(1, 0)])

        r1, e1 = advance_energy(state)     # [0,5]: t0 running (U=2), t1 queued
        assert e1[0] == 1000.0
        assert e1[1] == 250.0
        assert r1.energy_joules == 1250.0
        r2, e2 = advance_energy(state)     # t0 completes at 10; t1 admitted at 10 (U=3)
        assert [c.task_id for c in r2.completions] == [0]
        assert state.nodes[0].running == [(17.0, 1)]   # admitted at 10, runs 7 s
        assert e2[0] == 1250.0
        _, e3 = advance_energy(state)      # [10,15]: t1 running
        assert e3[0] == 1250.0
        r4, e4 = advance_energy(state)     # t1 completes at 17
        assert [c.task_id for c in r4.completions] == [1]
        assert r4.completions[0].completion_time == 17.0
        assert e4[0] == 500.0
        assert state.nodes[0].energy_joules == 4000.0
        assert state.nodes[1].energy_joules == 1000.0
        assert state.all_resolved()

    def test_last_task_resolved_by_a_deadline_drop(self):
        """A task too big for any node stays pending until its deadline drop,
        which resolves the episode."""
        ts = [task(0, 10.0), task(1, 10.0, cpu=8.0)]
        state = init_episode(SimConfig(), ts, [node(0)])
        assert feasible_nodes(state, ts[1]) == []
        enqueue_assignment(state, [(0, 0)])
        while not state.dropped:
            assert not state.all_resolved()
            advance(state, 5.0)
        assert [c.task_id for c in state.completions] == [0] and state.dropped == [1]
        assert state.all_resolved()

    def test_idle_node_energy_per_step(self):
        state = init_episode(SimConfig(), [], [node(0)])
        _, e = advance_energy(state)
        assert e[0] == 500.0

    def test_unassigned_task_dropped_after_deadline(self):
        t = Task(id=0, duration=8.0, cpu=1.0, mem=1.0, arrival=0.0, priority=0, deadline=12.0)
        state = init_episode(SimConfig(), [t], [node(0)])
        advance(state, 5.0)
        advance(state, 5.0)
        assert state.dropped == []
        r = advance(state, 5.0)        # step covering t=15 > deadline 12
        assert r.dropped == [0] and state.dropped == [0]
        assert not state.pending and state.completions == []

    def test_arrivals_revealed_in_order(self):
        ts = [task(0, 10.0, arrival=3.0), task(1, 10.0, arrival=4.0), task(2, 10.0, arrival=12.0)]
        state = init_episode(SimConfig(), ts, [node(0)])
        r1 = advance(state, 5.0)
        assert r1.arrived == [0, 1]
        r2 = advance(state, 5.0)
        assert r2.arrived == []
        r3 = advance(state, 5.0)
        assert r3.arrived == [2]
        # input order, not id order; a tie on the step boundary arrives with it
        ts = [task(7, 10.0, arrival=2.0), task(3, 10.0, arrival=5.0), task(5, 10.0, arrival=5.0)]
        state = init_episode(SimConfig(), ts, [node(0)])
        assert advance(state, 5.0).arrived == [7, 3, 5]

    def test_wrong_dt_rejected(self):
        state = init_episode(SimConfig(), [], [node(0)])
        with pytest.raises(ValueError):
            advance(state, 1.0)

    def test_task_conservation(self):
        """Every task ends up completed, dropped, pending, queued/running or unrevealed."""
        from marlsched.schedulers import RandomScheduler

        tasks = generate_workload(derive_stream(3, "wl"), 100)
        nodes = generate_cluster(derive_stream(3, "cl"), 5)
        state = init_episode(SimConfig(), tasks, nodes)
        sched = RandomScheduler()
        sched.reset(state, derive_stream(3, "sched"))
        while state.time < state.config.max_time and not state.all_resolved():
            enqueue_assignment(state, sched.assign(state, list(state.pending.values())))
            advance(state, 5.0)
            accounted = (
                len(state.completions) + len(state.dropped) + len(state.pending)
                + sum(len(n.queue) + len(n.running) for n in state.nodes)
                + (len(tasks) - state._next_arrival_idx)
            )
            assert accounted == len(tasks)
        assert len(state.completions) + len(state.dropped) == len(tasks)

    def test_pending_keeps_arrival_order(self):
        """Enqueues and deadline drops remove ids; the rest stay in arrival order."""
        tasks = generate_workload(derive_stream(4, "wl"), 300, arrival_rate=2.0)
        state = init_episode(SimConfig(), tasks, [node(0, cpu=2.0, mem=8.0)])
        expected, placed, dropped = list(state.pending), 0, 0
        for _ in range(60):
            # place every third pending task that fits the node's capacity
            for tid in list(state.pending)[::3]:
                t = state.tasks[tid]
                if t.cpu <= 2.0 and t.mem <= 8.0:
                    enqueue_assignment(state, [(tid, 0)])
                    expected.remove(tid)
                    placed += 1
            report = advance(state, 5.0)
            expected = [tid for tid in expected if tid not in report.dropped] + report.arrived
            dropped += len(report.dropped)
            assert list(state.pending) == expected
            assert expected == sorted(expected)
        assert placed and dropped and state.pending


class TestEnergy:
    def test_zero_assignment_idle_identity(self):
        """With nothing scheduled, energy is exactly the idle integral."""
        nodes = generate_cluster(derive_stream(5, "cl"), 100)
        state = init_episode(SimConfig(), [], nodes)
        horizon = 1000.0
        while state.time < horizon:
            advance(state, 5.0)
        expected = sum(n.p_idle for n in nodes) * horizon
        actual = sum(n.energy_joules for n in state.nodes)
        assert actual == pytest.approx(expected, rel=1e-9)
        assert total_energy(state) == pytest.approx(expected / 3.6e6, rel=1e-9)

    def test_energy_deterministic(self):
        def run():
            tasks = generate_workload(derive_stream(9, "wl"), 50)
            nodes = generate_cluster(derive_stream(9, "cl"), 5)
            state = init_episode(SimConfig(), tasks, nodes)
            for tid in list(state.pending):
                enqueue_assignment(state, [(tid, feasible_nodes(state, state.tasks[tid])[0])])
            while not state.all_resolved() and state.time < 10_000.0:
                for tid in list(state.pending):
                    enqueue_assignment(state, [(tid, feasible_nodes(state, state.tasks[tid])[0])])
                advance(state, 5.0)
            return total_energy(state)

        assert run() == run()


class TestObservation:
    def test_idle_empty_state(self):
        state = init_episode(SimConfig(), [], [node(i) for i in range(6)])
        observations = build_observation(state)
        assert observations.shape == (6, OBS_DIM)
        obs = observations[0]
        assert obs[0] == obs[1] == obs[2] == 0.0
        assert np.all(obs[7:10] == 0.0)          # all neighbors idle
        assert np.all(obs[10:] == 0.0)           # empty task window

    def test_static_features(self):
        state = init_episode(SimConfig(), [], [node(i, cpu=16.0, mem=64.0,
                                                    p_idle=90.0, p_dyn=200.0)
                                               for i in range(6)])
        obs = build_observation(state)[0]
        assert obs[3] == 16.0 / 32.0
        assert obs[4] == 64.0 / 128.0
        assert obs[5] == 90.0 / 180.0
        assert obs[6] == 200.0 / 400.0

    def test_neighbor_aggregates(self):
        nodes = [node(i, cpu=4.0) for i in range(6)]
        ts = [task(i, 50.0, cpu=2.0) for i in range(3)]
        state = init_episode(SimConfig(), ts, nodes)
        # nodes 1, 2, 4, 5 are node 0's ring neighbors
        enqueue_assignment(state, [(0, 1)])   # u=0.5
        enqueue_assignment(state, [(1, 2)])   # u=0.5
        enqueue_assignment(state, [(2, 4)])   # u=0.5
        obs = build_observation(state)[0]
        assert obs[7] == pytest.approx(0.375)    # mean of (0.5, 0.5, 0.5, 0.0)
        assert obs[8] == 0.0
        assert obs[9] == 0.5

    def test_task_window_padding(self):
        ts = [task(i, 10.0) for i in range(3)]
        state = init_episode(SimConfig(), ts, [node(0)])
        obs = build_observation(state)[0]
        assert np.any(obs[10:25] != 0.0)
        assert np.all(obs[10 + 3 * 5:] == 0.0)   # last 5 slots (25 values) zero

    def test_all_features_in_unit_interval(self):
        tasks = generate_workload(derive_stream(11, "wl"), 60)
        nodes = generate_cluster(derive_stream(11, "cl"), 8)
        state = init_episode(SimConfig(), tasks, nodes)
        for _ in range(40):
            for tid in list(state.pending)[:2]:
                feas = feasible_nodes(state, state.tasks[tid])
                if feas:
                    enqueue_assignment(state, [(tid, feas[0])])
            advance(state, 5.0)
            for obs in build_observation(state):
                assert np.all(obs >= 0.0) and np.all(obs <= 1.0)

    def test_queue_length_feature(self):
        ts = [task(i, 100.0, cpu=4.0) for i in range(5)]
        state = init_episode(SimConfig(), ts, [node(0, cpu=4.0)])
        for tid in range(5):
            enqueue_assignment(state, [(tid, 0)])
        obs = build_observation(state)[0]
        assert obs[2] == pytest.approx(4 / 50.0)  # one running, four queued


def reference_observation(state, node_id):
    """Node ``node_id``'s observation, built feature by feature for that node alone."""
    node = state.nodes[node_id]
    obs = np.zeros(OBS_DIM)
    spec = node_spec(state, node_id)
    obs[0] = state.cpu_in_use[node_id] / spec.cpu_capacity
    obs[1] = state.mem_in_use[node_id] / spec.mem_capacity
    obs[2] = min(len(node.queue), 50) / 50.0
    obs[3] = spec.cpu_capacity / MAX_CPU_CAPACITY
    obs[4] = spec.mem_capacity / MAX_MEM_CAPACITY
    obs[5] = spec.p_idle / MAX_P_IDLE
    obs[6] = spec.p_dyn / MAX_P_DYN

    n = len(state.nodes)
    neighbor_ids = []
    for off in range(1, NEIGHBOR_COUNT // 2 + 1):
        neighbor_ids.append((node_id - off) % n)
        neighbor_ids.append((node_id + off) % n)
    neighbor_ids = [i for i in dict.fromkeys(neighbor_ids) if i != node_id]
    if neighbor_ids:
        nb = np.array([state.cpu_in_use[i] / node_spec(state, i).cpu_capacity for i in neighbor_ids])
        obs[7] = nb.mean()
        obs[8] = nb.min()
        obs[9] = nb.max()

    for k, tid in enumerate(list(state.pending)[:QUEUE_WINDOW]):
        t = state.tasks[tid]
        base = 10 + k * TASK_FEATURES
        obs[base] = t.cpu / MAX_CPU_CAPACITY
        obs[base + 1] = t.mem / MAX_MEM_CAPACITY
        obs[base + 2] = (3 - t.priority) / 3.0
        obs[base + 3] = (t.deadline - state.time) / (t.deadline - t.arrival)
        obs[base + 4] = min(np.log(t.duration / 5.0) / np.log(DURATION_LOG_CEILING), 1.0)
    return np.clip(obs, 0.0, 1.0)


@pytest.mark.parametrize("n", range(1, 7))
def test_batched_observation_rows_match_reference(n):
    """Every row of the batched build equals the per-node reference, bit for
    bit, on busy states: queued tasks, partial and full pending windows, and
    the small rings (n <= 4) where neighbor offsets repeat or hit the node."""
    rng = np.random.default_rng(n)
    tasks = generate_workload(derive_stream(n, "wl"), 150, arrival_rate=1.0)
    state = init_episode(SimConfig(), tasks, generate_cluster(derive_stream(n, "cl"), n))
    windows, queued = set(), 0
    for _ in range(40):
        for tid in list(state.pending):
            feas = feasible_nodes(state, state.tasks[tid])
            if feas and rng.random() < 0.4:
                enqueue_assignment(state, [(tid, feas[int(rng.integers(len(feas)))])])
        observations = build_observation(state)
        assert observations.shape == (n, OBS_DIM)
        for i in range(n):
            assert np.array_equal(observations[i], reference_observation(state, i))
        windows.add(min(len(state.pending), 8))
        queued += sum(len(nd.queue) for nd in state.nodes)
        advance(state, 5.0)
    assert queued > 0 and 8 in windows and len(windows) > 2


# The completion, admission and energy passes as the engine ran them before its
# running lists were kept in completion order and its energy was one array call:
# admission appends a (finish_time, task_id) pair, each step sorts a node's
# finished tasks and removes them one by one, and each node's energy is its own
# scalar step_energy call.

def reference_admit(state, i, now):
    node, spec = state.nodes[i], node_spec(state, i)
    while node.queue:
        task = state.tasks[node.queue[0]]
        if (
            state.cpu_in_use[i] + task.cpu <= spec.cpu_capacity
            and state.mem_in_use[i] + task.mem <= spec.mem_capacity
        ):
            node.queue.pop(0)
            node.running.append((now + task.duration, task.id))
            state.cpu_in_use[i] += task.cpu
            state.mem_in_use[i] += task.mem
        else:
            break


def reference_enqueue(state, task_id, node_id):
    del state.pending[task_id]
    state.nodes[node_id].queue.append(task_id)
    reference_admit(state, node_id, state.time)


def reference_advance(state, dt):
    new_time = state.time + dt
    completions = []
    for i, node in enumerate(state.nodes):
        done = sorted(rt for rt in node.running if rt[0] <= new_time)
        for rt in done:
            node.running.remove(rt)
            finish_time, task_id = rt
            task = state.tasks[task_id]
            state.cpu_in_use[i] -= task.cpu
            state.mem_in_use[i] -= task.mem
            completions.append(CompletionRecord(
                task_id=task.id, arrival=task.arrival, finish_time=finish_time,
                completion_time=finish_time - task.arrival,
                met_sla=finish_time <= task.deadline, priority=task.priority,
                node_id=i,
            ))
        if not node.running:
            state.cpu_in_use[i] = 0.0
            state.mem_in_use[i] = 0.0
    for i in range(state.n_nodes):
        reference_admit(state, i, new_time)
    arrived = []
    while (state._next_arrival_idx < len(state._arrivals)
           and state._arrivals[state._next_arrival_idx].arrival <= new_time):
        arrived.append(state._arrivals[state._next_arrival_idx].id)
        state.pending[arrived[-1]] = state.tasks[arrived[-1]]
        state._next_arrival_idx += 1
    dropped = [tid for tid in state.pending if state.tasks[tid].deadline < new_time]
    for tid in dropped:
        del state.pending[tid]
    state.dropped.extend(dropped)
    node_energy = []
    utils = np.empty(state.n_nodes)
    for i, node in enumerate(state.nodes):
        spec = node_spec(state, i)
        e = step_energy(spec, float(state.cpu_in_use[i]), dt)
        node.energy_joules += e
        node_energy.append(e)
        utils[i] = state.cpu_in_use[i] / spec.cpu_capacity
    util_variance = float(np.var(utils))
    state.util_variance_sum += util_variance
    state.steps += 1
    state.time = new_time
    state.completions.extend(completions)
    return StepReport(arrived=arrived, completions=completions, dropped=dropped,
                      energy_joules=sum(node_energy), util_variance=util_variance)


class TestAdvanceOracle:
    """``advance`` equals the sort-and-remove reference step for step, bit for bit."""

    @staticmethod
    def random_case(seed):
        rng = np.random.default_rng(seed)
        nodes = [node(i, cpu=float(rng.choice([2, 4, 8])), mem=float(rng.choice([4, 8, 16])),
                      p_idle=float(rng.choice([37.3, 100.0])), p_dyn=float(rng.choice([91.7, 200.0])))
                 for i in range(int(rng.integers(1, 7)))]
        # Arrivals and durations on a coarse grid, so tasks started together
        # often finish together; odd cpu shares make the sums drift.
        arrivals = np.sort(rng.choice(np.arange(0.0, 150.0, 2.5), size=int(rng.integers(1, 60))))
        tasks = [task(k, float(rng.choice([2.5, 5.0, 7.5, 10.0, 40.0])),
                      cpu=float(rng.choice([0.1, 0.3, 0.7, 1.0, 2.0, 9.0])),
                      mem=float(rng.choice([0.2, 1.1, 3.0])), arrival=float(a),
                      priority=int(rng.integers(0, 3)))
                 for k, a in enumerate(arrivals)]
        return rng, tasks, nodes

    @pytest.mark.parametrize("seed", range(60))
    def test_random_episodes(self, seed):
        rng, tasks, nodes = self.random_case(seed)
        state = init_episode(SimConfig(), tasks, nodes)
        ref = init_episode(SimConfig(), tasks, nodes)
        while state.time < 300.0:
            assert list(state.pending) == list(ref.pending)
            for tid in list(state.pending):
                feas = feasible_nodes(state, state.tasks[tid])
                if feas and rng.random() < 0.6:
                    nid = feas[int(rng.integers(len(feas)))]
                    enqueue_assignment(state, [(tid, nid)])
                    reference_enqueue(ref, tid, nid)
            report = advance(state, 5.0)
            want = reference_advance(ref, 5.0)
            assert report == want
            assert np.array_equal(state.cpu_in_use, ref.cpu_in_use)
            assert np.array_equal(state.mem_in_use, ref.mem_in_use)
            assert [n.energy_joules for n in state.nodes] == [n.energy_joules for n in ref.nodes]
            for got, exp in zip(state.nodes, ref.nodes):
                assert got.queue == exp.queue
                assert sorted(got.running, key=lambda rt: rt[1]) == sorted(exp.running, key=lambda rt: rt[1])
                assert got.running == sorted(got.running)
        assert state.dropped == ref.dropped and state.completions == ref.completions

    @pytest.mark.parametrize("seed", [1, 2])
    def test_large_loaded_cluster(self, seed):
        """100 nodes: enough terms that a pairwise (numpy) sum of the step
        energy would differ from the node-order sum."""
        rng = np.random.default_rng(seed)
        tasks = generate_workload(derive_stream(seed, "wl"), 800, arrival_rate=4.0)
        nodes = generate_cluster(derive_stream(seed, "cl"), 100)
        state = init_episode(SimConfig(), tasks, nodes)
        ref = init_episode(SimConfig(), tasks, nodes)
        for _ in range(40):
            for tid in list(state.pending):
                feas = feasible_nodes(state, state.tasks[tid])
                if feas and rng.random() < 0.8:
                    nid = feas[int(rng.integers(len(feas)))]
                    enqueue_assignment(state, [(tid, nid)])
                    reference_enqueue(ref, tid, nid)
            assert advance(state, 5.0) == reference_advance(ref, 5.0)
            assert [n.energy_joules for n in state.nodes] == [n.energy_joules for n in ref.nodes]
        assert state.completions and np.count_nonzero(state.cpu_in_use) > 10

    def test_batched_enqueue_equals_per_task_enqueues(self):
        """One ``enqueue_assignment`` call per step equals the per-task reference
        enqueues in its order: queues, running lists, load bits and pending
        order, with blocked queue heads and several tasks per node."""
        blocked = shared = 0
        for seed in range(60):
            rng, tasks, nodes = self.random_case(seed)
            state = init_episode(SimConfig(), tasks, nodes)
            ref = init_episode(SimConfig(), tasks, nodes)
            while state.time < 300.0:
                decisions = []
                for tid in rng.permutation(list(state.pending)).tolist():
                    feas = feasible_nodes(state, state.tasks[tid])
                    if feas and rng.random() < 0.6:
                        decisions.append((tid, feas[int(rng.integers(len(feas)))]))
                targets = {nid for _, nid in decisions}
                blocked += sum(bool(state.nodes[nid].queue) for nid in targets)
                shared += len(decisions) - len(targets)
                enqueue_assignment(state, decisions)
                for tid, nid in decisions:
                    reference_enqueue(ref, tid, nid)
                assert list(state.pending) == list(ref.pending), seed
                assert np.array_equal(state.cpu_in_use, ref.cpu_in_use), seed
                assert np.array_equal(state.mem_in_use, ref.mem_in_use), seed
                for got, exp in zip(state.nodes, ref.nodes):
                    assert got.queue == exp.queue, seed
                    assert got.running == sorted(exp.running), seed
                assert advance(state, 5.0) == reference_advance(ref, 5.0), seed
        assert blocked > 50 and shared > 50

    def test_failed_decision_leaves_the_earlier_ones_applied(self):
        """A decision that fails raises after the decisions before it are queued
        and admitted, as per-task enqueues would leave them."""
        ts = [task(0, 10.0, cpu=3.0), task(1, 10.0, cpu=3.0), task(2, 10.0, cpu=1.0)]
        state = init_episode(SimConfig(), ts, [node(0, cpu=4.0)])
        with pytest.raises(ValueError, match="task 7 is not pending"):
            enqueue_assignment(state, [(0, 0), (1, 0), (7, 0), (2, 0)])
        assert state.nodes[0].running == [(10.0, 0)] and state.nodes[0].queue == [1]
        assert list(state.pending) == [2] and state.cpu_in_use[0] == 3.0

    def test_equal_finish_times_complete_in_task_id_order(self):
        """Three tasks finishing at the same instant on one node, admitted in
        the reverse of their id order, complete in id order."""
        ts = [task(0, 10.0, cpu=1.0), task(1, 5.0, cpu=1.0), task(3, 10.0, cpu=1.0),
              task(2, 5.0, cpu=1.0, arrival=5.0)]
        state = init_episode(SimConfig(), ts, [node(0, cpu=4.0)])
        enqueue_assignment(state, [(3, 0)])    # 0-10
        enqueue_assignment(state, [(1, 0)])    # 0-5
        enqueue_assignment(state, [(0, 0)])    # 0-10
        assert [tid for _, tid in state.nodes[0].running] == [1, 0, 3]
        advance(state, 5.0)
        enqueue_assignment(state, [(2, 0)])    # 5-10
        assert [tid for _, tid in state.nodes[0].running] == [0, 2, 3]
        report = advance(state, 5.0)
        assert [c.task_id for c in report.completions] == [0, 2, 3]
        assert state.cpu_in_use[0] == 0.0 and not state.nodes[0].running

    def test_population_energy_equals_per_node_calls(self):
        """One population step_energy call gives each node's scalar call, bit for bit."""
        nodes = generate_cluster(derive_stream(11, "cl"), 100)
        specs = stack_specs(nodes)
        rng = np.random.default_rng(11)
        cpu = rng.uniform(0.0, 1.0, size=100) * specs.cpu_capacity
        cpu[::7] = 0.0
        cpu[3::7] = specs.cpu_capacity[3::7]
        energy = step_energy(specs, cpu, 5.0)
        assert energy.tolist() == [step_energy(n, c, 5.0) for n, c in zip(nodes, cpu.tolist())]

    def test_population_energy_names_the_node_out_of_range(self):
        nodes = [node(0), node(1, cpu=8.0), node(2)]
        with pytest.raises(ValueError, match=r"^cpu in use 9\.0 outside \[0, 8\.0\] on node 1$"):
            step_energy(stack_specs(nodes), np.array([1.0, 9.0, 5.0]), 5.0)
