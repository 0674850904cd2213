"""Actor-critic network, hybrid selection, reward, replay and update oracles."""

import copy
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from marlsched.cluster import NodeSpec
from marlsched.marl import (
    W_COMPAT,
    W_LOAD,
    W_MEM,
    AgentParams,
    DrlScheduler,
    Experience,
    Hyperparams,
    ReplayBuffer,
    apply_update,
    assignment_score,
    compute_step_reward,
    decay_explore,
    expected_param_count,
    forward,
    init_agents,
    priority_score,
    save_checkpoint,
    select_assignments,
    td_error,
)
from marlsched.rng import derive_stream
from marlsched.simenv import (
    OBS_DIM, CompletionRecord, SimConfig, StepReport, build_observation, init_episode,
)
from marlsched.workload import DEADLINE_FACTORS, Task

H = Hyperparams()


def small_hyper(**kw):
    return Hyperparams(hidden=4, **kw)


def zero_agents(h, obs_dim, n_actions, n=1):
    """A population of n agents whose every parameter is zero."""
    return AgentParams(
        W1=np.zeros((n, h.hidden, obs_dim)), b1=np.zeros((n, h.hidden)),
        W2=np.zeros((n, n_actions, h.hidden)), b2=np.zeros((n, n_actions)),
        Wv=np.zeros((n, h.hidden)), bv=np.zeros(n), current_lr=np.full(n, h.learning_rate),
    )


def member(agents, i):
    """Agent i of a population, copied out as a population of one."""
    return AgentParams(*(getattr(agents, f.name)[i : i + 1].copy() for f in fields(AgentParams)))


def node(nid, cpu=4.0, mem=64.0):
    return NodeSpec(id=nid, cpu_capacity=cpu, mem_capacity=mem,
                    p_idle=100.0, p_dyn=200.0, tier="Medium")


def task(tid, duration=10.0, cpu=1.0, mem=1.0, arrival=0.0, priority=1):
    return Task(id=tid, duration=duration, cpu=cpu, mem=mem, arrival=arrival,
                priority=priority, deadline=arrival + DEADLINE_FACTORS[priority] * duration)


class TestNetwork:
    def test_parameter_count(self):
        assert expected_param_count(50, 128, 100) == 19_557
        agent = init_agents([derive_stream(42, "agent-init-0")], H, OBS_DIM, 100)
        assert agent.n_params == 19_557

    def test_init_biases_zero_weights_bounded(self):
        agent = init_agents([derive_stream(42, "agent-init-0")], H, OBS_DIM, 100)
        assert np.all(agent.b1 == 0.0) and np.all(agent.b2 == 0.0) and np.all(agent.bv == 0.0)
        assert np.all(np.abs(agent.W1) <= np.sqrt(2.0 / OBS_DIM))
        assert np.all(np.abs(agent.W2) <= np.sqrt(2.0 / H.hidden))

    def test_init_deterministic(self):
        a = init_agents([derive_stream(42, "agent-init-0")], H, OBS_DIM, 100)
        b = init_agents([derive_stream(42, "agent-init-0")], H, OBS_DIM, 100)
        assert np.array_equal(a.W1, b.W1) and np.array_equal(a.W2, b.W2)

    def test_init_draws_w1_w2_wv_in_stream_order(self):
        """init_agents draws an agent's weights from its stream in the order W1,
        W2, Wv, each scaled as (2u - 1) * sqrt(2 / fan_in)."""
        h = small_hyper()
        agent = init_agents([derive_stream(0, "a")], h, 6, 3)
        u = derive_stream(0, "a").random(4 * 6 + 3 * 4 + 4)
        assert np.array_equal(agent.W1[0], (2.0 * u[:24].reshape(4, 6) - 1.0) * np.sqrt(2.0 / 6))
        assert np.array_equal(agent.W2[0], (2.0 * u[24:36].reshape(3, 4) - 1.0) * np.sqrt(2.0 / 4))
        assert np.array_equal(agent.Wv[0], (2.0 * u[36:] - 1.0) * np.sqrt(2.0 / 4))
        assert agent.bv.tolist() == [0.0] and agent.current_lr.tolist() == [h.learning_rate]

    def test_zero_params_uniform_policy(self):
        policy, value, _ = forward(zero_agents(H, OBS_DIM, 100), np.zeros((1, 50)))
        assert np.allclose(policy, 0.01)
        assert value.tolist() == [0.0]

    def test_softmax_normalization(self):
        agent = init_agents([derive_stream(42, "agent-init-0")], H, OBS_DIM, 100)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            policy, _, _ = forward(agent, rng.random((1, 50)))
            assert abs(policy.sum() - 1.0) <= 1e-9
            assert np.all(policy >= 0.0)

    def test_softmax_shift_invariance(self):
        h = small_hyper()
        agent = init_agents([derive_stream(0, "a")], h, 6, 3)
        obs = np.linspace(0, 1, 6)[None]
        p1, _, _ = forward(agent, obs)
        agent.b2 = agent.b2 + 5.0     # constant shift of every logit
        p2, _, _ = forward(agent, obs)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_wrong_observation_length(self):
        with pytest.raises(ValueError):
            forward(zero_agents(H, OBS_DIM, 100), np.zeros((1, 49)))

    def test_population_forward_equals_per_agent(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            agents = init_agents([derive_stream(trial, f"agent-init-{i}") for i in range(7)],
                                 H, OBS_DIM, 7)
            for i in range(7):
                agents.b1[i] = rng.normal(size=H.hidden) * 0.1
                agents.b2[i] = rng.normal(size=7)
                agents.bv[i] = float(rng.normal())
            obs = rng.random((7, OBS_DIM))
            policy, value, hidden = forward(agents, obs)
            assert policy.shape == (7, 7) and value.shape == (7,) and hidden.shape == (7, H.hidden)
            for i in range(7):
                p_i, v_i, h_i = forward(member(agents, i), obs[i : i + 1])
                assert np.array_equal(policy[i], p_i[0])
                assert value[i] == v_i[0]
                assert np.array_equal(hidden[i], h_i[0])
                # the plain matrix-vector products, bit for bit
                assert np.array_equal(hidden[i], np.maximum(agents.W1[i] @ obs[i] + agents.b1[i], 0.0))
                assert value[i] == agents.Wv[i] @ hidden[i] + agents.bv[i]

    def test_population_wrong_observation_shape(self):
        agents = zero_agents(H, OBS_DIM, 100, n=3)
        for shape in [(3, 49), (2, 50), (50,), (1, 3, 50)]:
            with pytest.raises(ValueError):
                forward(agents, np.zeros(shape))

    def test_population_non_finite_output(self):
        agents = zero_agents(H, OBS_DIM, 100, n=3)
        agents.bv[2] = np.inf
        with pytest.raises(FloatingPointError):
            forward(agents, np.zeros((3, 50)))
        agents.bv[2] = 0.0
        agents.b2[1, 5] = np.nan
        with pytest.raises(FloatingPointError):
            forward(agents, np.zeros((3, 50)))


class TestScores:
    def test_urgency_full_slack_production(self):
        t = Task(id=0, duration=10.0, cpu=0.0, mem=0.0, arrival=0.0, priority=0, deadline=15.0)
        assert priority_score(t, 0.0) == pytest.approx(1.5)

    def test_urgency_no_slack_best_effort(self):
        t = Task(id=0, duration=10.0, cpu=0.0, mem=0.0, arrival=0.0, priority=2, deadline=50.0)
        assert priority_score(t, 50.0) == pytest.approx(0.4)

    def test_urgency_half_slack_batch(self):
        # r_j = 0.5 needs (cpu/32 + mem/128)/2 = 0.5, e.g. cpu=16, mem=64
        t = Task(id=0, duration=10.0, cpu=16.0, mem=64.0, arrival=0.0, priority=1, deadline=30.0)
        assert priority_score(t, 15.0) == pytest.approx(1.10)

    def test_urgency_expired_task_rejected(self):
        t = task(0, duration=8.0)
        with pytest.raises(ValueError):
            priority_score(t, t.deadline + 1.0)

    def test_assignment_score_saturated_node(self):
        t = task(0, cpu=4.0, priority=0)    # cpu/C = 1 -> compat 0.5
        assert assignment_score(0.0, 1.0, 1.0, t, 4.0, H) == pytest.approx(0.075)

    def test_assignment_score_ideal_node(self):
        t = task(0, cpu=2.0, priority=0)   # cpu/C = 0.5 -> compat 1
        assert assignment_score(1.0, 0.0, 0.0, t, 4.0, H) == pytest.approx(0.90)


class TestSelection:
    def test_production_before_best_effort(self):
        ts = [task(0, cpu=3.0, priority=2), task(1, cpu=3.0, priority=0)]
        state = init_episode(SimConfig(), ts, [node(0), node(1)])
        probs = np.zeros(2)
        decisions = select_assignments(state, [state.tasks[0], state.tasks[1]],
                                       lambda: probs, None, H, 0.0)
        assert decisions[0].task_id == 1    # Production scored first

    def test_no_feasible_node_rejects_only_that_task(self):
        ts = [task(0, cpu=99.0), task(1, cpu=1.0)]
        state = init_episode(SimConfig(), ts, [node(0)])
        decisions = select_assignments(state, [state.tasks[0], state.tasks[1]],
                                       lambda: np.zeros(1), None, H, 0.0)
        assert decisions == [(1, 0)]

    def test_greedy_is_deterministic_without_exploration(self):
        ts = [task(i, cpu=1.0) for i in range(4)]
        state = init_episode(SimConfig(), ts, [node(i) for i in range(3)])
        pending = [state.tasks[i] for i in range(4)]
        probs = np.array([0.2, 0.5, 0.3])
        a = select_assignments(state, pending, lambda: probs, None, H, 0.0)
        b = select_assignments(state, pending, lambda: probs, None, H, 0.0)
        assert a == b

    def test_in_call_bookkeeping_shifts_later_choices(self):
        # Two identical tasks, identical nodes: the second must go elsewhere.
        ts = [task(0, cpu=2.0), task(1, cpu=2.0)]
        state = init_episode(SimConfig(), ts, [node(0), node(1)])
        decisions = select_assignments(state, [state.tasks[0], state.tasks[1]],
                                       lambda: np.zeros(2), None, H, 0.0)
        assert {d.node_id for d in decisions} == {0, 1}

    def test_policy_computed_once_and_only_for_a_greedy_placement(self):
        """The self-probabilities are asked for once, at the first greedy
        placement; a call that places nothing greedily never asks."""
        ts = [task(0, cpu=99.0), task(1, cpu=1.0), task(2, cpu=1.0)]
        state = init_episode(SimConfig(), ts, [node(0), node(1)])
        pending = [state.tasks[i] for i in range(3)]
        calls = []

        def probs():
            calls.append(None)
            return np.zeros(2)

        assert len(select_assignments(state, pending, probs, None, H, 0.0)) == 2
        assert len(calls) == 1
        calls.clear()
        # epsilon 1: every feasible task explores
        assert len(select_assignments(state, pending, probs, derive_stream(0, "e"), H, 1.0)) == 2
        assert select_assignments(state, pending[:1], probs, None, H, 0.0) == []
        assert calls == []


class TestReward:
    @staticmethod
    def completion(priority, completion_time, met):
        return CompletionRecord(task_id=0, arrival=0.0, finish_time=completion_time,
                                completion_time=completion_time, met_sla=met,
                                priority=priority, node_id=0)

    @staticmethod
    def report(completions=(), dropped=(), energy_joules=0.0, util_variance=0.0):
        return StepReport(arrived=[], completions=list(completions), dropped=list(dropped),
                          energy_joules=energy_joules, util_variance=util_variance)

    def test_on_time_production_completion(self):
        r = compute_step_reward(self.report([self.completion(0, 200.0, True)]), None)
        assert r == pytest.approx(60.0)   # +15*(4-0), completion bonus floors at 0

    def test_missed_best_effort_completion(self):
        rep = self.report([self.completion(2, 300.0, False)])
        assert compute_step_reward(rep, None) == pytest.approx(-40.0)

    def test_energy_and_balance_penalties(self):
        rep = self.report(energy_joules=10.0 * 3.6e6, util_variance=0.25)
        assert compute_step_reward(rep, None) == pytest.approx(-53.0)

    def test_drop_penalty(self):
        state = init_episode(SimConfig(), [task(0, priority=0)], [node(0)])
        rep = self.report(dropped=[0])
        assert compute_step_reward(rep, state) == pytest.approx(-80.0)

    def test_fast_completion_bonus(self):
        r = compute_step_reward(self.report([self.completion(1, 40.0, True)]), None)
        assert r == pytest.approx(15.0 * 3 + (100.0 - 0.5 * 40.0))


def rows(*transitions):
    """An ``Experience`` from (obs, action, reward, next_obs, terminal) tuples."""
    obs, action, reward, next_obs, terminal = zip(*transitions)
    return Experience(np.array(obs, dtype=float), np.array(next_obs, dtype=float),
                      np.array(action), np.array(reward, dtype=float),
                      1.0 - np.array(terminal, dtype=float))


def random_batch(rng, n=4):
    """n random transitions for a 6-input, 3-action net, drawn row by row."""
    return rows(*[(rng.random(6), int(rng.integers(3)), float(rng.normal()), rng.random(6),
                   bool(rng.random() < 0.2)) for _ in range(n)])


def row(i, obs_dim=2):
    """One transition whose every field carries the marker i."""
    return Experience(np.full(obs_dim, float(i)), np.full(obs_dim, -float(i)), i, float(i), 1.0)


class TestTdError:
    def test_simple_substitution(self):
        h = small_hyper()
        tr = rows((np.zeros(6), 0, 1.0, np.zeros(6), False))
        assert td_error(zero_agents(h, 6, 3), [0], tr, 0.99) == pytest.approx(1.0)

    def test_terminal_no_bootstrap(self):
        h = small_hyper()
        agent = zero_agents(h, 6, 3)
        agent.bv[0] = 0.5
        tr = rows((np.zeros(6), 0, 2.0, np.ones(6), True))
        assert td_error(agent, [0], tr, 0.99) == pytest.approx(1.5)

    def test_bootstrap_term(self):
        h = small_hyper()
        agent = zero_agents(h, 6, 3)
        agent.bv[0] = 0.5
        tr = rows((np.zeros(6), 0, 1.0, np.ones(6), False))
        assert td_error(agent, [0], tr, 0.99) == pytest.approx(1.0 + 0.99 * 0.5 - 0.5)

    def test_batched_rows_equal_per_row_forward(self):
        """One call over rows of several agents (ids repeated, some rows
        terminal) gives the bits of the per-row ``forward`` definition."""
        rng = np.random.default_rng(11)
        agents = init_agents([derive_stream(7, f"td-{i}") for i in range(4)], H, OBS_DIM, 4)
        agents.b1[:] = rng.normal(size=agents.b1.shape) * 0.1
        agents.bv[:] = rng.normal(size=4)
        ids = np.array([2, 0, 2, 3, 1, 2, 0, 3, 3])
        terminal = np.array([False, True, False, False, True, False, False, True, False])
        nxt = rng.random((len(ids), OBS_DIM))
        nxt[terminal] = 0.0
        batch = Experience(rng.random((len(ids), OBS_DIM)), nxt, ids,
                           rng.normal(size=len(ids)) * 50, 1.0 - terminal)
        deltas = td_error(agents, ids, batch, 0.99)
        expected = []
        for k, i in enumerate(ids):
            v = forward(member(agents, i), batch.obs[k : k + 1])[1][0]
            if terminal[k]:
                expected.append(batch.reward[k] - v)
            else:
                expected.append(batch.reward[k] + 0.99 * forward(member(agents, i), nxt[k : k + 1])[1][0] - v)
        assert np.array_equal(deltas, expected)

    def test_non_finite_value_raises(self):
        agents = zero_agents(small_hyper(), 6, 3, n=2)
        agents.bv[1] = np.nan
        with pytest.raises(FloatingPointError):
            td_error(agents, [0, 1], rows(*[(np.zeros(6), 0, 1.0, np.zeros(6), False)] * 2), 0.99)


class TestReplayBuffer:
    def test_zero_delta_priority_floor(self):
        buf = ReplayBuffer(10)
        buf.add(row(0), 0.0)
        assert buf.priorities[0] == pytest.approx(0.01)

    def test_singleton_always_sampled(self):
        buf = ReplayBuffer(10)
        buf.add(row(3), 1.0)
        batch = buf.sample(32, derive_stream(0, "replay"))
        assert all(np.array_equal(column, np.stack([value] * 32))
                   for column, value in zip(batch, row(3)))

    def test_empty_buffer_raises(self):
        with pytest.raises(RuntimeError):
            ReplayBuffer(10).sample(1, derive_stream(0, "x"))

    def test_overwritten_slot_takes_new_priority(self):
        buf = ReplayBuffer(2)
        buf.add(row(0), 99.99)
        buf.add(row(1), 1.0)
        buf.add(row(2), 1.0)   # replaces row 0
        sampled = buf.sample(10_000, derive_stream(0, "replay-overwrite"))
        counts = np.bincount(sampled.action, minlength=3)
        assert counts[0] == 0
        assert abs(counts[1] / 10_000.0 - 0.5) <= 0.02

    def test_ring_overwrite(self):
        buf = ReplayBuffer(3)
        for i in range(4):
            buf.add(row(i), 1.0)
        assert len(buf) == 3
        assert 0 not in buf.rows.action and 3 in buf.rows.action

    def test_ring_order_and_priorities_across_growth_and_overwrite(self):
        """Slot for slot, every column and the priorities match a list ring
        after each add: through the doublings 1, 2, 4, 8 and the cap at 11,
        then two full laps of overwrites."""
        cap = 11
        buf = ReplayBuffer(cap)
        ring, nxt = [], 0
        for i in range(cap + 2 * cap + 3):
            delta = (-1) ** i * 0.5 * i
            buf.add(row(i), delta)
            if len(ring) < cap:
                ring.append((i, delta))
            else:
                ring[nxt] = (i, delta)
                nxt = (nxt + 1) % cap
            n = len(ring)
            assert len(buf) == n <= len(buf.priorities) <= cap
            for column, expected in zip(buf.rows, zip(*(row(i) for i, _ in ring))):
                assert np.array_equal(column[:n], np.stack(expected))
            assert np.array_equal(buf.priorities[:n], [abs(d) + 0.01 for _, d in ring])
        batch = buf.sample(200, derive_stream(0, "replay-rows"))
        assert np.array_equal(batch.obs[:, 0], batch.action)
        assert np.array_equal(batch.reward, batch.action)
        assert np.array_equal(batch.next_obs, -batch.obs)

    def test_arrays_grow_with_content(self):
        buf = ReplayBuffer(10_000)
        for i in range(3):
            buf.add(row(i, OBS_DIM), 1.0)
        assert len(buf) == 3
        assert len(buf.priorities) < 10_000 and all(len(column) < 10_000 for column in buf.rows)

    def test_equal_priorities_uniform(self):
        buf = ReplayBuffer(10)
        for i in range(5):
            buf.add(row(i), 1.0)
        s = derive_stream(0, "replay-uniform")
        sampled = buf.sample(100_000, s)
        counts = np.bincount(sampled.action, minlength=5)
        assert np.all(np.abs(counts / 100_000.0 - 0.2) <= 0.01)

    def test_priority_proportional_sampling(self):
        buf = ReplayBuffer(10)
        buf.add(row(0), 0.0)       # priority 0.01
        buf.add(row(1), 99.99)     # priority 100
        expected = 100.0**0.6 / (100.0**0.6 + 0.01**0.6)
        s = derive_stream(0, "replay-per")
        sampled = buf.sample(100_000, s)
        frac_hi = np.count_nonzero(sampled.action == 1) / 100_000.0
        assert frac_hi == pytest.approx(expected, abs=0.005)


def surrogate_loss(params, batch, deltas, targets):
    """The objective whose gradient the update step follows, with the
    advantage and critic target frozen; ``params`` is a population of one."""
    total = 0.0
    for obs, action, d, tgt in zip(batch.obs, batch.action, deltas, targets):
        policy, v, _ = forward(params, obs[None])
        total += -d * np.log(policy[0, action]) + 0.5 * (v[0] - tgt) ** 2
    return total / len(batch.action)


def td_targets(params, batch):
    """r, or r + 0.99 * V(o') on a non-terminal row, by per-row ``forward``."""
    return [r if not alive else r + 0.99 * forward(params, nxt[None])[1][0]
            for r, nxt, alive in zip(batch.reward, batch.next_obs, batch.alive)]


def copy_params(p):
    return copy.deepcopy(p)


PARAM_NAMES = ("W1", "b1", "W2", "b2", "Wv", "bv")


class TestApplyUpdate:
    def test_zero_delta_leaves_params_lr_decays(self):
        h = small_hyper()
        agent = zero_agents(h, 6, 3)
        before = copy_params(agent)
        batch = rows(*[(np.ones(6), 1, 0.0, np.ones(6), False)] * 4)
        apply_update(agent, 0, batch, gamma=0.99, grad_clip_norm=None, lr_decay=0.9995)
        assert np.array_equal(agent.W1, before.W1) and np.array_equal(agent.W2, before.W2)
        assert np.array_equal(agent.Wv, before.Wv) and np.array_equal(agent.bv, before.bv)
        assert agent.current_lr[0] == pytest.approx(before.current_lr[0] * 0.9995)

    def test_learning_rate_decays_by_lr_decay(self):
        agent = zero_agents(small_hyper(), 6, 3)
        batch = rows(*[(np.ones(6), 1, 0.0, np.ones(6), False)] * 4)
        apply_update(agent, 0, batch, gamma=0.99, grad_clip_norm=None, lr_decay=0.9)
        apply_update(agent, 0, batch, gamma=0.99, grad_clip_norm=None, lr_decay=0.9)
        assert agent.current_lr[0] == pytest.approx(0.001 * 0.81)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            empty = Experience(np.zeros((0, 6)), np.zeros((0, 6)), np.zeros(0, dtype=int),
                               np.zeros(0), np.zeros(0))
            apply_update(zero_agents(small_hyper(), 6, 3), 0, empty, gamma=0.99,
                         grad_clip_norm=None, lr_decay=0.9995)

    def test_gradient_matches_finite_differences(self):
        """Analytic backprop vs central differences on 100 random small nets."""
        h = small_hyper()
        rng = np.random.default_rng(12345)
        step = 1e-5
        for trial in range(100):
            agent = init_agents([derive_stream(trial, "fd-agent")], h, 6, 3)
            batch = random_batch(rng)
            deltas = td_error(agent, np.zeros(4, dtype=int), batch, 0.99)
            targets = td_targets(agent, batch)

            before = copy_params(agent)
            lr = agent.current_lr[0]
            apply_update(agent, 0, batch, gamma=0.99, grad_clip_norm=None, lr_decay=0.9995)
            analytic = np.concatenate([
                ((getattr(before, n) - getattr(agent, n)) / lr).ravel() for n in PARAM_NAMES
            ])

            fd = []
            for name in PARAM_NAMES:
                flat = getattr(before, name).ravel()   # a view: every array is contiguous
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + step
                    up = surrogate_loss(before, batch, deltas, targets)
                    flat[j] = orig - step
                    down = surrogate_loss(before, batch, deltas, targets)
                    flat[j] = orig
                    fd.append((up - down) / (2 * step))
            fd = np.asarray(fd)

            rel = np.linalg.norm(analytic - fd) / (np.linalg.norm(fd) + 1e-12)
            assert rel <= 1e-4, f"trial {trial}: relative gradient error {rel:.2e}"

    def test_gradient_clipping_bounds_step(self):
        h = small_hyper()
        agent = init_agents([derive_stream(0, "clip")], h, 6, 3)
        batch = rows(*[(np.ones(6), 0, 1000.0, np.ones(6), True)] * 4)
        before = copy_params(agent)
        lr = agent.current_lr[0]
        apply_update(agent, 0, batch, gamma=0.99, grad_clip_norm=1.0, lr_decay=0.9995)
        norm = np.sqrt(sum(np.sum(((getattr(before, n) - getattr(agent, n)) / lr) ** 2)
                           for n in PARAM_NAMES))
        assert norm <= 1.0 + 1e-9

    def test_updates_only_agent_i(self):
        """``apply_update(agents, i, ...)`` moves agent i's rows exactly as it moves
        a population of one holding that agent, and leaves every other row's bits."""
        h = small_hyper()
        rng = np.random.default_rng(5)
        agents = init_agents([derive_stream(0, f"only-{i}") for i in range(4)], h, 6, 3)
        agents.b1[:] = rng.normal(size=agents.b1.shape) * 0.1
        agents.bv[:] = rng.normal(size=4)
        batch = random_batch(rng)
        for i in range(4):
            before = copy_params(agents)
            alone = member(agents, i)
            apply_update(agents, i, batch, gamma=0.99, grad_clip_norm=10.0, lr_decay=0.9995)
            apply_update(alone, 0, batch, gamma=0.99, grad_clip_norm=10.0, lr_decay=0.9995)
            others = [k for k in range(4) if k != i]
            for f in fields(AgentParams):
                got, was = getattr(agents, f.name), getattr(before, f.name)
                assert np.array_equal(got[others], was[others]), f.name
                assert np.array_equal(got[i], getattr(alone, f.name)[0]), f.name
                assert not np.array_equal(got[i], was[i]), f.name


class TestExplorationDecay:
    def test_one_step(self):
        assert decay_explore(0.3) == pytest.approx(0.2985)

    def test_floor(self):
        assert decay_explore(0.0100001) == 0.01
        assert decay_explore(0.005) == 0.01

    def test_hundred_episodes(self):
        eps = 0.3
        for _ in range(100):
            eps = decay_explore(eps)
        assert eps == pytest.approx(0.3 * 0.995**100)
        assert eps == pytest.approx(0.1817, abs=1e-3)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        h = small_hyper()
        agents = init_agents([derive_stream(s, "ckpt") for s in range(3)], h, 6, 3)
        agents.current_lr[1] = 0.0005
        path = tmp_path / "ckpt.npz"
        with open(path, "wb") as f:
            save_checkpoint(f, agents, episode=7)
        data = np.load(path)
        assert sorted(data.files) == ["W1", "W2", "Wv", "b1", "b2", "bv", "header", "lrs"]
        assert data["header"].tolist() == [6, 4, 3, 7] and data["header"].dtype == np.int64
        for name in ("W1", "b1", "W2", "b2", "Wv", "bv"):
            assert np.array_equal(data[name], getattr(agents, name))
        assert np.array_equal(data["lrs"], agents.current_lr)

    def test_same_bytes_as_savez(self, tmp_path):
        """Member by member, the file is the one ``np.savez`` writes of the
        same arrays in the same order."""
        agents = init_agents([derive_stream(s, "ckpt") for s in range(3)], small_hyper(), 6, 3)
        agents.current_lr[2] = 0.0007
        with open(tmp_path / "ckpt.npz", "wb") as f:
            save_checkpoint(f, agents, episode=4)
        np.savez(tmp_path / "ref.npz", header=np.array([6, 4, 3, 4], dtype=np.int64),
                 lrs=agents.current_lr, W1=agents.W1, b1=agents.b1, W2=agents.W2,
                 b2=agents.b2, Wv=agents.Wv, bv=agents.bv)
        got = (tmp_path / "ckpt.npz").read_bytes()
        assert got == (tmp_path / "ref.npz").read_bytes()

    def test_writes_without_copying_the_population(self, tmp_path):
        """``W2`` of a 100-node population is 9.77 MiB; no array is copied
        on its way into the zip."""
        agents = DrlScheduler(42, n_nodes=100).agents
        with open(tmp_path / "ckpt.npz", "wb") as f:
            tracemalloc.start()
            try:
                save_checkpoint(f, agents, episode=2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert agents.W2.nbytes > 9 * 2**20
        assert peak < 2**20


class TestDrlScheduler:
    def test_action_space_follows_cluster_size(self):
        sched = DrlScheduler(42, n_nodes=7)
        assert sched.agents.W1.shape == (7, sched.h.hidden, OBS_DIM)
        assert sched.agents.W2.shape == (7, 7, sched.h.hidden)
        assert sched.agents.b2.shape == (7, 7)
        assert sched.agents.bv.shape == sched.agents.current_lr.shape == (7,)

    def test_agents_keep_their_init_streams(self):
        sched = DrlScheduler(42, n_nodes=3)
        for i in range(3):
            alone = init_agents([derive_stream(42, f"agent-init-{i}")], sched.h, OBS_DIM, 3)
            assert np.array_equal(sched.agents.W1[i], alone.W1[0])
            assert np.array_equal(sched.agents.W2[i], alone.W2[0])
            assert np.array_equal(sched.agents.Wv[i], alone.Wv[0])

    def test_hyperparameter_lr_decay_takes_effect(self):
        from marlsched.experiment import ExperimentConfig, run_episode

        h = Hyperparams(lr_decay=0.5, batch_size=2)
        cfg = ExperimentConfig(master_seed=5, n_nodes=4, n_tasks=40,
                               episodes=1, final_window=1, hyper=h)
        sched = DrlScheduler(cfg.master_seed, cfg.n_nodes, cfg.hyper)
        run_episode(sched, cfg, 0)
        updates = np.log(sched.agents.current_lr / h.learning_rate) / np.log(0.5)
        assert updates.max() >= 1
        assert np.allclose(updates, np.round(updates), atol=1e-9)

    def test_inference_mode_deterministic(self):
        from marlsched.experiment import ExperimentConfig, run_episode

        cfg = ExperimentConfig(master_seed=5, n_nodes=6, n_tasks=30,
                               episodes=1, final_window=1)

        def run():
            sched = DrlScheduler(cfg.master_seed, cfg.n_nodes, cfg.hyper, train=False)
            return run_episode(sched, cfg, 0).metrics

        a, b = run(), run()
        assert a.atct == b.atct and a.energy_kwh == b.energy_kwh

    def test_inference_mode_only_acts(self, monkeypatch):
        """``train=False`` places tasks, but stores no replay row, computes no
        TD error or step reward, and draws nothing from its stream."""
        from marlsched import marl
        from marlsched.experiment import ExperimentConfig, run_episode

        def learner_bookkeeping(*args):
            raise AssertionError("learner bookkeeping ran with train=False")

        monkeypatch.setattr(marl, "td_error", learner_bookkeeping)
        monkeypatch.setattr(marl, "compute_step_reward", learner_bookkeeping)
        cfg = ExperimentConfig(master_seed=5, n_nodes=6, n_tasks=30,
                               episodes=1, final_window=1)
        sched = DrlScheduler(cfg.master_seed, cfg.n_nodes, cfg.hyper, train=False)
        assert run_episode(sched, cfg, 0).metrics.completed > 0
        assert [len(b) for b in sched.buffers] == [0] * cfg.n_nodes
        at_reset = derive_stream(cfg.master_seed, "sched-drl-0").bit_generator.state
        assert sched._stream.bit_generator.state == at_reset

    def test_episode_counter_and_epsilon_decay(self):
        from marlsched.experiment import ExperimentConfig, run_episode

        cfg = ExperimentConfig(master_seed=5, n_nodes=6, n_tasks=20,
                               episodes=1, final_window=1)
        sched = DrlScheduler(cfg.master_seed, cfg.n_nodes, cfg.hyper)
        eps0 = sched.explore_epsilon
        run_episode(sched, cfg, 0)
        assert sched.explore_epsilon == pytest.approx(eps0 * 0.995)

    @pytest.mark.parametrize("batch_size, capacity", [(10, 10_000), (10, 10), (8, 3)])
    def test_trainable_ids_are_the_buffers_holding_a_batch(self, batch_size, capacity, monkeypatch):
        """Each assign updates, in ascending id order, exactly the agents whose
        replay held a batch when the call began. A capacity equal to the batch
        size keeps a full buffer at the batch size on every later add; one
        below it never holds a batch, so nothing trains."""
        from marlsched import marl
        from marlsched.experiment import ExperimentConfig, run_episode

        cfg = ExperimentConfig(master_seed=3, n_nodes=6, n_tasks=60, episodes=2, final_window=1,
                               sim=SimConfig(max_time=120.0),
                               hyper=Hyperparams(batch_size=batch_size, replay_capacity=capacity))
        sched = DrlScheduler(cfg.master_seed, cfg.n_nodes, cfg.hyper)
        updated, ever_updated = [], set()
        apply_update = marl.apply_update
        monkeypatch.setattr(marl, "apply_update",
                            lambda agents, i, *args: (updated.append(i), apply_update(agents, i, *args)))
        assign = sched.assign

        def checked_assign(state, pending):
            expected = [i for i, b in enumerate(sched.buffers) if len(b) >= batch_size]
            updated.clear()
            decisions = assign(state, pending)
            assert updated == expected
            ever_updated.update(updated)
            return decisions

        sched.assign = checked_assign
        for episode in range(2):
            run_episode(sched, cfg, episode)
        assert bool(ever_updated) == (capacity >= batch_size)

    def test_stored_rows_are_the_placements(self):
        """Each agent's replay holds its placements in order: the observation
        row it placed from, action = its id, the step reward, and its row at the
        next assign, or all zeros with alive = 0 after the episode's last step."""
        from marlsched.experiment import ExperimentConfig, run_episode

        cfg = ExperimentConfig(master_seed=3, n_nodes=4, n_tasks=60, episodes=1, final_window=1,
                               sim=SimConfig(max_time=60.0))
        sched = DrlScheduler(cfg.master_seed, cfg.n_nodes, cfg.hyper)
        calls, placements = [], []     # observations per assign call; (call, agent)
        assign = sched.assign

        def recording(state, pending):
            calls.append(build_observation(state))
            decisions = assign(state, pending)
            placements.extend((len(calls) - 1, d.node_id) for d in decisions)
            return decisions

        sched.assign = recording
        run_episode(sched, cfg, 0)
        last_call = len(calls) - 1
        assert any(c == last_call for c, _ in placements)        # some rows are terminal
        assert sum(len(b) for b in sched.buffers) == len(placements)
        for i, buf in enumerate(sched.buffers):
            mine = [c for c, a in placements if a == i]
            assert len(buf) == len(mine)
            for k, c in enumerate(mine):      # slot k: no slot is overwritten here
                assert np.array_equal(buf.rows.obs[k], calls[c][i])
                assert buf.rows.action[k] == i
                if c == last_call:
                    assert buf.rows.alive[k] == 0.0 and not buf.rows.next_obs[k].any()
                else:
                    assert buf.rows.alive[k] == 1.0
                    assert np.array_equal(buf.rows.next_obs[k], calls[c + 1][i])


def reference_select(state, pending, self_probs, s, h, explore_epsilon):
    """The per-node scoring loop ``select_assignments`` ran before it scored
    every node at once: (task, node) pairs, node None for a task left pending."""
    def score(p, util, mem_frac, task, cpu_capacity):
        compat = min(max(1.0 - abs(task.cpu / cpu_capacity - 0.5), 0.0), 1.0)
        return (h.w_pi * p + W_LOAD * (1.0 - util) + W_MEM * (1.0 - mem_frac)
                + W_COMPAT * compat)

    order = sorted(pending, key=lambda t: (-priority_score(t, state.time), t.id))
    cpu_cap, mem_cap = state.specs.cpu_capacity.tolist(), state.specs.mem_capacity.tolist()
    util = {nid: state.cpu_in_use[nid] / cpu_cap[nid] for nid in range(state.n_nodes)}
    mem_frac = {nid: state.mem_in_use[nid] / mem_cap[nid] for nid in range(state.n_nodes)}
    decisions = []
    for task in order:
        feas = [nid for nid in range(state.n_nodes)
                if task.cpu <= cpu_cap[nid] and task.mem <= mem_cap[nid]]
        if not feas:
            decisions.append((task.id, None))
            continue
        if explore_epsilon > 0.0 and s.random() < explore_epsilon:
            u = s.random()
            chosen = feas[int(u * len(feas))]
        else:
            chosen, best = None, None
            for nid in feas:
                sc = score(self_probs[nid], util[nid], mem_frac[nid], task, cpu_cap[nid])
                if best is None or sc > best:
                    chosen, best = nid, sc
        util[chosen] += task.cpu / cpu_cap[chosen]
        mem_frac[chosen] += task.mem / mem_cap[chosen]
        decisions.append((task.id, chosen))
    return decisions


def placed(decisions):
    """The placements of a reference's (task, node) pairs, in order."""
    return [(t, n) for t, n in decisions if n is not None]


class TestSelectionOracle:
    """The argmax placement over the feasible nodes equals the per-node loop,
    decision for decision, and consumes the same draws."""

    @staticmethod
    def random_case(seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(1, 10))
        # few distinct specs, loads and probabilities, so equal scores are common
        nodes = [node(i, cpu=float(rng.choice([2, 4, 8])), mem=float(rng.choice([4, 16])))
                 for i in range(n_nodes)]
        state = init_episode(SimConfig(), [], nodes)
        for i, nd in enumerate(nodes):
            state.cpu_in_use[i] = float(rng.choice([0.0, 0.5, 1.0])) * nd.cpu_capacity
            state.mem_in_use[i] = float(rng.choice([0.0, 0.25])) * nd.mem_capacity
        probs = rng.choice([0.0, 0.125, 0.5], size=n_nodes)
        pending = [
            # up to 12 cores or 20 GB: some tasks are feasible nowhere
            task(i, duration=float(rng.choice([5.0, 20.0])),
                 cpu=float(rng.choice([0.5, 1.0, 2.0, 4.0, 12.0])),
                 mem=float(rng.choice([0.5, 2.0, 20.0])), priority=int(rng.integers(0, 3)))
            for i in rng.permutation(int(rng.integers(0, 25)))
        ]
        return state, pending, probs

    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("seed", range(100))
    def test_random_states(self, seed, eps):
        state, pending, probs = self.random_case(seed)
        s, s_ref = derive_stream(seed, "explore"), derive_stream(seed, "explore")
        got = select_assignments(state, pending, lambda: probs, s, H, eps)
        assert [(d.task_id, d.node_id) for d in got] == placed(reference_select(
            state, pending, probs, s_ref, H, eps))
        assert s.random() == s_ref.random()     # the stream ends at the same position

    def test_equal_spec_idle_nodes_tie_to_lowest_id(self):
        state = init_episode(SimConfig(), [], [node(i) for i in range(5)])
        pending = [task(i, cpu=1.0) for i in range(3)]
        got = select_assignments(state, pending, lambda: np.zeros(5), None, H, 0.0)
        assert [d.node_id for d in got] == [0, 1, 2]

    def test_loaded_cluster_matches_reference(self):
        from marlsched.cluster import generate_cluster

        state = init_episode(SimConfig(), [], generate_cluster(derive_stream(3, "cl"), 100))
        rng = np.random.default_rng(3)
        state.cpu_in_use[:] = rng.uniform(0.0, 1.0, 100) * state.specs.cpu_capacity
        state.mem_in_use[:] = rng.uniform(0.0, 1.0, 100) * state.specs.mem_capacity
        probs = rng.uniform(0.0, 0.05, 100)
        pending = [task(i, cpu=float(rng.lognormal(0.5, 0.8)), mem=float(rng.lognormal(2.0, 1.0)),
                        priority=int(rng.integers(0, 3)))
                   for i in range(200)]
        for eps in (0.0, 0.3):
            s, s_ref = derive_stream(3, "explore"), derive_stream(3, "explore")
            got = [(d.task_id, d.node_id)
                   for d in select_assignments(state, pending, lambda: probs, s, H, eps)]
            assert got == placed(reference_select(state, pending, probs, s_ref, H, eps))
            assert s.random() == s_ref.random()
