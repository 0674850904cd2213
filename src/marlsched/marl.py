"""Decentralized multi-agent actor-critic scheduler.

Each node runs its own tiny feedforward actor-critic (hand-written numpy
forward and backward passes), decisions combine the learned policy with
priority/urgency and load heuristics, and learning uses TD-error-prioritized
replay with plain gradient steps and a decaying learning rate. The agent
population is held as one set of stacked arrays, so a step builds every
observation and runs every agent's forward pass in one call each; each
agent's replay keeps its transitions as array rows.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np
from numpy.lib import format as npy_format

from .rng import derive_stream
from .schedulers import Scheduler, SchedulerDecision
from .simenv import OBS_DIM, SimState, StepReport, build_observation, feasible_nodes
from .workload import Task
from .cluster import MAX_CPU_CAPACITY, MAX_MEM_CAPACITY


@dataclass
class Hyperparams:
    hidden: int = 128
    learning_rate: float = 0.001
    lr_decay: float = 0.9995
    gamma: float = 0.99
    replay_capacity: int = 10_000
    batch_size: int = 32
    # cap on the global gradient norm per update; None disables clipping.
    # Step rewards reach the hundreds, so raw TD errors blow up plain SGD.
    grad_clip_norm: float | None = 10.0
    # weight of the learned policy term in the assignment score; 0 drops it
    w_pi: float = 0.25

    def __post_init__(self):
        for name in ("hidden", "replay_capacity", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"hyper.{name} must be >= 1, got {getattr(self, name)}")
        if not self.learning_rate > 0:
            raise ValueError(f"hyper.learning_rate must be > 0, got {self.learning_rate}")
        if not 0 < self.lr_decay <= 1:
            raise ValueError(f"hyper.lr_decay must be in (0, 1], got {self.lr_decay}")
        if not 0 <= self.gamma <= 1:
            raise ValueError(f"hyper.gamma must be in [0, 1], got {self.gamma}")
        if self.grad_clip_norm is not None and not self.grad_clip_norm > 0:
            raise ValueError(f"hyper.grad_clip_norm must be > 0 or null, got {self.grad_clip_norm}")


@dataclass
class AgentParams:
    """A population of agents: every field carries a leading agent axis, agent i
    at index i. A single agent is a population of one."""

    W1: np.ndarray          # (n_agents, hidden, obs_dim)
    b1: np.ndarray          # (n_agents, hidden)
    W2: np.ndarray          # (n_agents, n_actions, hidden)
    b2: np.ndarray          # (n_agents, n_actions)
    Wv: np.ndarray          # (n_agents, hidden)
    bv: np.ndarray          # (n_agents,)
    current_lr: np.ndarray  # (n_agents,)

    @property
    def n_params(self) -> int:
        """Parameters per agent."""
        return sum(a.size for a in (self.W1, self.b1, self.W2, self.b2, self.Wv, self.bv)) // len(self.bv)


def expected_param_count(obs_dim: int, hidden: int, n_actions: int) -> int:
    return obs_dim * hidden + hidden + hidden * n_actions + n_actions + hidden + 1


def init_agents(streams: Sequence[np.random.Generator], h: Hyperparams, obs_dim: int,
                n_actions: int) -> AgentParams:
    """A population with agent i drawn from ``streams[i]``: scaled-uniform
    weights (limit sqrt(2/fan_in)) drawn W1, W2, Wv in that order straight
    into arrays allocated up front, and zero biases."""
    n = len(streams)
    agents = AgentParams(
        W1=np.empty((n, h.hidden, obs_dim)),
        b1=np.zeros((n, h.hidden)),
        W2=np.empty((n, n_actions, h.hidden)),
        b2=np.zeros((n, n_actions)),
        Wv=np.empty((n, h.hidden)),
        bv=np.zeros(n),
        current_lr=np.full(n, h.learning_rate),
    )
    for s, W1, W2, Wv in zip(streams, agents.W1, agents.W2, agents.Wv):
        for w, fan_in in ((W1, obs_dim), (W2, h.hidden), (Wv, h.hidden)):
            w[...] = s.random(w.size).reshape(w.shape)
            w *= 2.0
            w -= 1.0
            w *= np.sqrt(2.0 / fan_in)
    return agents


def forward(agents: AgentParams, obs: np.ndarray):
    """Policy distribution, value estimate and the hidden activation cache.

    ``obs`` holds one row per agent and every output has the agent axis. Each
    matrix-vector product is written as a stack of ``(W @ x[..., None])[..., 0]``,
    which gives every agent the same bits as its own ``W @ x``.
    """
    obs = np.asarray(obs, dtype=float)
    expected = agents.W1.shape[:-2] + agents.W1.shape[-1:]
    if obs.shape != expected:
        raise ValueError(f"observation shape {obs.shape} != {expected}")
    hidden = np.maximum((agents.W1 @ obs[..., None])[..., 0] + agents.b1, 0.0)
    logits = (agents.W2 @ hidden[..., None])[..., 0] + agents.b2
    logits = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits)
    policy = exp / exp.sum(axis=-1, keepdims=True)
    value = (agents.Wv[..., None, :] @ hidden[..., None])[..., 0, 0] + agents.bv
    if not (np.all(np.isfinite(policy)) and np.all(np.isfinite(value))):
        raise FloatingPointError("non-finite network output")
    return policy, value, hidden


URGENCY_CLASS, URGENCY_SLACK, URGENCY_RESOURCE = 0.4, 0.3, 0.3


def priority_score(task: Task, now: float) -> float:
    """Urgency score ordering which pending task gets placed first."""
    if now > task.deadline:
        raise ValueError("expired task must be dropped before scoring")
    slack = (task.deadline - now) / (task.deadline - task.arrival)
    resource = min(max((task.cpu / MAX_CPU_CAPACITY + task.mem / MAX_MEM_CAPACITY) / 2.0, 0.0), 1.0)
    return URGENCY_CLASS * (3 - task.priority) + URGENCY_SLACK * slack + URGENCY_RESOURCE * resource


W_LOAD, W_MEM, W_COMPAT = 0.30, 0.20, 0.15


def assignment_score(
    policy_value_for_node: float,
    utilization: float,
    mem_fraction: float,
    task: Task,
    cpu_capacity: float,
    h: Hyperparams,
) -> float:
    """Hybrid per-(task, node) score: learned preference plus load, memory
    headroom and size compatibility terms. Given arrays over nodes, it scores
    each node."""
    compat = np.clip(1.0 - np.abs(task.cpu / cpu_capacity - 0.5), 0.0, 1.0)
    return (
        h.w_pi * policy_value_for_node
        + W_LOAD * (1.0 - utilization)
        + W_MEM * (1.0 - mem_fraction)
        + W_COMPAT * compat
    )


def select_assignments(
    state: SimState,
    pending: Sequence[Task],
    self_probs: Callable[[], np.ndarray],
    s: np.random.Generator,
    h: Hyperparams,
    explore_epsilon: float,
) -> list[SchedulerDecision]:
    """Place pending tasks in descending urgency order; a task with no
    feasible node gets no decision and stays pending.

    ``self_probs()`` gives agent i's policy probability at its own node index
    at [i]; it is called once, when the first task is placed greedily, so a
    call that only explores never computes it. Every node is scored at once
    and the best feasible one wins, ties to the lowest id. Capacity
    bookkeeping for nodes chosen earlier in the call shifts later scores;
    with ``explore_epsilon == 0`` no randomness is consumed.
    """
    order = sorted(pending, key=lambda t: (-priority_score(t, state.time), t.id))
    cpu_capacity, mem_capacity = state.specs.cpu_capacity, state.specs.mem_capacity
    util = state.utilization()
    mem_frac = state.mem_in_use / mem_capacity
    probs = None
    decisions = []
    for task in order:
        feas = feasible_nodes(state, task)
        if not feas:
            continue
        if explore_epsilon > 0.0 and s.random() < explore_epsilon:
            chosen = feas[int(s.random() * len(feas))]
        else:
            if probs is None:
                probs = self_probs()
            scores = assignment_score(probs, util, mem_frac, task, cpu_capacity, h)
            chosen = feas[int(scores[feas].argmax())]   # feas ascends: ties to the lowest id
        util[chosen] += task.cpu / cpu_capacity[chosen]
        mem_frac[chosen] += task.mem / mem_capacity[chosen]
        decisions.append(SchedulerDecision(task.id, chosen))
    return decisions


SLA_PLUS = 15.0
SLA_MINUS = 20.0
COMPL_BASE = 100.0
COMPL_SLOPE = 0.5
ENERGY_COEF = 0.3
BALANCE_COEF = 200.0


def compute_step_reward(report: StepReport, state: SimState) -> float:
    """Shared global step reward: SLA, completion-speed, energy and balance terms."""
    r = 0.0
    for c in report.completions:
        if c.met_sla:
            r += SLA_PLUS * (4 - c.priority)
        else:
            r -= SLA_MINUS * (4 - c.priority)
        r += max(0.0, COMPL_BASE - COMPL_SLOPE * c.completion_time)
    for tid in report.dropped:
        r -= SLA_MINUS * (4 - state.tasks[tid].priority)
    r -= ENERGY_COEF * (report.energy_joules / 3.6e6)
    r -= BALANCE_COEF * report.util_variance
    return r


class Experience(NamedTuple):
    """Transitions as rows: ``obs``/``next_obs`` (n, obs_dim), ``action``, ``reward``
    and ``alive`` (n,); a terminal row has ``alive`` 0.0 and its ``next_obs`` is
    unused. One transition is the same tuple without the leading axis."""

    obs: np.ndarray
    next_obs: np.ndarray
    action: np.ndarray
    reward: np.ndarray
    alive: np.ndarray


def td_error(agents: AgentParams, ids: np.ndarray, rows: Experience, gamma: float) -> np.ndarray:
    """delta = r + gamma * V(o') * alive - V(o) per row k, V being agent ``ids[k]``'s
    value head: one stacked pass over parameters gathered per row, with
    ``forward``'s expressions (so the same bits), and no policy head."""
    both = np.concatenate([ids, ids])
    x = np.concatenate([rows.obs, rows.next_obs])
    hidden = np.maximum((agents.W1[both] @ x[..., None])[..., 0] + agents.b1[both], 0.0)
    v, v_next = np.split((agents.Wv[both][..., None, :] @ hidden[..., None])[..., 0, 0]
                         + agents.bv[both], 2)
    delta = rows.reward + gamma * v_next * rows.alive - v
    if not np.all(np.isfinite(delta)):
        raise FloatingPointError("non-finite TD error")
    return delta


# Prioritized replay's priority offset and exponent (Schaul et al. 2016).
PER_EPSILON, PER_EXPONENT = 0.01, 0.6


class ReplayBuffer:
    """Ring of transitions with TD-error-proportional sampling (exponent 0.6).
    ``rows`` and ``priorities`` are arrays, slot for slot, that start at one row
    and double up to ``capacity``, so a buffer with few transitions stays small."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.rows: Experience | None = None
        self.priorities = np.zeros(0)
        self._added = 0   # rows ever added; the k-th went to slot k % capacity

    def __len__(self):
        return min(self._added, self.capacity)

    def add(self, row: Experience, delta: float) -> None:
        """Store one transition with priority |delta| + ``PER_EPSILON``."""
        slot = self._added % self.capacity
        if slot == len(self.priorities):   # full: double, the first row sets the shapes
            n = min(2 * slot or 1, self.capacity)
            columns = self.rows or [np.zeros((0,) + np.shape(v), np.asarray(v).dtype) for v in row]
            grown = [np.concatenate([c, np.zeros((n - len(c),) + c.shape[1:], c.dtype)])
                     for c in (*columns, self.priorities)]
            self.rows, self.priorities = Experience(*grown[:-1]), grown[-1]
        for column, value in zip(self.rows, row):
            column[slot] = value
        self.priorities[slot] = abs(delta) + PER_EPSILON
        self._added += 1

    def sample(self, batch_size: int, s: np.random.Generator) -> Experience:
        size = len(self)
        if not size:
            raise RuntimeError("cannot sample from an empty replay buffer")
        weights = self.priorities[:size] ** PER_EXPONENT
        cum = np.cumsum(weights / weights.sum())
        draws = s.random(batch_size)
        idx = np.minimum(np.searchsorted(cum, draws, side="right"), size - 1)
        return Experience(*(column[idx] for column in self.rows))


def apply_update(agents: AgentParams, i: int, batch: Experience, gamma: float,
                 grad_clip_norm: float | None, lr_decay: float) -> None:
    """One averaged semi-gradient step of agent ``i`` of the population: policy
    ascent on log-prob times advantage, value descent on squared TD error; then
    decay its rate by ``lr_decay``. Agent i's rows are updated in place."""
    obs, nxt, actions, rewards, alive = batch
    n = len(actions)
    if not n:
        raise ValueError("batch must be nonempty")

    W1, b1, W2, b2, Wv = agents.W1[i], agents.b1[i], agents.W2[i], agents.b2[i], agents.Wv[i]
    bv = agents.bv[i]
    h_pre = obs @ W1.T + b1
    hid = np.maximum(h_pre, 0.0)
    logits = hid @ W2.T + b2
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    policy = exp / exp.sum(axis=1, keepdims=True)
    values = hid @ Wv + bv

    hid_next = np.maximum(nxt @ W1.T + b1, 0.0)
    values_next = hid_next @ Wv + bv
    delta = rewards + gamma * values_next * alive - values

    # actor: d(-log pi_a * delta)/d logits
    g_logits = policy * delta[:, None]
    g_logits[np.arange(n), actions] -= delta
    # critic: d(0.5 * (v - target)^2)/d v with the target held constant
    g_value = -delta

    # .sum(...) / n is .mean(...) without its per-call overhead: the same bits
    d_w2 = g_logits.T @ hid / n
    d_b2 = g_logits.sum(axis=0) / n
    d_wv = (g_value[:, None] * hid).sum(axis=0) / n
    d_bv = g_value.sum() / n
    d_hid = g_logits @ W2 + g_value[:, None] * Wv[None, :]
    d_hpre = d_hid * (h_pre > 0)
    d_w1 = d_hpre.T @ obs / n
    d_b1 = d_hpre.sum(axis=0) / n

    grads = (d_w1, d_b1, d_w2, d_b2, d_wv)
    for g in grads:
        if not np.isfinite(g).all():
            raise FloatingPointError("non-finite gradient")
    if grad_clip_norm is not None:
        norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads) + d_bv * d_bv)
        if norm > grad_clip_norm:
            scale = grad_clip_norm / norm
            d_w1, d_b1, d_w2, d_b2, d_wv = (g * scale for g in grads)
            d_bv *= scale

    lr = agents.current_lr.item(i)
    W1 -= lr * d_w1
    b1 -= lr * d_b1
    W2 -= lr * d_w2
    b2 -= lr * d_b2
    Wv -= lr * d_wv
    agents.bv[i] -= lr * d_bv
    agents.current_lr[i] *= lr_decay


EXPLORE_EPSILON_START = 0.3
EXPLORE_EPSILON_DECAY = 0.995
EXPLORE_EPSILON_MIN = 0.01


def decay_explore(epsilon: float) -> float:
    return max(epsilon * EXPLORE_EPSILON_DECAY, EXPLORE_EPSILON_MIN)


def save_checkpoint(f, agents: AgentParams, episode: int) -> None:
    """Write the population's arrays, uncompressed, plus a shape/episode header
    into the open binary file ``f``: into a seekable one, the bytes ``np.savez``
    writes (one zip64 ``<name>.npy`` member per array), but straight from each
    array's buffer, where ``np.savez`` copies each array (``W2`` alone is
    n_nodes² × hidden floats)."""
    _, hidden, obs_dim = agents.W1.shape
    n_actions = agents.W2.shape[1]
    arrays = {
        "header": np.array([obs_dim, hidden, n_actions, episode], dtype=np.int64),
        "lrs": agents.current_lr,
        "W1": agents.W1, "b1": agents.b1, "W2": agents.W2,
        "b2": agents.b2, "Wv": agents.Wv, "bv": agents.bv,
    }
    with zipfile.ZipFile(f, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, a in arrays.items():
            with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                npy_format.write_array_header_1_0(member, npy_format.header_data_from_array_1_0(a))
                member.write(memoryview(a).cast("B"))


class DrlScheduler(Scheduler):
    """Scheduler interface around the agent population.

    Parameters persist across episodes (learning); per-episode randomness
    comes from the stream handed to ``reset``. With ``train`` off it only acts:
    no exploration, update, replay row, TD error or step reward.
    """

    name = "drl"

    def __init__(self, master_seed: int, n_nodes: int, h: Hyperparams | None = None, train: bool = True):
        self.h = h or Hyperparams()
        self.train = train
        self.agents = init_agents(
            [derive_stream(master_seed, f"agent-init-{i}") for i in range(n_nodes)],
            self.h, OBS_DIM, n_nodes,
        )
        self.buffers = [ReplayBuffer(self.h.replay_capacity) for _ in range(n_nodes)]
        self.explore_epsilon = EXPLORE_EPSILON_START
        self.reset(None)

    def reset(self, state, stream=None):
        self._stream = stream
        # Training only: this step's placements (agent ids, copied observation rows),
        # stored once the step reward (after advance) and next rows (next assign) are known.
        self._placed = np.zeros(0, dtype=int)
        self._placed_obs = np.zeros((0, OBS_DIM))
        self._reward = 0.0

    def _train_eligible(self):
        """One update per agent whose replay holds a batch, in id order."""
        batch_size = self.h.batch_size
        if self.h.replay_capacity < batch_size:
            return   # no replay ever holds a batch
        for i, buf in enumerate(self.buffers):
            # the replay's length is min(_added, capacity), and capacity >= batch_size
            if buf._added >= batch_size:
                batch = buf.sample(batch_size, self._stream)
                apply_update(self.agents, i, batch, self.h.gamma, self.h.grad_clip_norm,
                             self.h.lr_decay)

    def _store_placed(self, next_obs: np.ndarray, alive: float) -> None:
        """Store the staged placements in their agents' replay, then clear them."""
        ids, n = self._placed, len(self._placed)
        rows = Experience(self._placed_obs, next_obs, ids, np.full(n, self._reward), np.full(n, alive))
        deltas = td_error(self.agents, ids, rows, self.h.gamma)
        for k in range(n):
            self.buffers[ids[k]].add(Experience(*(column[k] for column in rows)), deltas[k])
        self._placed, self._placed_obs = ids[:0], self._placed_obs[:0]

    def assign(self, state, pending):
        if self.train:
            self._train_eligible()
        if not pending and not len(self._placed):
            return []
        observations = build_observation(state)
        if len(self._placed):
            self._store_placed(observations[self._placed], 1.0)
        if not pending:
            return []
        # forward draws no randomness, so select_assignments may skip it
        # when no task is placed greedily
        eps = self.explore_epsilon if self.train else 0.0
        decisions = select_assignments(state, pending,
                                       lambda: forward(self.agents, observations)[0].diagonal(),
                                       self._stream, self.h, eps)
        if self.train:
            self._placed = np.array([d.node_id for d in decisions], dtype=int)
            self._placed_obs = observations[self._placed]
        return decisions

    def after_advance(self, state, report):
        if len(self._placed):
            self._reward = compute_step_reward(report, state)

    def end_episode(self, state):
        if len(self._placed):
            self._store_placed(np.zeros_like(self._placed_obs), 0.0)
        if self.train:
            self.explore_epsilon = decay_explore(self.explore_epsilon)
