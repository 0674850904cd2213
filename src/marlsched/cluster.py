"""Heterogeneous node population: three capacity tiers and the linear power model."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

HIGH, MEDIUM, LOW = "High", "Medium", "Low"


@dataclass(frozen=True)
class NodeSpec:
    """Static node capacity and power coefficients; or a population's, then
    every field is an array indexed by node id (``stack_specs``)."""

    id: int
    cpu_capacity: float  # cores
    mem_capacity: float  # GB
    p_idle: float        # watts at zero load
    p_dyn: float         # watts per unit utilization
    tier: str


@dataclass(frozen=True)
class TierConfig:
    fraction: float
    cpu_range: tuple[float, float]
    mem_range: tuple[float, float]
    p_idle_range: tuple[float, float]
    p_dyn_range: tuple[float, float]


DEFAULT_TIERS = {
    HIGH: TierConfig(0.20, (24, 32), (96, 128), (120, 180), (250, 400)),
    MEDIUM: TierConfig(0.50, (8, 16), (32, 64), (60, 100), (120, 200)),
    LOW: TierConfig(0.30, (2, 8), (8, 32), (20, 60), (40, 120)),
}

# Normalization ceilings (max over tier ranges), used for observation features.
MAX_CPU_CAPACITY = 32.0
MAX_MEM_CAPACITY = 128.0
MAX_P_IDLE = 180.0
MAX_P_DYN = 400.0


def _uniform_in(s: np.random.Generator, lo: float, hi: float) -> float:
    return lo + (hi - lo) * s.random()


def generate_cluster(s: np.random.Generator, n: int) -> list[NodeSpec]:
    """Draw ``n`` node specs: High nodes first, then Medium, then Low.

    Rounding remainders go to the Medium tier.  CPU capacities are integer
    core counts; memory and power coefficients are real-valued.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n_high = round(DEFAULT_TIERS[HIGH].fraction * n)
    n_low = round(DEFAULT_TIERS[LOW].fraction * n)
    n_medium = n - n_high - n_low

    nodes = []
    for tier_name, count in ((HIGH, n_high), (MEDIUM, n_medium), (LOW, n_low)):
        cfg = DEFAULT_TIERS[tier_name]
        for _ in range(count):
            # Integer core counts: uniform over the integers in range, inclusive.
            lo, hi = cfg.cpu_range
            cpu = float(int(lo) + int(s.random() * (int(hi) - int(lo) + 1)))
            nodes.append(
                NodeSpec(
                    id=len(nodes),
                    cpu_capacity=cpu,
                    mem_capacity=_uniform_in(s, *cfg.mem_range),
                    p_idle=_uniform_in(s, *cfg.p_idle_range),
                    p_dyn=_uniform_in(s, *cfg.p_dyn_range),
                    tier=tier_name,
                )
            )
    return nodes


def stack_specs(nodes: Sequence[NodeSpec]) -> NodeSpec:
    """The population of ``nodes``, node i at index i of every field's array."""
    return NodeSpec(*(np.array([getattr(n, f.name) for n in nodes]) for f in fields(NodeSpec)))


def instantaneous_power(spec: NodeSpec, utilization: float) -> float:
    """Linear power model: idle floor plus utilization-proportional term.

    For a population ``spec``, ``utilization`` holds one value per node and
    the power is per node too.
    """
    u = np.asarray(utilization)
    if not ((0.0 <= u) & (u <= 1.0)).all():
        raise ValueError(f"utilization must be in [0, 1], got {utilization}")
    return spec.p_idle + spec.p_dyn * utilization


def step_energy(spec: NodeSpec, aggregate_cpu_in_use: float, dt: float) -> float:
    """Energy in joules consumed over one step at constant load; per node for
    a population ``spec`` with one ``aggregate_cpu_in_use`` per node."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    cpu, cap = np.asarray(aggregate_cpu_in_use), spec.cpu_capacity
    outside = np.flatnonzero(~((0.0 <= cpu) & (cpu <= cap)))
    if outside.size:
        i = outside[0]
        raise ValueError(
            f"cpu in use {np.ravel(cpu)[i]} outside [0, {np.ravel(cap)[i]}] on node {np.ravel(spec.id)[i]}"
        )
    return instantaneous_power(spec, aggregate_cpu_in_use / cap) * dt
