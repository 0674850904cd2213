"""Tier composition, capacity ranges and the linear power model."""

import numpy as np
import pytest

from marlsched.cluster import (
    DEFAULT_TIERS,
    HIGH,
    LOW,
    MEDIUM,
    NodeSpec,
    generate_cluster,
    instantaneous_power,
    step_energy,
)
from marlsched.rng import derive_stream


def make_spec(p_idle=100.0, p_dyn=200.0, cpu=4.0, mem=16.0, nid=0):
    return NodeSpec(id=nid, cpu_capacity=cpu, mem_capacity=mem,
                    p_idle=p_idle, p_dyn=p_dyn, tier=MEDIUM)


class TestGeneration:
    def test_tier_counts_n10(self):
        nodes = generate_cluster(derive_stream(42, "cluster"), 10)
        tiers = [n.tier for n in nodes]
        assert tiers.count(HIGH) == 2
        assert tiers.count(MEDIUM) == 5
        assert tiers.count(LOW) == 3
        # ids dense and ordered High -> Medium -> Low
        assert [n.id for n in nodes] == list(range(10))
        assert tiers == [HIGH] * 2 + [MEDIUM] * 5 + [LOW] * 3

    def test_remainder_goes_to_medium(self):
        nodes = generate_cluster(derive_stream(42, "cluster"), 7)
        tiers = [n.tier for n in nodes]
        assert tiers.count(HIGH) == round(0.2 * 7)
        assert tiers.count(LOW) == round(0.3 * 7)
        assert tiers.count(MEDIUM) == 7 - tiers.count(HIGH) - tiers.count(LOW)

    def test_capacities_within_tier_ranges(self):
        nodes = generate_cluster(derive_stream(1, "cluster"), 100)
        for n in nodes:
            cfg = DEFAULT_TIERS[n.tier]
            assert cfg.cpu_range[0] <= n.cpu_capacity <= cfg.cpu_range[1]
            assert n.cpu_capacity == int(n.cpu_capacity)  # integer core counts
            assert cfg.mem_range[0] <= n.mem_capacity <= cfg.mem_range[1]
            assert cfg.p_idle_range[0] <= n.p_idle <= cfg.p_idle_range[1]
            assert cfg.p_dyn_range[0] <= n.p_dyn <= cfg.p_dyn_range[1]

    def test_largest_draw_gives_top_of_range(self):
        """u just below 1 picks the top core count, not one past it: u * k < k
        in floating point for every count k of integers in a tier's range."""
        class LargestDraw:
            def random(self):
                return float(np.nextafter(1.0, 0.0))

        for n in generate_cluster(LargestDraw(), 10):
            assert n.cpu_capacity == DEFAULT_TIERS[n.tier].cpu_range[1]

    def test_determinism(self):
        a = generate_cluster(derive_stream(42, "cluster"), 20)
        b = generate_cluster(derive_stream(42, "cluster"), 20)
        assert a == b

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            generate_cluster(derive_stream(0, "x"), 0)


class TestPowerModel:
    def test_idle(self):
        assert instantaneous_power(make_spec(), 0.0) == 100.0

    def test_full_load(self):
        assert instantaneous_power(make_spec(), 1.0) == 300.0

    def test_half_load(self):
        assert instantaneous_power(make_spec(), 0.5) == 200.0

    def test_utilization_out_of_range(self):
        with pytest.raises(ValueError):
            instantaneous_power(make_spec(), 1.5)
        with pytest.raises(ValueError):
            instantaneous_power(make_spec(), -0.1)


class TestStepEnergy:
    def test_half_utilized(self):
        assert step_energy(make_spec(), 2.0, 5.0) == 1000.0

    def test_idle_node_burns_idle_power(self):
        assert step_energy(make_spec(), 0.0, 5.0) == 500.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            step_energy(make_spec(), 5.0, 5.0)  # over capacity
        with pytest.raises(ValueError):
            step_energy(make_spec(), -1.0, 5.0)
        with pytest.raises(ValueError):
            step_energy(make_spec(), 1.0, 0.0)
