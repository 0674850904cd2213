"""Episode metrics, final-window aggregation and statistical test oracles."""

import numpy as np
import pytest

from marlsched.cluster import NodeSpec, generate_cluster
from marlsched.metrics import (
    aggregate_final,
    max_energy_kwh,
    objective_j,
    summarize_episode,
)
from marlsched.rng import derive_stream
from marlsched.simenv import SimConfig, advance, enqueue_assignment, init_episode
from marlsched.stats import bonferroni, confidence_interval_95, welch_t_test
from marlsched.workload import Task


def node(nid, cpu=8.0):
    return NodeSpec(id=nid, cpu_capacity=cpu, mem_capacity=64.0,
                    p_idle=100.0, p_dyn=200.0, tier="Medium")


class TestEpisodeMetrics:
    def test_single_completed_task(self):
        t = Task(id=0, duration=30.0, cpu=1.0, mem=1.0, arrival=0.0, priority=1, deadline=45.0)
        state = init_episode(SimConfig(), [t], [node(0)])
        enqueue_assignment(state, [(0, 0)])
        while not state.all_resolved():
            advance(state, 5.0)
        m = summarize_episode(state)
        assert m.atct == 30.0
        assert m.sla_rate == 1.0
        assert m.completed == 1
        assert m.makespan == 30.0
        assert m.throughput == pytest.approx(1 / (30.0 / 1000.0))

    def test_zero_completions(self):
        t = Task(id=0, duration=8.0, cpu=1.0, mem=1.0, arrival=0.0, priority=0, deadline=12.0)
        state = init_episode(SimConfig(), [t], [node(0)])
        while not state.all_resolved():
            advance(state, 5.0)       # task is dropped, never assigned
        m = summarize_episode(state)
        assert m.atct is None
        assert m.sla_rate == 0.0
        assert m.completed == 0

    def test_max_energy(self):
        state = init_episode(SimConfig(), [], [node(0), node(1)])
        # two nodes at full power (300 W each) for the given horizon
        assert max_energy_kwh(state, 1000.0) == pytest.approx(600.0 * 1000.0 / 3.6e6)

    def test_max_energy_sums_specs_in_node_order(self):
        """The spec arrays give the per-node sum's bits (numpy's pairwise sum need not)."""
        nodes = generate_cluster(derive_stream(42, "cl"), 100)
        state = init_episode(SimConfig(), [], nodes)
        assert max_energy_kwh(state, 1000.0) == sum(n.p_idle + n.p_dyn for n in nodes) * 1000.0 / 3.6e6


class TestObjective:
    def test_all_zero(self):
        assert objective_j(0.0, 0.0, 0.0, 0.0, e_max_kwh=10.0, max_time=10_000.0) == 0.0

    def test_all_components_one(self):
        j = objective_j(10_000.0, 10.0, 1.0, 1.0, e_max_kwh=10.0, max_time=10_000.0)
        assert j == pytest.approx(1.0)

    def test_weights(self):
        j = objective_j(5_000.0, 5.0, 0.0, 0.0, e_max_kwh=10.0, max_time=10_000.0)
        assert j == pytest.approx(0.4 * 0.5 + 0.2 * 0.5)


class TestAggregateFinal:
    def test_identical_values(self):
        assert aggregate_final([31.0] * 10, 10) == (31.0, 0.0)

    def test_two_value_window(self):
        mean, std = aggregate_final([99.0, 30.0, 32.0], 2)
        assert mean == 31.0
        assert std == pytest.approx(np.sqrt(2.0))

    def test_none_excluded_with_warning(self):
        with pytest.warns(UserWarning):
            mean, _ = aggregate_final([10.0, None, 20.0], 3)
        assert mean == 15.0

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            aggregate_final([1.0], 2)

    def test_all_none_window(self):
        with pytest.raises(ValueError):
            aggregate_final([None, None], 2)


class TestWelch:
    def test_oracle_case(self):
        t, p = welch_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
        assert t == pytest.approx(-1.2247, abs=1e-3)
        assert p == pytest.approx(0.2879, abs=1e-3)

    def test_unequal_sizes_and_variances_use_welch_df(self):
        """Sizes 6 and 3 with variances 3.5 and 49: the Welch-Satterthwaite df
        (about 2.14) is far from Student's pooled n_a + n_b - 2 = 7, whose test
        gives t -1.91485, p 0.09706 on the same data."""
        from scipy.stats import t as t_dist

        a, b = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2.0, 9.0, 16.0]
        va, vb = np.var(a, ddof=1) / len(a), np.var(b, ddof=1) / len(b)
        t_ref = (np.mean(a) - np.mean(b)) / np.sqrt(va + vb)
        df = (va + vb) ** 2 / (va**2 / (len(a) - 1) + vb**2 / (len(b) - 1))
        p_ref = 2.0 * t_dist.sf(abs(t_ref), df)
        t, p = welch_t_test(a, b)
        assert t == pytest.approx(t_ref) and p == pytest.approx(p_ref)
        assert t == pytest.approx(-1.33723, abs=1e-5)
        assert p == pytest.approx(0.30532, abs=1e-5)

    def test_identical_samples(self):
        t, p = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0 and p == pytest.approx(1.0)

    def test_antisymmetric(self):
        a, b = [1.0, 2.0, 5.0], [2.0, 4.0, 4.5]
        t_ab, p_ab = welch_t_test(a, b)
        t_ba, p_ba = welch_t_test(b, a)
        assert t_ab == pytest.approx(-t_ba)
        assert p_ab == pytest.approx(p_ba)

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            a = rng.normal(size=rng.integers(2, 12))
            b = rng.normal(loc=rng.normal(), size=rng.integers(2, 12))
            _, p = welch_t_test(a, b)
            assert 0.0 <= p <= 1.0

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            welch_t_test([2.0, 2.0], [3.0, 3.0])  # both zero-variance


class TestConfidenceInterval:
    def test_oracle_case(self):
        lo, hi = confidence_interval_95([10.0, 12.0, 14.0])
        assert (hi - lo) / 2.0 == pytest.approx(4.968, abs=1e-3)
        assert (lo + hi) / 2.0 == pytest.approx(12.0)

    def test_all_equal_zero_width(self):
        lo, hi = confidence_interval_95([5.0, 5.0, 5.0])
        assert lo == hi == 5.0

    def test_translation(self):
        lo, hi = confidence_interval_95([1.0, 2.0, 4.0])
        lo2, hi2 = confidence_interval_95([11.0, 12.0, 14.0])
        assert lo2 == pytest.approx(lo + 10.0) and hi2 == pytest.approx(hi + 10.0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            confidence_interval_95([1.0])


class TestBonferroni:
    def test_scaling_and_cap(self):
        assert bonferroni(0.01, 3) == pytest.approx(0.03)
        assert bonferroni(0.6, 3) == 1.0
