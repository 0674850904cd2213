"""Stream determinism, independence, and inverse-CDF sampling oracles.

The scalar samplers here draw one value per stream call. The workload
generator does not use them; ``tests/test_workload.py`` builds its reference
workload from them.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from marlsched.rng import derive_stream
from marlsched.workload import pareto_from_uniform


def normal(s) -> float:
    """Next standard-normal draw of stream ``s``: one scalar generator call."""
    return float(s.standard_normal())


def exponential_from_uniform(u: float, rate: float) -> float:
    return float(-np.log1p(-u) / rate)


def lognormal_from_normal(z: float, mu: float, sigma: float) -> float:
    return float(np.exp(mu + sigma * z))


def sample_pareto(s, alpha: float, t_min: float) -> float:
    """Pareto(alpha, t_min) draw; always >= t_min."""
    if alpha <= 0 or t_min <= 0:
        raise ValueError("alpha and t_min must be positive")
    return pareto_from_uniform(s.random(), alpha, t_min)


def sample_lognormal(s, mu: float, sigma: float) -> float:
    """LogNormal(mu, sigma) draw; always > 0."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return lognormal_from_normal(normal(s), mu, sigma)


def sample_exponential(s, rate: float) -> float:
    """Exponential(rate) draw; always >= 0."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return exponential_from_uniform(s.random(), rate)


def sample_categorical(s, weights) -> int:
    """Index i such that the stream's uniform falls in the i-th cumulative bin."""
    cum = np.cumsum(weights)
    u = s.random()
    return int(min(np.searchsorted(cum, u, side="right"), len(cum) - 1))


class FixedUniformStream:
    """Stand-in stream returning a preset uniform value."""

    def __init__(self, u):
        self._u = u

    def random(self):
        return self._u


class TestStreams:
    def test_same_label_same_sequence(self):
        a = derive_stream(42, "workload")
        b = derive_stream(42, "workload")
        assert [a.random() for _ in range(100)] == [b.random() for _ in range(100)]

    def test_distinct_labels_differ(self):
        a = derive_stream(42, "workload")
        b = derive_stream(42, "cluster")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_distinct_master_seeds_differ(self):
        a = derive_stream(42, "workload")
        b = derive_stream(43, "workload")
        assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]

    def test_stream_is_a_numpy_generator(self):
        assert type(derive_stream(42, "workload")) is np.random.Generator

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            derive_stream(42, "")

    def test_uniform_array_matches_single_draws(self):
        a = derive_stream(7, "x")
        b = derive_stream(7, "x")
        assert list(a.random(20)) == [b.random() for _ in range(20)]

    def test_normal_array_matches_single_draws(self):
        # 20 000 normals include some of the ziggurat's multi-word draws
        a = derive_stream(7, "x")
        b = derive_stream(7, "x")
        assert a.standard_normal(20_000).tolist() == [normal(b) for _ in range(20_000)]

    def test_fills_into_out_match_single_draws(self):
        a = derive_stream(7, "x")
        b = derive_stream(7, "x")
        buf = np.empty(12)
        for k in range(0, 12, 6):
            a.random(out=buf[k:k + 2])
            a.standard_normal(out=buf[k + 2:k + 6])
        want = []
        for _ in range(2):
            want += [b.random() for _ in range(2)] + [normal(b) for _ in range(4)]
        assert buf.tolist() == want
        assert a.random() == b.random()

    @given(st.integers(min_value=0, max_value=2**32), st.text(min_size=1, max_size=20))
    def test_uniform_in_unit_interval(self, seed, label):
        s = derive_stream(seed, label)
        u = s.random()
        assert 0.0 <= u < 1.0


class TestPareto:
    def test_u_zero_is_t_min(self):
        assert pareto_from_uniform(0.0, 1.5, 5.0) == 5.0

    def test_u_half(self):
        # t_min * 2^(1/alpha) = 5 * 2^(2/3)
        assert pareto_from_uniform(0.5, 1.5, 5.0) == pytest.approx(5.0 * 2.0 ** (2.0 / 3.0))
        assert pareto_from_uniform(0.5, 1.5, 5.0) == pytest.approx(7.937, abs=5e-3)

    def test_sample_median(self):
        s = derive_stream(0, "pareto-median")
        xs = [sample_pareto(s, 1.5, 5.0) for _ in range(10_000)]
        assert np.median(xs) == pytest.approx(7.937, rel=0.05)
        assert min(xs) >= 5.0

    def test_invalid_params(self):
        s = derive_stream(0, "x")
        with pytest.raises(ValueError):
            sample_pareto(s, 0.0, 5.0)
        with pytest.raises(ValueError):
            sample_pareto(s, 1.5, -1.0)


class TestLogNormal:
    def test_z_zero(self):
        assert lognormal_from_normal(0.0, 0.5, 0.8) == pytest.approx(np.exp(0.5))

    def test_z_one(self):
        assert lognormal_from_normal(1.0, 0.5, 0.8) == pytest.approx(np.exp(1.3))
        assert lognormal_from_normal(1.0, 0.5, 0.8) == pytest.approx(3.6693, abs=1e-4)

    def test_sample_median(self):
        s = derive_stream(0, "lognormal-median")
        xs = [sample_lognormal(s, 2.0, 1.0) for _ in range(10_000)]
        assert np.median(xs) == pytest.approx(np.exp(2.0), rel=0.05)

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            sample_lognormal(derive_stream(0, "x"), 2.0, 0.0)


class TestExponential:
    def test_u_zero(self):
        assert exponential_from_uniform(0.0, 0.5) == 0.0

    def test_u_half(self):
        assert exponential_from_uniform(0.5, 0.5) == pytest.approx(np.log(2.0) / 0.5)
        assert exponential_from_uniform(0.5, 0.5) == pytest.approx(1.3863, abs=1e-4)

    def test_sample_mean(self):
        s = derive_stream(0, "exp-mean")
        xs = [sample_exponential(s, 0.5) for _ in range(10_000)]
        assert np.mean(xs) == pytest.approx(2.0, rel=0.05)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            sample_exponential(derive_stream(0, "x"), 0.0)


class TestCategorical:
    WEIGHTS = (0.25, 0.60, 0.15)

    @pytest.mark.parametrize("u,expected", [(0.10, 0), (0.50, 1), (0.95, 2)])
    def test_cumulative_thresholds(self, u, expected):
        assert sample_categorical(FixedUniformStream(u), self.WEIGHTS) == expected

    def test_boundary_values(self):
        assert sample_categorical(FixedUniformStream(0.0), self.WEIGHTS) == 0
        # u just below 1 still maps to the last index
        assert sample_categorical(FixedUniformStream(1.0 - 1e-12), self.WEIGHTS) == 2

    def test_empirical_mix(self):
        s = derive_stream(0, "cat-mix")
        counts = np.bincount(
            [sample_categorical(s, self.WEIGHTS) for _ in range(10_000)], minlength=3
        )
        for frac, w in zip(counts / 10_000.0, self.WEIGHTS):
            assert frac == pytest.approx(w, abs=0.02)
