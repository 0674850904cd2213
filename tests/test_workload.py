"""Workload generator postconditions, and statistical fidelity."""

import numpy as np
import pytest

from marlsched.rng import derive_stream
from marlsched.workload import (
    CPU_MU,
    CPU_SIGMA,
    DEADLINE_FACTORS,
    DEFAULT_ARRIVAL_RATE,
    DURATION_ALPHA,
    DURATION_TMIN,
    MEM_MU,
    MEM_SIGMA,
    PRIORITY_MIX,
    Task,
    generate_workload,
)
from test_rng import sample_categorical, sample_exponential, sample_lognormal, sample_pareto


def reference_workload(s, count, arrival_rate=DEFAULT_ARRIVAL_RATE):
    """One scalar sampler call per value, in the generator's draw order."""
    tasks, now = [], 0.0
    for i in range(count):
        now += sample_exponential(s, arrival_rate)
        duration = sample_pareto(s, DURATION_ALPHA, DURATION_TMIN)
        cpu = sample_lognormal(s, CPU_MU, CPU_SIGMA)
        mem = sample_lognormal(s, MEM_MU, MEM_SIGMA)
        priority = sample_categorical(s, PRIORITY_MIX)
        tasks.append(Task(i, duration, cpu, mem, now, priority,
                          now + DEADLINE_FACTORS[priority] * duration))
    return tasks


def extra_words(start, end, words, limit=10_000):
    """How many 64-bit words past the first ``words`` take a PCG64 generator
    from state ``start`` to state ``end``: 0 when every draw took one word."""
    bits = np.random.PCG64()
    bits.state = start
    bits.advance(words)
    for extra in range(limit):
        if bits.state == end:
            return extra
        bits.advance(1)
    raise AssertionError(f"state not reached within {limit} extra words")


@pytest.fixture(scope="module")
def big_workload():
    return generate_workload(derive_stream(42, "workload-stats"), 10_000)


class TestDeadline:
    def test_multipliers(self, big_workload):
        assert DEADLINE_FACTORS == (1.5, 3.0, 5.0)
        assert {t.priority for t in big_workload} == {0, 1, 2}
        for t in big_workload:
            assert t.deadline == t.arrival + DEADLINE_FACTORS[t.priority] * t.duration


class TestGeneration:
    def test_postconditions(self):
        tasks = generate_workload(derive_stream(42, "wl"), 1000)
        assert len(tasks) == 1000
        assert [t.id for t in tasks] == list(range(1000))
        arrivals = [t.arrival for t in tasks]
        assert all(b >= a for a, b in zip(arrivals, arrivals[1:]))
        assert all(t.duration >= 5.0 for t in tasks)
        assert all(t.cpu > 0 and t.mem > 0 for t in tasks)
        assert all(t.priority in (0, 1, 2) for t in tasks)
        for t in tasks:
            assert t.deadline == t.arrival + DEADLINE_FACTORS[t.priority] * t.duration

    def test_determinism(self):
        a = generate_workload(derive_stream(42, "wl"), 50)
        b = generate_workload(derive_stream(42, "wl"), 50)
        assert a == b

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            generate_workload(derive_stream(0, "x"), 0)
        with pytest.raises(ValueError):
            generate_workload(derive_stream(0, "x"), 10, arrival_rate=0.0)

    def test_duration_median(self, big_workload):
        assert np.median([t.duration for t in big_workload]) == pytest.approx(7.94, rel=0.05)

    def test_cpu_median(self, big_workload):
        assert np.median([t.cpu for t in big_workload]) == pytest.approx(1.649, rel=0.05)

    def test_mem_median(self, big_workload):
        assert np.median([t.mem for t in big_workload]) == pytest.approx(7.389, rel=0.05)

    def test_interarrival_mean(self, big_workload):
        arrivals = [t.arrival for t in big_workload]
        gaps = np.diff([0.0] + arrivals)
        assert np.mean(gaps) == pytest.approx(2.0, rel=0.05)

    def test_priority_mix(self, big_workload):
        counts = np.bincount([t.priority for t in big_workload], minlength=3)
        fracs = counts / len(big_workload)
        for frac, expected in zip(fracs, (0.25, 0.60, 0.15)):
            assert frac == pytest.approx(expected, abs=0.02)


class TestReferenceEquivalence:
    """The array transforms reproduce the scalar samplers bit for bit."""

    @pytest.mark.parametrize("seed", [42, 7, 1234])
    def test_default_model(self, seed):
        got = generate_workload(derive_stream(seed, "wl"), 5000)
        assert got == reference_workload(derive_stream(seed, "wl"), 5000)

    @pytest.mark.parametrize("count", [1, 2])
    def test_smallest_counts(self, count):
        """One task has no ``n n u u u`` block and two have one."""
        s, ref = derive_stream(9, "wl"), derive_stream(9, "wl")
        got = generate_workload(s, count)
        assert got == reference_workload(ref, count)
        assert all(type(t) is Task for t in got)
        assert s.random() == ref.random()

    @pytest.mark.parametrize("arrival_rate", [13.7, 3])
    def test_non_default_rate(self, arrival_rate):
        got = generate_workload(derive_stream(5, "wl"), 3000, arrival_rate)
        assert got == reference_workload(derive_stream(5, "wl"), 3000, arrival_rate)
        assert all(type(t.priority) is int and type(t.cpu) is float for t in got)

    @pytest.mark.parametrize("seed", [42, 7])
    def test_loaded_scale(self, seed):
        """The benchmark's loaded episode size: 21 804 tasks at 34.61 tasks/s.
        Both streams end at the same position, and the run included normals
        that took more than one generator word, so the fills were checked on
        the ziggurat's slow path too."""
        count, rate = 21_804, 34.61
        got_s, want_s = derive_stream(seed, "workload-0"), derive_stream(seed, "workload-0")
        start = got_s.bit_generator.state
        got = generate_workload(got_s, count, rate)
        assert got == reference_workload(want_s, count, rate)
        assert {type(t) for t in got} == {Task}
        assert {tuple(map(type, t)) for t in got} == {(int, float, float, float, float, int, float)}
        assert [got_s.random() for _ in range(3)] == [want_s.random() for _ in range(3)]
        assert extra_words(start, got_s.bit_generator.state, 5 * count + 3) > 0

    @pytest.mark.parametrize("arrival_rate", [0.0, -1.0])
    def test_bad_arrival_rate_rejected(self, arrival_rate):
        with pytest.raises(ValueError, match="^arrival_rate must be positive$"):
            generate_workload(derive_stream(0, "x"), 5, arrival_rate)
