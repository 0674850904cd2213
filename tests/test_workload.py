"""Workload generator postconditions, and statistical fidelity."""

import numpy as np
import pytest

from marlsched.rng import derive_stream
from marlsched.workload import (
    DEADLINE_FACTORS,
    deadline_for,
    generate_workload,
)


@pytest.fixture(scope="module")
def big_workload():
    return generate_workload(derive_stream(42, "workload-stats"), 10_000)


class TestDeadline:
    def test_multipliers(self):
        assert deadline_for(0.0, 10.0, 0) == 15.0
        assert deadline_for(0.0, 10.0, 1) == 30.0
        assert deadline_for(0.0, 10.0, 2) == 50.0
        assert deadline_for(100.0, 4.0, 1) == 112.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            deadline_for(0.0, 0.0, 1)
        with pytest.raises(ValueError):
            deadline_for(0.0, 10.0, 3)


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
