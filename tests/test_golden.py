"""Byte contract: the seed-42 episode CSV of each baseline on a small loaded
cluster is pinned by its sha256.

20 nodes at 8 arrivals/s (about 0.9 of cluster cores) keep a min-min backlog
of up to ~160 pending tasks and some tasks past their deadline; the 300-s
horizon ends each episode inside the arrival stream. A change to scheduling,
the engine or workload generation that moves any byte of these CSVs is a
contract change and must update the hashes on purpose.
"""

import hashlib

import pytest

from marlsched.experiment import ExperimentConfig, run_scheduler
from marlsched.simenv import SimConfig

GOLDEN_SHA256 = {
    "random": "1ec4b50ad2b8650b53f4ed7889e6090be8571d42fce88590e0991b0078fcf5f7",
    "wrr": "271fb3eebc5dfca9e5b1b7a36906f66029b4e93b970f9fc57b91783bf6aa51bc",
    "minmin": "95c2dc0bf41af239f76be05df3d2ac5f3fffc321fb92cc38486c46637474cdb4",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_episode_csv_bytes(name, tmp_path):
    config = ExperimentConfig(
        master_seed=42, n_nodes=20, n_tasks=2600, episodes=2, final_window=1,
        schedulers=(name,), arrival_rate=8.0, sim=SimConfig(max_time=300.0),
        output_dir=str(tmp_path),
    )
    run_scheduler(config, name)
    digest = hashlib.sha256((tmp_path / f"{name}.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_SHA256[name]
