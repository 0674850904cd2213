"""Byte contract: the seed-42 episode CSV of every scheduler on a small loaded
cluster is pinned by its sha256, and so is the drl checkpoint.

20 nodes at 8 arrivals/s (about 0.9 of cluster cores) keep a min-min backlog
of up to ~160 pending tasks and some tasks past their deadline; the 300-s
horizon ends each episode inside the arrival stream. drl trains online over
both episodes, so its CSV and checkpoint also pin selection, replay and the
update step. A change to scheduling, the engine, workload generation or the
learner that moves any byte of these files is a contract change and must
update the hashes on purpose.

``comparison.csv`` is pinned too, from a seed-42 ``compare`` of all four
schedulers on a small cluster: it covers the final-window means and standard
deviations, the Welch and Bonferroni cells and the cell formats.
"""

import hashlib

import pytest

from marlsched.experiment import ExperimentConfig, compare, run_scheduler
from marlsched.simenv import SimConfig

GOLDEN_SHA256 = {
    "random.csv": "1ec4b50ad2b8650b53f4ed7889e6090be8571d42fce88590e0991b0078fcf5f7",
    "wrr.csv": "271fb3eebc5dfca9e5b1b7a36906f66029b4e93b970f9fc57b91783bf6aa51bc",
    "minmin.csv": "95c2dc0bf41af239f76be05df3d2ac5f3fffc321fb92cc38486c46637474cdb4",
    "drl.csv": "e8dd18d941174e84d9017a28416251117337bf3e0916614809311323d3fe64c6",
    "drl_checkpoint.npz": "0749812ae37e0753e0a440fdc81912d262fbde2d89b0aba8a8e20d85acb00943",
}


@pytest.mark.parametrize("name", ["drl", "minmin", "random", "wrr"])
def test_episode_csv_bytes(name, tmp_path):
    config = ExperimentConfig(
        master_seed=42, n_nodes=20, n_tasks=2600, episodes=2, final_window=1,
        schedulers=(name,), arrival_rate=8.0, sim=SimConfig(max_time=300.0),
        output_dir=str(tmp_path),
    )
    run_scheduler(config, name)
    for fname, digest in GOLDEN_SHA256.items():
        if fname.startswith(name):
            assert hashlib.sha256((tmp_path / fname).read_bytes()).hexdigest() == digest, fname


COMPARISON_SHA256 = "70a236aeae7214ea4aa4e12e801db0321a60ae8fadabc7e30280483c6b284c44"


def test_comparison_csv_bytes(tmp_path):
    config = ExperimentConfig(master_seed=42, n_nodes=8, n_tasks=40, episodes=3, final_window=2,
                              output_dir=str(tmp_path))
    compare(config)
    assert hashlib.sha256((tmp_path / "comparison.csv").read_bytes()).hexdigest() == COMPARISON_SHA256
