"""Config parsing, CLI commands, persistence determinism and plot emission."""

import ast
import errno
import json
import operator
import os
import re
import subprocess
import sys
import zipfile
from dataclasses import fields, replace
from pathlib import Path

import pytest

import marlsched
from marlsched import experiment, plots
from marlsched.cli import main
from marlsched.experiment import (
    ALL_SCHEDULERS,
    EPISODE_CSV_COLUMNS,
    EpisodeResult,
    ExperimentConfig,
    build_comparison,
    compare,
    format_report,
    make_scheduler,
    read_episode_csv,
    run_scheduler,
    write_comparison_csv,
    write_episode_csv,
)
from marlsched.marl import DrlScheduler, Hyperparams
from marlsched.metrics import EpisodeMetrics
from marlsched.plots import COLORS, PlotInputError, emit_all, improvement_curve_svg
from marlsched.schedulers import RandomScheduler
from marlsched.simenv import SimConfig

# Every settable config key, as from_flat names it. Adding a setting is an edit here.
CONFIG_KEYS = [
    "master_seed", "n_nodes", "n_tasks", "episodes", "final_window", "schedulers",
    "arrival_rate", "output_dir", "trace",
    "sim.max_time",
    "hyper.hidden", "hyper.learning_rate", "hyper.lr_decay", "hyper.gamma",
    "hyper.grad_clip_norm", "hyper.batch_size", "hyper.replay_capacity", "hyper.w_pi",
]

# A valid value other than the default for each settable key, set alone.
NON_DEFAULT = {
    "master_seed": 7, "n_nodes": 6, "n_tasks": 20, "episodes": 12, "final_window": 2,
    "schedulers": ["minmin", "drl"], "arrival_rate": 2.5, "output_dir": "elsewhere", "trace": True,
    "sim.max_time": 250.0,
    "hyper.hidden": 16, "hyper.learning_rate": 0.01, "hyper.lr_decay": 0.99, "hyper.gamma": 0.9,
    "hyper.grad_clip_norm": None, "hyper.batch_size": 8, "hyper.replay_capacity": 100, "hyper.w_pi": 0.0,
}

# Former settings that are constants now: the workload's priority mix and the step.
REMOVED_KEYS = ["priority_mix", "sim.dt"]

# Former Hyperparams fields that are constants of the learner now.
REMOVED_HYPER_KEYS = [
    f"hyper.{name}" for name in (
        "per_epsilon", "per_exponent",
        "explore_epsilon_start", "explore_epsilon_decay", "explore_epsilon_min",
        "urgency_class", "urgency_slack", "urgency_resource",
        "w_load", "w_mem", "w_compat",
        "sla_plus", "sla_minus", "compl_base", "compl_slope", "energy_coef", "balance_coef",
    )
]


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_nodes == 100 and cfg.n_tasks == 1000
        assert cfg.episodes == 30 and cfg.final_window == 10
        assert cfg.master_seed == 42
        assert SimConfig().dt == cfg.sim.dt == 5.0

    def test_config_keys_are_the_settable_fields(self):
        assert sorted(CONFIG_KEYS) == sorted(
            [f.name for f in fields(ExperimentConfig) if f.name not in ("sim", "hyper")]
            + [f"sim.{f.name}" for f in fields(SimConfig)]
            + [f"hyper.{f.name}" for f in fields(Hyperparams)]
        )
        assert sorted(ExperimentConfig().to_flat()) == sorted(CONFIG_KEYS)

    def test_from_flat_with_dotted_keys(self):
        cfg = ExperimentConfig.from_flat({
            "n_nodes": 10, "episodes": 5, "final_window": 2,
            "schedulers": ["random", "drl"], "sim.max_time": 250.0, "hyper.gamma": 0.9,
        })
        assert cfg.n_nodes == 10 and cfg.schedulers == ("random", "drl")
        assert cfg.sim.max_time == 250.0 and cfg.hyper.gamma == 0.9

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_flat({"n_episodes": 5})

    @pytest.mark.parametrize("key", [
        "sim.obs_dim", "sim.queue_feature_window", "sim.neighbor_count",
        "hyper.obs_dim", "hyper.n_actions", "hyper.w_prio",
        "sim.bogus", "hyper.bogus", "sim.hyper.gamma", "sim", ".episodes",
        *REMOVED_HYPER_KEYS, *REMOVED_KEYS,
    ])
    def test_unknown_nested_key_rejected(self, key):
        with pytest.raises(ValueError, match=f"^unknown config key: {re.escape(key)}$"):
            ExperimentConfig.from_flat({key: 7})

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_every_key_round_trips_its_default(self, key):
        default = json.loads(json.dumps(operator.attrgetter(key)(ExperimentConfig())))
        assert ExperimentConfig.from_flat({key: default}) == ExperimentConfig()

    @pytest.mark.parametrize("key", CONFIG_KEYS)
    def test_every_key_survives_a_round_trip(self, key):
        """A non-default value survives ``to_flat``, JSON and ``from_flat``."""
        config = ExperimentConfig.from_flat({key: NON_DEFAULT[key]})
        assert config != ExperimentConfig()
        assert ExperimentConfig.from_flat(json.loads(json.dumps(config.to_flat()))) == config

    @pytest.mark.parametrize("raw, message", [
        ({"n_nodes": "3"}, 'config key n_nodes must be int, not "3"'),
        ({"n_nodes": True}, "config key n_nodes must be int, not true"),
        ({"n_nodes": 3.0}, "config key n_nodes must be int, not 3.0"),
        ({"schedulers": "drl"}, 'config key schedulers must be a list of str, not "drl"'),
        ({"schedulers": ["drl", 1]}, 'config key schedulers must be a list of str, not ["drl", 1]'),
        ({"schedulers": 5}, "config key schedulers must be a list of str, not 5"),
        ({"schedulers": [None]}, "config key schedulers must be a list of str, not [null]"),
        ({"hyper.gamma": "0.9"}, 'config key hyper.gamma must be float, not "0.9"'),
        ({"hyper.gamma": None}, "config key hyper.gamma must be float, not null"),
        ({"hyper.gamma": False}, "config key hyper.gamma must be float, not false"),
        ({"hyper.grad_clip_norm": "10"},
         'config key hyper.grad_clip_norm must be float | None, not "10"'),
        ({"sim.max_time": None}, "config key sim.max_time must be float, not null"),
        ({"trace": 1}, "config key trace must be bool, not 1"),
        ({"output_dir": 5}, "config key output_dir must be str, not 5"),
        ({"hyper.gamma": float("inf")}, "config key hyper.gamma must be float, not Infinity"),
        ({"arrival_rate": float("-inf")}, "config key arrival_rate must be float, not -Infinity"),
        ({"sim.max_time": float("-inf")}, "config key sim.max_time must be float, not -Infinity"),
        ({"arrival_rate": float("inf")}, "config key arrival_rate must be float, not Infinity"),
        ({"sim.max_time": float("inf")}, "config key sim.max_time must be float, not Infinity"),
    ])
    def test_value_of_wrong_type_rejected(self, raw, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_flat(raw)

    @pytest.mark.parametrize("key, value, expected", [
        ("hyper.gamma", 1, 1),
        ("sim.max_time", 2, 2),
        ("hyper.grad_clip_norm", None, None),
        ("hyper.grad_clip_norm", 3, 3),
        ("arrival_rate", 3, 3),
        ("schedulers", ["minmin"], ("minmin",)),
        ("trace", True, True),
    ])
    def test_value_of_annotated_type_accepted(self, key, value, expected):
        assert operator.attrgetter(key)(ExperimentConfig.from_flat({key: value})) == expected

    @pytest.mark.parametrize("raw, message", [
        ({"n_nodes": 0}, "n_nodes must be >= 1, got 0"),
        ({"n_tasks": 0}, "n_tasks must be >= 1, got 0"),
        ({"arrival_rate": 0}, "arrival_rate must be positive, got 0"),
        ({"arrival_rate": -1.0}, "arrival_rate must be positive, got -1.0"),
        ({"hyper.batch_size": 0}, "hyper.batch_size must be >= 1, got 0"),
        ({"hyper.replay_capacity": 0}, "hyper.replay_capacity must be >= 1, got 0"),
        ({"hyper.hidden": 0}, "hyper.hidden must be >= 1, got 0"),
        ({"schedulers": ["random", "random"]}, "duplicate scheduler 'random'"),
        ({"schedulers": []}, "schedulers must be nonempty"),
        ({"episodes": 0}, "need episodes >= final_window >= 1"),
        ({"final_window": 0}, "need episodes >= final_window >= 1"),
        ({"sim.max_time": 0}, "max_time must be positive, got 0"),
        ({"sim.max_time": -5}, "max_time must be positive, got -5"),
        ({"hyper.learning_rate": 0}, "hyper.learning_rate must be > 0, got 0"),
        ({"hyper.learning_rate": -0.001}, "hyper.learning_rate must be > 0, got -0.001"),
        ({"hyper.lr_decay": 0}, "hyper.lr_decay must be in (0, 1], got 0"),
        ({"hyper.lr_decay": 1.5}, "hyper.lr_decay must be in (0, 1], got 1.5"),
        ({"hyper.gamma": 2.0}, "hyper.gamma must be in [0, 1], got 2.0"),
        ({"hyper.gamma": -0.5}, "hyper.gamma must be in [0, 1], got -0.5"),
        ({"hyper.grad_clip_norm": -1}, "hyper.grad_clip_norm must be > 0 or null, got -1"),
        ({"hyper.grad_clip_norm": 0}, "hyper.grad_clip_norm must be > 0 or null, got 0"),
    ])
    def test_value_out_of_range_rejected(self, raw, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_flat(raw)

    @pytest.mark.parametrize("raw", [[1, 2], 3, "x", None])
    def test_non_object_config_rejected(self, raw):
        with pytest.raises(ValueError, match=f"^config must be a JSON object, not {re.escape(json.dumps(raw))}$"):
            ExperimentConfig.from_flat(raw)

    def test_window_must_fit(self):
        with pytest.raises(ValueError):
            ExperimentConfig(episodes=3, final_window=5)

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler 'sjf'; "
                                             "choose from random, wrr, minmin, drl"):
            ExperimentConfig(schedulers=("random", "sjf"))

    def test_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"master_seed": 7, "n_tasks": 50}))
        cfg = ExperimentConfig.from_file(path)
        assert cfg.master_seed == 7 and cfg.n_tasks == 50


class TestEpisodeCsv:
    def test_roundtrip_and_columns(self, tmp_path):
        cfg = ExperimentConfig(n_nodes=6, n_tasks=20, episodes=2, final_window=1,
                               output_dir=str(tmp_path))
        results = run_scheduler(cfg, "random")
        rows = read_episode_csv(tmp_path / "random.csv")
        assert len(rows) == 2
        assert list(rows[0].keys()) == EPISODE_CSV_COLUMNS
        assert rows[0]["scheduler"] == "random"
        # re-serializing parsed results is stable
        out2 = tmp_path / "again.csv"
        write_episode_csv(out2, results)
        assert out2.read_bytes() == (tmp_path / "random.csv").read_bytes()

    def test_header_lines(self, tmp_path):
        """Both CSV headers, as literal lines: a column renamed, moved or dropped
        in the metric table is a contract change."""
        config = ExperimentConfig(n_nodes=6, n_tasks=20, episodes=2, final_window=1,
                                  schedulers=("random",), output_dir=str(tmp_path))
        compare(config)
        assert (tmp_path / "random.csv").read_text().splitlines()[0] == (
            "episode,scheduler,atct_s,energy_kwh,sla_rate,throughput_per_1000s,completed,"
            "load_balance_var,objective_j")
        assert (tmp_path / "comparison.csv").read_text().splitlines()[0] == (
            "scheduler,atct_s_mean,atct_s_std,energy_kwh_mean,energy_kwh_std,sla_rate_mean,"
            "sla_rate_std,throughput_mean,throughput_std,completed_mean,energy_per_completed_kwh,"
            "t_atct_vs_drl,p_atct_vs_drl,p_bonferroni")

    def test_metric_table_schema(self, tmp_path):
        """Every metric-table row names an ``EpisodeMetrics`` field, once, and every
        column the plots read is one the episode writer writes."""
        names = [m.name for m in experiment.METRICS]
        assert len(set(names)) == len(names)
        assert set(names) <= {f.name for f in fields(EpisodeMetrics)}
        config = ExperimentConfig(n_nodes=6, n_tasks=20, episodes=1, final_window=1,
                                  output_dir=str(tmp_path))
        run_scheduler(config, "random")
        written = (tmp_path / "random.csv").read_text().splitlines()[0].split(",")
        read = plots._load_episodes(tmp_path, "random")[0].keys()
        assert read == {"episode", *(column for column, _ in plots.PANELS)}
        assert read <= set(written)


class TestSchedulerTable:
    CONFIG = ExperimentConfig(n_nodes=6, n_tasks=20, episodes=2, final_window=1)

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_builds_the_named_class(self, name):
        """The lookup the benchmark harness makes: a baseline's class, else the learner's."""
        scheduler = make_scheduler(name, self.CONFIG)
        assert scheduler.name == name
        assert type(scheduler) is experiment.BASELINES.get(name, DrlScheduler)

    @pytest.mark.parametrize("name", experiment.BASELINES)
    def test_baseline_writes_no_checkpoint(self, tmp_path, name):
        run_scheduler(replace(self.CONFIG, output_dir=str(tmp_path)), name)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", f"{name}.csv"]

    @pytest.mark.parametrize("name", ALL_SCHEDULERS)
    def test_every_scheduler_has_a_colour(self, name):
        assert name in COLORS


class FullDisk:
    """A file that takes its first ``writes`` writes, such as a CSV header, and
    fails every later one midway, as on a full disk."""

    def __init__(self, f, writes):
        self.f, self.writes = f, writes

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, text):
        if self.writes == 0:
            self.f.write(text[:len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.writes -= 1
        return self.f.write(text)


class CrashingRandom(RandomScheduler):
    """Random placement that fails in the first step of episode 2."""

    def __init__(self):
        super().__init__()
        self.episode = -1

    def reset(self, state, stream=None):
        super().reset(state, stream)
        self.episode += 1

    def assign(self, state, pending):
        if self.episode == 2:
            raise FloatingPointError("injected failure")
        return super().assign(state, pending)


class TestRunScheduler:
    def test_crash_keeps_finished_episodes(self, tmp_path, monkeypatch):
        def config(out):
            return ExperimentConfig(n_nodes=6, n_tasks=20, episodes=4, final_window=1,
                                    output_dir=str(tmp_path / out))

        run_scheduler(config("full"), "random")
        monkeypatch.setitem(experiment.BASELINES, "random", CrashingRandom)
        with pytest.raises(FloatingPointError):
            run_scheduler(config("crashed"), "random")
        crashed = tmp_path / "crashed" / "random.csv"
        full = (tmp_path / "full" / "random.csv").read_bytes()
        assert [row["episode"] for row in read_episode_csv(crashed)] == ["0", "1"]
        assert crashed.read_bytes().splitlines(keepends=True) == full.splitlines(keepends=True)[:3]
        assert ExperimentConfig.from_file(crashed.parent / "config.json") == config("crashed")

    def test_failed_rewrite_keeps_finished_episodes(self, tmp_path, monkeypatch):
        """The third CSV rewrite fails after its header, as on a full disk; the
        file still holds the two episodes written before, the config written
        first stays, and no ``.tmp`` file is left beside them."""
        def config(out):
            return ExperimentConfig(n_nodes=6, n_tasks=20, episodes=4, final_window=1,
                                    output_dir=str(tmp_path / out))

        writes = []

        def open_filling_disk(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            if "w" not in mode or Path(file).name != "random.csv.tmp":
                return f
            writes.append(file)
            return FullDisk(f, 1) if len(writes) == 3 else f

        run_scheduler(config("full"), "random")
        monkeypatch.setattr(experiment, "open", open_filling_disk, raising=False)
        with pytest.raises(OSError, match="No space left on device"):
            run_scheduler(config("failed"), "random")
        failed = tmp_path / "failed" / "random.csv"
        full = (tmp_path / "full" / "random.csv").read_bytes()
        assert failed.read_bytes().splitlines(keepends=True) == full.splitlines(keepends=True)[:3]
        assert sorted(p.name for p in failed.parent.iterdir()) == ["config.json", "random.csv"]

    @pytest.mark.parametrize("artifact", [
        "random.csv", "comparison.csv", "report.txt", "drl_checkpoint.npz",
        "learning_curve.svg", "comparison.svg", "improvement.svg", "config.json",
    ])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, artifact):
        """Rewriting a result file fails midway, as on a full disk (the checkpoint
        in its third zip member); the previous file stays whole, and no ``.tmp``
        file is left beside it. ``compare`` raises the error; ``emit_all`` returns
        it as the failed plot's outcome."""
        config = ExperimentConfig(n_nodes=6, n_tasks=20, episodes=2, final_window=1,
                                  schedulers=("random", "drl"), output_dir=str(tmp_path))

        def write_all():
            compare(config)
            return emit_all(tmp_path, config.schedulers, config.final_window)

        write_all()
        previous = (tmp_path / artifact).read_bytes()
        if artifact.endswith(".npz"):
            open_member, opened = zipfile.ZipFile.open, []

            def fail_on_third_member(zf, name, *args, **kwargs):
                opened.append(name)
                if len(opened) == 3:
                    raise OSError(errno.ENOSPC, "No space left on device")
                return open_member(zf, name, *args, **kwargs)

            monkeypatch.setattr(zipfile.ZipFile, "open", fail_on_third_member)
        else:
            header_writes = 1 if artifact.endswith(".csv") else 0

            def open_filling_disk(file, mode="r", *args, **kwargs):
                f = open(file, mode, *args, **kwargs)
                return FullDisk(f, header_writes) if Path(file).name == f"{artifact}.tmp" else f

            monkeypatch.setattr(experiment, "open", open_filling_disk, raising=False)
        if artifact.endswith(".svg"):
            assert "No space left on device" in write_all()[artifact]
        else:
            with pytest.raises(OSError, match="No space left on device"):
                write_all()
        assert (tmp_path / artifact).read_bytes() == previous
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("name", ["minmin", "drl"])
    def test_trace_records_match_episode_csv(self, tmp_path, name):
        cfg = ExperimentConfig(n_nodes=6, n_tasks=20, episodes=2, final_window=1,
                               output_dir=str(tmp_path), trace=True)
        run_scheduler(cfg, name)
        records = [json.loads(line)
                   for line in (tmp_path / f"{name}_trace.jsonl").read_text().splitlines()]
        episodes = []
        for record in records:
            assert set(record) == {"time", "completed", "dropped", "arrived", "util"}
            assert len(record["util"]) == cfg.n_nodes
            if record["time"] == cfg.sim.dt:  # first step of an episode
                episodes.append([])
            episodes[-1].append(record)
        rows = read_episode_csv(tmp_path / f"{name}.csv")
        assert len(episodes) == len(rows) == cfg.episodes
        for steps, row in zip(episodes, rows):
            assert sum(len(r["completed"]) for r in steps) == int(row["completed"])


class TestCliRun:
    def test_run_deterministic(self, tmp_path):
        args = ["run", "--scheduler", "random", "--episodes", "3", "--seed", "42",
                "--nodes", "8", "--tasks", "30"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert (out1 / "random.csv").read_bytes() == (out2 / "random.csv").read_bytes()
        assert len(read_episode_csv(out1 / "random.csv")) == 3

    @pytest.mark.parametrize("schedulers, flag, written", [
        (["minmin"], [], "minmin"),
        (["minmin"], ["--scheduler", "wrr"], "wrr"),
        (["random", "wrr"], [], "drl"),
    ])
    def test_run_picks_the_config_scheduler(self, tmp_path, schedulers, flag, written):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedulers": schedulers, "n_nodes": 4, "n_tasks": 10,
                                   "episodes": 1, "final_window": 1}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out), *flag]) == 0
        assert sorted(p.name for p in out.iterdir() if p.suffix == ".csv") == [f"{written}.csv"]
        assert ExperimentConfig.from_file(out / "config.json").schedulers == (written,)

    @pytest.mark.parametrize("second, kept", [([], ["random", "drl"]), (["--seed", "7"], ["random"])],
                             ids=["same-config", "other-seed"])
    def test_second_run_keeps_the_first_scheduler(self, tmp_path, second, kept):
        """A second ``run`` into one directory keeps the first run's scheduler in
        ``config.json`` when every other value matches, so ``plot`` draws both
        curves; with another seed the directory's config is the second run's."""
        flags = ["--nodes", "4", "--tasks", "10", "--episodes", "2", "--out", str(tmp_path)]
        assert main(["run", "--scheduler", "drl", *flags]) == 0
        assert main(["run", "--scheduler", "random", *flags, *second]) == 0
        assert json.loads((tmp_path / "config.json").read_text())["schedulers"] == kept
        assert main(["plot", str(tmp_path)]) == 0
        curves = (tmp_path / "learning_curve.svg").read_text()
        assert curves.count("<polyline ") == len(kept)
        assert re.findall(r'">(\w+)</text>', curves)[-len(kept):] == kept

    def test_unknown_scheduler_exits_2(self, tmp_path, capsys):
        rc = main(["run", "--scheduler", "sjf", "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown scheduler" in capsys.readouterr().err

    def test_scheduler_help_names_every_scheduler(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        assert f"scheduler name: {'|'.join(ALL_SCHEDULERS)}" in capsys.readouterr().out

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"bogus_key": 1}))
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2

    def test_duplicate_scheduler_exits_2(self, tmp_path, capsys):
        """A repeated name used to run that scheduler's protocol twice into one CSV."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schedulers": ["random", "random"], "n_nodes": 4,
                                   "n_tasks": 10, "episodes": 1, "final_window": 1}))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: duplicate scheduler 'random'\n"
        assert not out.exists()

    @pytest.mark.parametrize("key", ["sim.obs_dim", "hyper.n_actions", "hyper.bogus",
                                     *REMOVED_HYPER_KEYS, *REMOVED_KEYS])
    def test_unknown_nested_config_key_exits_2(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 7}))
        rc = main(["run", "--config", str(cfg), "--episodes", "1", "--nodes", "3",
                   "--tasks", "5", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: unknown config key: {key}\n"

    @pytest.mark.parametrize("raw", [{"n_nodes": "3"}, {"schedulers": "drl"}, {"hyper.gamma": "0.9"}])
    def test_config_value_of_wrong_type_exits_2(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        rc = main(["run", "--config", str(cfg), "--episodes", "1", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {next(iter(raw))} must be ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("raw", [
        {"hyper.batch_size": 0}, {"hyper.replay_capacity": 0}, {"n_nodes": 0},
        {"n_tasks": 0}, {"arrival_rate": -1.0}, [1, 2],
        {"hyper.learning_rate": 0}, {"hyper.learning_rate": -0.001},
        {"hyper.lr_decay": 0}, {"hyper.lr_decay": 1.5},
        {"hyper.gamma": 2.0}, {"hyper.gamma": -0.5},
        {"hyper.grad_clip_norm": -1}, {"hyper.grad_clip_norm": 0},
    ])
    def test_config_value_out_of_range_exits_2(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        rc = main(["run", "--scheduler", "drl", "--config", str(cfg), "--episodes", "1",
                   "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("raw, message", [
        ({"arrival_rate": float("nan")}, "config key arrival_rate must be float, not NaN"),
        ({"hyper.hidden": 0}, "hyper.hidden must be >= 1, got 0"),
        ({"sim.max_time": float("nan")}, "config key sim.max_time must be float, not NaN"),
        ({"hyper.gamma": float("nan")}, "config key hyper.gamma must be float, not NaN"),
        ({"hyper.gamma": float("inf")}, "config key hyper.gamma must be float, not Infinity"),
        ({"sim.max_time": float("-inf")}, "config key sim.max_time must be float, not -Infinity"),
        ({"arrival_rate": float("inf")}, "config key arrival_rate must be float, not Infinity"),
        ({"sim.max_time": float("inf")}, "config key sim.max_time must be float, not Infinity"),
        ({"sim.max_time": 0}, "max_time must be positive, got 0"),
        ({"sim.max_time": -5}, "max_time must be positive, got -5"),
    ])
    def test_config_that_failed_mid_run_exits_2(self, tmp_path, capsys, raw, message):
        """Each value used to pass config parsing and end the run in a traceback."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        rc = main(["run", "--scheduler", "drl", "--config", str(cfg), "--episodes", "1",
                   "--nodes", "4", "--tasks", "10", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "drl.csv").exists()

    def test_nodes_flag_out_of_range_exits_2(self, tmp_path):
        """End to end through a fresh interpreter: one line on stderr, exit 2."""
        src = str(Path(marlsched.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "marlsched.cli", "run", "--scheduler", "drl", "--nodes", "0",
             "--episodes", "1", "--out", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: n_nodes must be >= 1, got 0\n"

    def test_trace_file_emitted(self, tmp_path):
        rc = main(["run", "--scheduler", "minmin", "--episodes", "1", "--seed", "1",
                   "--nodes", "6", "--tasks", "15", "--out", str(tmp_path), "--trace"])
        assert rc == 0
        trace = (tmp_path / "minmin_trace.jsonl").read_text().splitlines()
        assert trace and all("time" in json.loads(line) for line in trace)


@pytest.fixture(scope="module")
def compare_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("compare")
    cfg = tmp_path_factory.mktemp("cfgdir") / "config.json"
    cfg.write_text(json.dumps({
        "n_nodes": 8, "n_tasks": 40, "episodes": 3, "final_window": 2,
    }))
    rc = main(["compare", "--config", str(cfg), "--seed", "42", "--out", str(out)])
    assert rc == 0
    return out


class TestCliCompare:
    def test_outputs_present(self, compare_dir):
        for fname in ("random.csv", "wrr.csv", "minmin.csv", "drl.csv",
                      "comparison.csv", "report.txt", "drl_checkpoint.npz", "config.json"):
            assert (compare_dir / fname).exists(), fname

    def test_report_contents(self, compare_dir):
        report = (compare_dir / "report.txt").read_text()
        assert report.splitlines()[0] == (
            "Scheduler comparison: seed 42, 8 nodes, 40 tasks, arrival rate 0.5/s, "
            "sim.max_time 10000 s, final 2 of 3 episodes")
        for name in ("random", "wrr", "minmin", "drl"):
            assert name in report
        assert "Welch" in report and "ms/decision" in report

    def test_comparison_rows(self, compare_dir):
        rows = read_episode_csv(compare_dir / "comparison.csv")
        assert [r["scheduler"] for r in rows] == ["random", "wrr", "minmin", "drl"]
        baseline_rows = [r for r in rows if r["scheduler"] != "drl"]
        assert all(r["p_atct_vs_drl"] for r in baseline_rows)


class TestCliCompareOneEpisode:
    def test_final_window_of_one_skips_welch(self, tmp_path, capsys):
        """One final-window value per scheduler is too few for Welch's test: the
        report says so and both files are written."""
        rc = main(["compare", "--episodes", "1", "--nodes", "4", "--tasks", "10",
                   "--out", str(tmp_path)])
        assert rc == 0
        rows = read_episode_csv(tmp_path / "comparison.csv")
        assert [r["scheduler"] for r in rows] == ["random", "wrr", "minmin", "drl"]
        assert all(r["p_atct_vs_drl"] == "" for r in rows)
        report = (tmp_path / "report.txt").read_text()
        for name in ("random", "wrr", "minmin"):
            assert (f"drl vs {name:<8} skipped: Welch needs 2 final-window ATCT values per side, "
                    f"got 1 (drl) and 1 ({name})") in report


class TestCliCompareNoCompletions:
    def test_window_without_completions_reports_no_atct(self, tmp_path):
        """A 5-s horizon completes no task: the ATCT cells are empty, the report
        says n/a and why each test was skipped, and compare exits 0."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim.max_time": 5, "n_nodes": 4, "n_tasks": 5}))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--episodes", "2", "--out", str(out)]) == 0
        rows = read_episode_csv(out / "comparison.csv")
        assert [r["scheduler"] for r in rows] == ["random", "wrr", "minmin", "drl"]
        assert all(r["atct_s_mean"] == r["atct_s_std"] == r["p_atct_vs_drl"] == "" for r in rows)
        report = (out / "report.txt").read_text()
        for name in ("random", "wrr", "minmin", "drl"):
            assert re.search(rf"^{name} +n/a ", report, re.MULTILINE), name
        for name in ("random", "wrr", "minmin"):
            assert (f"drl vs {name:<8} skipped: no task completed in the final-window episodes "
                    f"of drl and {name}, so there is no ATCT for the Welch test or the "
                    f"improvement CI") in report

    def test_bar_chart_marks_missing_atct(self, tmp_path):
        """The same window: the ATCT panel draws no bar and labels each
        scheduler n/a, not 0; the other three panels keep their bars."""
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sim.max_time": 5, "n_nodes": 4, "n_tasks": 5}))
        out = tmp_path / "out"
        assert main(["compare", "--config", str(cfg), "--episodes", "2", "--out", str(out)]) == 0
        main(["plot", str(out)])    # exits 1: the curves have no ATCT to draw
        svg = (out / "comparison.svg").read_text()
        atct_panel, other_panels = svg.split(">Energy (kWh)</text>", 1)
        assert atct_panel.count('font-size="9">n/a</text>') == 4
        assert '">0</text>' not in atct_panel
        assert atct_panel.count("<rect ") == 1    # the background only
        assert other_panels.count("<rect ") == 3 * 4


def fake_results(name, atcts):
    """Episode results whose only varying metric is the given ATCT sequence."""
    return [EpisodeResult(ep, name, EpisodeMetrics(
        atct=atct, energy_kwh=1.0, sla_rate=1.0, throughput=1.0, completed=int(atct is not None),
        mean_step_util_variance=0.0, objective_j=0.0, makespan=1.0), 0.0)
        for ep, atct in enumerate(atcts)]


class TestBuildComparison:
    CONFIG = ExperimentConfig(episodes=3, final_window=3, schedulers=("random", "drl"))

    def test_improvement_pairs_by_episode(self):
        """An episode where drl completed nothing drops out of the pairs; the
        later episodes keep their own baseline partners."""
        with pytest.warns(UserWarning, match="excluding 1 zero-completion episodes"):
            rows = build_comparison(self.CONFIG, {
                "random": fake_results("random", [9.0, 11.0, 13.0]),
                "drl": fake_results("drl", [None, 10.0, 12.0]),
            })
        assert rows["random"]["improvement"][0] == pytest.approx(
            (1.0 / 11.0 + 1.0 / 13.0) / 2.0)
        assert "p_atct_vs_drl" in rows["random"]

    def test_baseline_without_completions_skips_its_tests(self):
        rows = build_comparison(self.CONFIG, {
            "random": fake_results("random", [None, None, None]),
            "drl": fake_results("drl", [8.0, 10.0, 12.0]),
        })
        assert rows["random"]["atct_s_mean"] is None
        assert rows["drl"]["atct_s_mean"] == pytest.approx(10.0)
        assert "p_atct_vs_drl" not in rows["random"] and "improvement" not in rows["random"]
        assert rows["random"]["skipped"].startswith(
            "no task completed in the final-window episodes of random,")

    def test_mixed_window_reports_tested_then_skipped(self, tmp_path):
        """wrr's window is tested and random's, which completed nothing, is skipped:
        the report lists the test before the skip and gives only wrr an improvement
        line, and random's test cells in comparison.csv are empty."""
        config = ExperimentConfig(episodes=3, final_window=3, schedulers=("random", "wrr", "drl"))
        rows = build_comparison(config, {
            "random": fake_results("random", [None, None, None]),
            "wrr": fake_results("wrr", [9.0, 11.0, 14.0]),
            "drl": fake_results("drl", [8.0, 10.0, 12.0]),
        })
        report = format_report(config, rows)
        tested = re.search(r"^  drl vs wrr +t=[+-]\d+\.\d{3}  p=\S+  p_bonf=\S+$", report, re.MULTILINE)
        skipped = report.index("  drl vs random   skipped: no task completed")
        assert tested and tested.start() < skipped
        assert re.findall(r"^  over (\S+)", report, re.MULTILINE) == ["wrr"]
        write_comparison_csv(tmp_path / "comparison.csv", rows)
        csv_rows = {r["scheduler"]: r for r in read_episode_csv(tmp_path / "comparison.csv")}
        assert csv_rows["random"]["t_atct_vs_drl"] == csv_rows["random"]["p_atct_vs_drl"] == ""
        assert csv_rows["random"]["p_bonferroni"] == ""
        assert csv_rows["wrr"]["t_atct_vs_drl"] and csv_rows["wrr"]["p_bonferroni"]


class TestCliPlot:
    def test_all_plots_emitted(self, compare_dir):
        rc = main(["plot", str(compare_dir)])
        assert rc == 0
        for fname in ("learning_curve.svg", "comparison.svg", "improvement.svg"):
            content = (compare_dir / fname).read_text()
            assert content.startswith("<svg")

    def test_bar_chart_labels_schedulers(self, compare_dir):
        svg = (compare_dir / "comparison.svg").read_text()
        for name in ("random", "wrr", "minmin", "drl"):
            assert f">{name}</text>" in svg

    def test_bars_are_the_comparison_means(self, compare_dir):
        """The bars average the final window that ``config.json`` records (2 of 3
        episodes), so every label is its ``comparison.csv`` mean."""
        assert main(["plot", str(compare_dir)]) == 0
        labels = re.findall(r'font-size="9">([^<]*)</text>', (compare_dir / "comparison.svg").read_text())
        rows = read_episode_csv(compare_dir / "comparison.csv")
        assert labels == [format(float(row[f"{m.stem}_mean"]), ".3g")
                          for m in experiment.COMPARED for row in rows]

    @pytest.mark.parametrize("text, error", [
        (None, "No such file or directory"),
        ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ('{"bogus": 1}', "unknown config key: bogus"),
    ], ids=["missing", "not-json", "unknown-key"])
    def test_missing_or_invalid_config_exits_2(self, compare_dir, tmp_path, capsys, text, error):
        """CSVs beside no usable ``config.json``: one error line naming it, and no
        plot written; ``plot`` does not fall back to the defaults."""
        for name in ALL_SCHEDULERS:
            (tmp_path / f"{name}.csv").write_bytes((compare_dir / f"{name}.csv").read_bytes())
        if text is not None:
            (tmp_path / "config.json").write_text(text)
        assert main(["plot", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {tmp_path / 'config.json'}: {error}\n"
        assert not list(tmp_path.glob("*.svg*"))

    def test_missing_input_partial_failure(self, compare_dir, tmp_path, capsys):
        partial = tmp_path / "partial"
        partial.mkdir()
        for name in ("random.csv", "wrr.csv", "minmin.csv", "config.json"):
            (partial / name).write_bytes((compare_dir / name).read_bytes())
        rc = main(["plot", str(partial)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "drl.csv" in err    # the failing plot names the missing file
        assert (partial / "learning_curve.svg").exists()
        assert not (partial / "improvement.svg").exists()

    @pytest.mark.parametrize("flag", ["--seed 5", "--nodes 3", "--tasks 2", "--trace", "--out x",
                                      "--config x", "--scheduler drl", "--episodes 2"])
    def test_run_flags_rejected(self, tmp_path, capsys, flag):
        """plot reads the result CSVs and the run's ``config.json`` only, so the
        flags that shape or select a run are not options."""
        with pytest.raises(SystemExit) as exc:
            main(["plot", *flag.split(), str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_improvement_plot_error_names_file(self, tmp_path):
        with pytest.raises(PlotInputError, match="drl.csv"):
            improvement_curve_svg(tmp_path, tmp_path / "x.svg")

    @pytest.mark.parametrize("text, error", [
        ("episode,scheduler,atct_s\n0,random,abc\n", "could not convert string to float: 'abc'"),
        ("episode,scheduler,atct_s\n0,random,12.5\n", "has no 'energy_kwh' column"),
        (",".join(EPISODE_CSV_COLUMNS) + "\n0,random,nan,0.1,0.5,1.0,3,0.1,0.2\n",
         "nan is not a finite number"),
    ], ids=["text-cell", "no-energy-column", "nan-cell"])
    def test_malformed_csv_fails_each_plot(self, compare_dir, tmp_path, capsys, text, error):
        """A bad ``random.csv`` beside a good ``drl.csv``: every plot reads it, and
        each fails on its own with the file named; none is written."""
        (tmp_path / "drl.csv").write_bytes((compare_dir / "drl.csv").read_bytes())
        (tmp_path / "random.csv").write_text(text)
        (tmp_path / "config.json").write_text(json.dumps({"schedulers": ["random"]}))
        assert main(["plot", str(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "error (learning_curve.svg)", "error (comparison.svg)", "error (improvement.svg)"]
        assert all(f"{tmp_path / 'random.csv'}" in line and error in line for line in lines)
        assert not list(tmp_path.glob("*.svg"))

    def test_failed_svg_write_fails_only_its_plot(self, compare_dir, tmp_path, monkeypatch, capsys):
        """Writing ``learning_curve.svg`` fails as on a full disk: ``plot`` reports
        that plot, still writes the other two and exits 1."""
        for name in [*(f"{n}.csv" for n in ALL_SCHEDULERS), "config.json"]:
            (tmp_path / name).write_bytes((compare_dir / name).read_bytes())

        def open_filling_disk(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            return FullDisk(f, 0) if Path(file).name == "learning_curve.svg.tmp" else f

        monkeypatch.setattr(experiment, "open", open_filling_disk, raising=False)
        assert main(["plot", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error (learning_curve.svg): [Errno 28] No space left")
        assert sorted(p.name for p in tmp_path.glob("*.svg*")) == ["comparison.svg", "improvement.svg"]

    def test_emit_all_reports_per_plot(self, tmp_path):
        outcomes = emit_all(tmp_path, ("random", "drl"), 2)
        assert set(outcomes) == {"learning_curve.svg", "comparison.svg", "improvement.svg"}
        assert all(v is not None for v in outcomes.values())


def test_only_experiment_writes_files():
    """Result files reach disk through ``experiment``'s ``.tmp``-and-rename writer
    alone: no other module opens a file, renames or replaces one, or writes or
    unlinks a ``Path``."""
    offenders = []
    for module in sorted(Path(marlsched.__file__).parent.glob("*.py")):
        if module.name == "experiment.py":
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open"
                    or isinstance(func, ast.Attribute) and (
                        func.attr in ("write_text", "write_bytes", "unlink")
                        or func.attr in ("replace", "rename")
                        and isinstance(func.value, ast.Name) and func.value.id == "os")):
                offenders.append(f"{module.name}:{node.lineno}")
    assert offenders == []


def test_cli_import_does_not_load_scipy():
    """scipy.stats is slow to import; only the statistics functions load it."""
    src = str(Path(marlsched.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, marlsched.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          check=True)
    assert done.stdout.strip() == "[]"
