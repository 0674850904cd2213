"""Experiment harness: episode driver, the 30-episode protocol and persistence."""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

from .cluster import generate_cluster
from .marl import DrlScheduler, save_checkpoint
from .metrics import EpisodeMetrics, aggregate_final, summarize_episode
from .rng import derive_stream
from .schedulers import BASELINES, Scheduler
from .simenv import SimConfig, advance, enqueue_assignment, init_episode
from .stats import bonferroni, confidence_interval_95, welch_t_test
from .workload import DEFAULT_ARRIVAL_RATE, generate_workload

# Scheduler name -> builder from a config, in report order. A baseline's class is looked
# up in BASELINES when built; the learner is compared with the rest and writes a checkpoint.
LEARNER = DrlScheduler.name
SCHEDULERS = {**{name: lambda config, name=name: BASELINES[name]() for name in BASELINES},
              LEARNER: lambda config: DrlScheduler(config.master_seed, config.n_nodes)}
ALL_SCHEDULERS = tuple(SCHEDULERS)


@dataclass(frozen=True)
class Metric:
    """A written ``EpisodeMetrics`` field by ``name``: its episode-CSV column, its cell format
    and, for a metric compared across schedulers, its comparison.csv stem and plot label."""
    name: str
    column: str
    spec: str
    stem: str | None = None
    label: str | None = None


METRICS = (
    Metric("atct", "atct_s", ".6f", "atct_s", "ATCT (s)"),
    Metric("energy_kwh", "energy_kwh", ".6f", "energy_kwh", "Energy (kWh)"),
    Metric("sla_rate", "sla_rate", ".6f", "sla_rate", "SLA rate"),
    Metric("throughput", "throughput_per_1000s", ".6f", "throughput", "Throughput /1000s"),
    Metric("completed", "completed", "d"),
    Metric("mean_step_util_variance", "load_balance_var", ".8f"),
    Metric("objective_j", "objective_j", ".8f"),
)
COMPARED = tuple(m for m in METRICS if m.stem)
# an episode CSV's columns and cell formats
EPISODE_COLUMNS = (("episode", "d"), ("scheduler", "s"), *((m.column, m.spec) for m in METRICS))
EPISODE_CSV_COLUMNS = [column for column, _ in EPISODE_COLUMNS]


def cell(value, spec: str) -> str:
    """A CSV cell: ``value`` in format ``spec``, or empty where there is no value."""
    return "" if value is None else format(value, spec)


@dataclass
class ExperimentConfig:
    master_seed: int = 42
    n_nodes: int = 100
    n_tasks: int = 1000
    episodes: int = 30
    final_window: int = 10
    schedulers: tuple[str, ...] = ALL_SCHEDULERS
    arrival_rate: float = DEFAULT_ARRIVAL_RATE
    sim: SimConfig = field(default_factory=SimConfig)
    output_dir: str = "results"

    def __post_init__(self):
        if not self.schedulers:
            raise ValueError("schedulers must be nonempty")
        for name in self.schedulers:
            if name not in ALL_SCHEDULERS:
                raise ValueError(f"unknown scheduler {name!r}; "
                                 f"choose from {', '.join(ALL_SCHEDULERS)}")
            if self.schedulers.count(name) > 1:
                raise ValueError(f"duplicate scheduler {name!r}")
        if not self.episodes >= self.final_window >= 1:
            raise ValueError("need episodes >= final_window >= 1")
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.n_tasks < 1:
            raise ValueError(f"n_tasks must be >= 1, got {self.n_tasks}")
        if not self.arrival_rate > 0:
            raise ValueError(f"arrival_rate must be positive, got {self.arrival_rate}")

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        """Flat JSON with dotted keys for the nested sim section."""
        with open(path) as f:
            raw = json.load(f)
        return cls.from_flat(raw)

    @classmethod
    def from_flat(cls, raw: dict) -> "ExperimentConfig":
        """Top-level keys by name and ``sim.<field>`` for the nested section; an unknown
        key, or a value that does not ``_fits``, is a ``ValueError``."""
        if not isinstance(raw, dict):
            raise ValueError(f"config must be a JSON object, not {json.dumps(raw)}")
        cfg = cls()
        hints = {"": get_type_hints(cls), "sim.": get_type_hints(SimConfig)}
        del hints[""]["sim"]
        updates = {prefix: {} for prefix in hints}
        for key, value in raw.items():
            section, dot, name = key.rpartition(".")
            hint = hints.get(section + dot, {}).get(name)
            if hint is None:
                raise ValueError(f"unknown config key: {key}")
            if not _fits(value, hint):
                kind = (f"a list of {get_args(hint)[0].__name__}" if get_origin(hint) is tuple
                        else getattr(hint, "__name__", hint))
                raise ValueError(f"config key {key} must be {kind}, not {json.dumps(value)}")
            updates[section + dot][name] = tuple(value) if isinstance(value, list) else value
        return replace(cfg, **updates[""], sim=replace(cfg.sim, **updates["sim."]))

    def to_flat(self) -> dict:
        """The flat dotted dict that ``from_flat`` reads, tuples as lists."""
        flat = asdict(self)
        flat.update({f"sim.{name}": v for name, v in flat.pop("sim").items()})
        return {key: list(v) if isinstance(v, tuple) else v for key, v in flat.items()}


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation: an int fits float, a list a tuple
    of its element type; a bool, null, NaN and ±Infinity fit nothing."""
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_fits(v, get_args(hint)[0]) for v in value)
    if isinstance(value, float) and not math.isfinite(value):
        return False
    types = (int, float) if hint is float else hint
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass
class EpisodeResult:
    episode: int
    scheduler: str
    metrics: EpisodeMetrics
    mean_decision_ms: float   # assign time per pending task
    mean_train_ms: float      # learn time per step


def build_episode_inputs(config: ExperimentConfig, episode: int):
    """Regenerate cluster and workload for one episode from (seed, episode)."""
    cluster = generate_cluster(
        derive_stream(config.master_seed, f"cluster-{episode}"), config.n_nodes
    )
    tasks = generate_workload(
        derive_stream(config.master_seed, f"workload-{episode}"),
        config.n_tasks,
        config.arrival_rate,
    )
    return tasks, cluster


def run_episode(scheduler: Scheduler, config: ExperimentConfig, episode: int) -> EpisodeResult:
    """One episode to completion or horizon; returns metrics, decision latency and
    training time.

    Each step calls ``learn`` and then ``assign``, timed apart, so a decision does
    not wait on the step's training.
    """
    tasks, cluster = build_episode_inputs(config, episode)
    state = init_episode(config.sim, tasks, cluster)
    stream = derive_stream(config.master_seed, f"sched-{scheduler.name}-{episode}")
    scheduler.reset(state, stream)

    train_seconds = decision_seconds = 0.0
    decision_count = steps = 0
    dt = config.sim.dt
    while True:
        pending = list(state.pending.values())
        t0 = time.perf_counter()
        scheduler.learn(state)
        t1 = time.perf_counter()
        decisions = scheduler.assign(state, pending)
        decision_seconds += time.perf_counter() - t1
        train_seconds += t1 - t0
        steps += 1
        # one decision per pending task, placed or left pending
        decision_count += len(pending)
        enqueue_assignment(state, decisions)
        report = advance(state, dt)
        scheduler.after_advance(state, report)
        if state.time >= config.sim.max_time or state.all_resolved():
            break
    scheduler.end_episode(state)
    metrics = summarize_episode(state)
    latency_ms = 1000.0 * decision_seconds / decision_count if decision_count else 0.0
    return EpisodeResult(episode, scheduler.name, metrics, latency_ms, 1000.0 * train_seconds / steps)


def make_scheduler(name: str, config: ExperimentConfig) -> Scheduler:
    if name not in SCHEDULERS:
        raise ValueError(f"unknown scheduler: {name!r}")
    return SCHEDULERS[name](config)


def run_scheduler(config: ExperimentConfig, name: str) -> list[EpisodeResult]:
    """The full per-scheduler protocol: ``episodes`` episodes in order.

    ``config.json`` is written first and ``<name>.csv`` is rewritten after every episode, so a
    run that fails in episode k leaves its config and episodes 0..k-1 on disk; a ``config.json``
    that differs only in its schedulers keeps the ones it lists, in ``ALL_SCHEDULERS`` order.
    DRL agents learn across episodes, and a checkpoint is written after the final one.
    """
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        kept = ExperimentConfig.from_file(out / "config.json")
    except (OSError, ValueError):
        kept = config
    names = config.schedulers
    if replace(kept, schedulers=names) == config and not set(kept.schedulers) <= set(names):
        names = tuple(n for n in ALL_SCHEDULERS if n in kept.schedulers + names)
    write_replacing(out / "config.json", lambda f: f.write(
        json.dumps(replace(config, schedulers=names).to_flat(), indent=2) + "\n"))
    scheduler = make_scheduler(name, config)
    results = []
    for ep in range(config.episodes):
        results.append(run_episode(scheduler, config, ep))
        write_episode_csv(out / f"{name}.csv", results)
    if name == LEARNER:
        write_replacing(out / f"{LEARNER}_checkpoint.npz", lambda f: save_checkpoint(
            f, scheduler.agents, config.episodes - 1), "wb")
    return results


def write_replacing(path, write, mode="w") -> None:
    """Call ``write`` on a sibling ``.tmp`` file opened in ``mode`` (text with
    untranslated newlines, or ``"wb"``), then replace ``path`` with it, so a write
    that fails midway leaves the previous file whole and no ``.tmp``."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode, newline=None if "b" in mode else "") as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, columns, rows) -> None:
    """Write dict ``rows`` under ``columns``, (column, format) pairs, each cell through ``cell``."""
    def write(f):
        w = csv.writer(f)
        w.writerow([column for column, _ in columns])
        w.writerows([cell(row.get(column), spec) for column, spec in columns] for row in rows)
    write_replacing(path, write)


def write_episode_csv(path, results: Sequence[EpisodeResult]) -> None:
    write_csv(path, EPISODE_COLUMNS, ({"episode": r.episode, "scheduler": r.scheduler,
                                       **{m.column: getattr(r.metrics, m.name) for m in METRICS}}
                                      for r in results))


def read_episode_csv(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def compare(config: ExperimentConfig) -> dict[str, dict]:
    """Run every configured scheduler and write the comparison rows as CSV and report."""
    all_results = {name: run_scheduler(config, name) for name in config.schedulers}
    rows = build_comparison(config, all_results)
    out = Path(config.output_dir)
    write_csv(out / "comparison.csv", COMPARISON_COLUMNS, rows.values())
    write_replacing(out / "report.txt", lambda f: f.write(format_report(config, rows)))
    return rows


# comparison.csv's columns and cell formats; a row holds no value for a test that did not run
COMPARISON_COLUMNS = (
    ("scheduler", "s"), *((f"{m.stem}_{stat}", m.spec) for m in COMPARED for stat in ("mean", "std")),
    ("completed_mean", ".2f"), ("energy_per_completed_kwh", ".6f"),
    ("t_atct_vs_drl", ".6f"), ("p_atct_vs_drl", ".6g"), ("p_bonferroni", ".6g"),
)
# report.txt's columns after each compared metric's mean±std: header, row key and cell format
REPORT_FACTS = (("Completed", "completed_mean", ".1f"), ("kWh/task", "energy_per_completed_kwh", ".5f"),
                ("ms/decision", "mean_decision_ms", ".3f"), ("train ms/step", "mean_train_ms", ".3f"))


def build_comparison(config: ExperimentConfig, all_results: dict[str, list[EpisodeResult]]) -> dict[str, dict]:
    """One row per scheduler in ``all_results`` order, keyed by ``COMPARISON_COLUMNS``, ``mean_decision_ms``
    and ``mean_train_ms``;
    a baseline's row also holds why its Welch test was ``skipped``, or its ``improvement`` as (mean, CI)."""
    k = config.final_window
    rows = {}
    for name, results in all_results.items():
        row = rows[name] = {"scheduler": name}
        for m in COMPARED:
            values = [getattr(r.metrics, m.name) for r in results]
            # ATCT is None in an episode that completed no task; a window of only those has no mean
            row[f"{m.stem}_mean"], row[f"{m.stem}_std"] = (
                aggregate_final(values, k) if any(v is not None for v in values[-k:]) else (None, None))
        completed_mean, _ = aggregate_final([r.metrics.completed for r in results], k)
        row["completed_mean"] = completed_mean
        row["energy_per_completed_kwh"] = (
            row["energy_kwh_mean"] / completed_mean if completed_mean else float("inf")
        )
        row["mean_decision_ms"] = sum(r.mean_decision_ms for r in results) / len(results)
        row["mean_train_ms"] = sum(r.mean_train_ms for r in results) / len(results)

    if LEARNER in rows:
        baselines = {name: row for name, row in rows.items() if name != LEARNER}
        learner_atct = [r.metrics.atct for r in all_results[LEARNER][-k:]]
        for name, row in baselines.items():
            base_atct = [r.metrics.atct for r in all_results[name][-k:]]
            learner_usable, base_usable = ([v for v in side if v is not None]
                                           for side in (learner_atct, base_atct))
            empty = [who for who, usable in ((LEARNER, learner_usable), (name, base_usable)) if not usable]
            if empty:
                row["skipped"] = (f"no task completed in the final-window episodes of "
                                  f"{' and '.join(empty)}, so there is no ATCT for "
                                  f"the Welch test or the improvement CI")
            elif min(len(learner_usable), len(base_usable)) < 2:
                row["skipped"] = (f"Welch needs 2 final-window ATCT values per side, got "
                                  f"{len(learner_usable)} ({LEARNER}) and {len(base_usable)} ({name})")
            else:
                t, p = welch_t_test(learner_usable, base_usable)
                row.update(t_atct_vs_drl=t, p_atct_vs_drl=p, p_bonferroni=bonferroni(p, len(baselines)))
            # per-episode relative ATCT improvement of the learner over the baseline,
            # over the episodes in which both completed a task
            rel = [(b - d) / b for d, b in zip(learner_atct, base_atct) if d is not None and b]
            if len(rel) >= 2:
                row["improvement"] = (sum(rel) / len(rel), confidence_interval_95(rel))
    return rows


def format_report(config: ExperimentConfig, rows: dict[str, dict]) -> str:
    lines = [f"Scheduler comparison: seed {config.master_seed}, {config.n_nodes} nodes, "
             f"{config.n_tasks} tasks, arrival rate {config.arrival_rate:g}/s, sim.max_time "
             f"{config.sim.max_time:g} s, final {config.final_window} of {config.episodes} episodes", ""]
    # a compared metric is mean±std at three significant digits, as on the bars, or n/a without a mean
    table = [["Scheduler", *(m.label for m in COMPARED), *(header for header, _, _ in REPORT_FACTS)]]
    for name, row in rows.items():
        table.append([name, *("n/a" if row[f"{m.stem}_mean"] is None
                              else f"{row[f'{m.stem}_mean']:.3g}±{row[f'{m.stem}_std']:.3g}" for m in COMPARED),
                      *(format(row[key], spec) for _, key, spec in REPORT_FACTS)])
    widths = [max(map(len, column)) for column in zip(*table)]
    header, *body = ("  ".join([cells[0].ljust(widths[0]), *map(str.rjust, cells[1:], widths[1:])])
                     for cells in table)
    lines += [header, "-" * len(header), *body]
    tested = [(name, row) for name, row in rows.items() if "p_atct_vs_drl" in row]
    skipped = [(name, row["skipped"]) for name, row in rows.items() if "skipped" in row]
    if tested or skipped:
        lines.append("")
        lines.append(f"ATCT tests vs {LEARNER} (Welch, two-sided; Bonferroni-corrected alongside raw):")
        for name, row in tested:
            lines.append(f"  {LEARNER} vs {name:<8} t={row['t_atct_vs_drl']:+.3f}  p={row['p_atct_vs_drl']:.4g}  "
                         f"p_bonf={row['p_bonferroni']:.4g}")
        for name, reason in skipped:
            lines.append(f"  {LEARNER} vs {name:<8} skipped: {reason}")
    improvements = [(name, row["improvement"]) for name, row in rows.items() if "improvement" in row]
    if improvements:
        lines.append("")
        lines.append(f"Relative ATCT improvement of {LEARNER} (95% CI over paired episodes):")
        for name, (mean, (lo, hi)) in improvements:
            lines.append(f"  over {name:<8} {mean*100:+.1f}%  CI [{lo*100:+.1f}%, {hi*100:+.1f}%]")
    return "\n".join(lines) + "\n"
