"""marlsched benchmark: one workload per fresh interpreter, closed batch loop.

Usage (from the repository root):

    python3 perfbench/run.py --workload drl-full --seed 42 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

A run repeats one fixed episode protocol (a "unit", see workloads.py) back to
back until ``--seconds`` have passed. The first unit runs the program
unpatched; its episode CSV is the reference every later unit must reproduce
byte for byte. Later units carry the run's hooks: with ``--trace 0`` a timer
around ``scheduler.assign`` (the only timer) and per-episode invariant checks;
with ``--trace 1`` a span at every layer boundary (tracing.py). Inside the
simulator, task arrivals stay an open-loop Poisson process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
provenance included, is written under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from workloads import WORKLOADS, make_config

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 3

# Spans that must record at least one call on every workload, and those that
# belong to the learning scheduler (which must record none on minmin).
COMMON_SPANS = (
    "experiment.run_scheduler", "experiment.make_scheduler", "experiment.build_episode_inputs",
    "workload.generate_workload", "cluster.generate_cluster", "simenv.advance",
    "cluster.step_energy", "simenv.enqueue_assignment", "experiment.write_episode_csv",
)
DRL_SPANS = (
    "marl.DrlScheduler.init", "marl.DrlScheduler.assign", "marl.DrlScheduler.after_advance",
    "marl.DrlScheduler.end_episode", "marl.apply_update", "marl.ReplayBuffer.sample",
    "marl.ReplayBuffer.add", "marl.td_error", "marl.forward", "simenv.build_observation",
    "marl.select_assignments", "marl.compute_step_reward", "simenv.feasible_nodes",
    "marl.save_checkpoint",
)
MINMIN_SPANS = ("schedulers.minmin.assign",)
ASSIGN_SPANS = ("marl.DrlScheduler.assign", "schedulers.minmin.assign")
TRAIN_SPANS = ("marl.ReplayBuffer.sample", "marl.apply_update")
ALL_SPANS = COMMON_SPANS + DRL_SPANS + MINMIN_SPANS


class RunHooks:
    """Hooks at the engine and scheduler boundaries of the hooked units.

    Untraced, they time ``assign`` (the run's only timer). Both modes record
    the pending count per step and check each episode's invariants as
    ``run_episode`` summarizes it; traced runs also count queue and replay
    occupancy and placements.
    """

    def __init__(self, config, traced: bool):
        self.config = config
        self.traced = traced
        # Per hooked unit: seconds of each assign call with pending tasks, in
        # call order. Units repeat identical work, so position i is the same
        # call in every unit.
        self.decide_s: list[list[float]] = []
        self.pending: list[int] = []
        self.placed = 0
        self.node_queue_sum = 0.0
        self.replay_fill: list[int] = []
        self.episodes = 0
        self.dropped = 0
        self.failures: list[str] = []
        self._step_energy_j = 0.0

    def replacements(self, scheduler_cls):
        from marlsched import experiment, marl

        hooks = [
            (scheduler_cls, "assign", self._assign(scheduler_cls.__dict__["assign"])),
            (experiment, "advance", self._advance(experiment.advance)),
            (experiment, "summarize_episode", self._summarize(experiment.summarize_episode)),
        ]
        if self.traced:
            hooks.append((marl.ReplayBuffer, "sample", self._sample(marl.ReplayBuffer.__dict__["sample"])))
        return hooks

    def _assign(self, assign):
        pending_counts = self.pending
        if self.traced:
            def hooked(scheduler, state, pending):
                decisions = assign(scheduler, state, pending)
                pending_counts.append(len(pending))
                self.placed += sum(1 for d in decisions if d.node_id is not None)
                return decisions
            return hooked

        clock = time.perf_counter

        def timed(scheduler, state, pending):
            t0 = clock()
            decisions = assign(scheduler, state, pending)
            elapsed = clock() - t0
            if pending:
                self.decide_s[-1].append(elapsed)
            pending_counts.append(len(pending))
            return decisions

        return timed

    def _advance(self, advance):
        def hooked(state, dt):
            report = advance(state, dt)
            self._step_energy_j += report.energy_joules
            if self.traced:
                self.node_queue_sum += sum(len(n.queue) for n in state.nodes) / len(state.nodes)
            return report

        return hooked

    def _sample(self, sample):
        def hooked(buffer, batch_size, stream):
            self.replay_fill.append(len(buffer))
            return sample(buffer, batch_size, stream)

        return hooked

    def _summarize(self, summarize):
        def hooked(state, *args, **kwargs):
            metrics = summarize(state, *args, **kwargs)
            step_energy_j, self._step_energy_j = self._step_energy_j, 0.0
            self.episodes += 1
            self.dropped += len(state.dropped)
            problem = episode_problem(state, metrics, step_energy_j, self.config.n_tasks)
            if problem:
                self.failures.append(f"hooked episode {self.episodes}: {problem}")
            return metrics

        return hooked


def metrics_problem(m) -> str | None:
    if m.atct is None:
        return "no task completed"
    values = (m.atct, m.energy_kwh, m.sla_rate, m.throughput, m.mean_step_util_variance,
              m.objective_j, m.makespan)
    if not all(math.isfinite(v) for v in values):
        return f"non-finite metric in {values}"
    return None


def episode_problem(state, m, step_energy_j: float, n_tasks: int) -> str | None:
    """The first broken invariant of a finished episode, or None."""
    queued = sum(len(n.queue) + len(n.running) for n in state.nodes)
    not_arrived = sum(1 for t in state.tasks.values() if t.arrival > state.time)
    unresolved = len(state.pending) + queued + not_arrived
    if len(state.tasks) != n_tasks or len(state.completions) + len(state.dropped) + unresolved != n_tasks:
        return (f"completed {len(state.completions)} + dropped {len(state.dropped)} + "
                f"unresolved {unresolved} != n_tasks {n_tasks}")
    node_j = sum(n.energy_joules for n in state.nodes)
    if not math.isclose(node_j, step_energy_j, rel_tol=1e-9) or not math.isclose(
            m.energy_kwh * 3.6e6, node_j, rel_tol=1e-12):
        return f"energy {m.energy_kwh} kWh, node sum {node_j} J, step sum {step_energy_j} J"
    if state.steps * state.config.dt != state.time:
        return f"{state.steps} steps of {state.config.dt} s do not reach time {state.time}"
    return metrics_problem(m)


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    """Seconds from starting a fresh interpreter to its first assign call."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), workload, str(seed),
             str(work / "setup")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


def provenance(workload: str, seed: int, config) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = {}
    sources = sorted((SRC / "marlsched").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "config": {"scheduler": config.schedulers[0], "n_nodes": config.n_nodes,
                   "n_tasks": config.n_tasks, "episodes_per_unit": config.episodes,
                   "final_window": config.final_window, "arrival_rate": config.arrival_rate},
    }


def offered_load(config) -> float:
    """Measured offered CPU load over the unit: core-seconds per second per core."""
    from marlsched.experiment import build_episode_inputs

    loads = []
    for ep in range(config.episodes):
        tasks, cluster = build_episode_inputs(config, ep)
        work = sum(t.cpu * t.duration for t in tasks)
        loads.append(work / tasks[-1].arrival / sum(n.cpu_capacity for n in cluster))
    return sum(loads) / len(loads)


def decide_ms_percentiles(decide_s: list[list[float]]) -> tuple[float, float]:
    """p50 and p90 over a unit's assign calls of each call's median host time.

    Taking every call's median over the run's repeats of it filters the host
    speed phases that hit a minority of repeats.
    """
    import numpy as np

    per_call = 1000.0 * np.median(np.array(decide_s), axis=0)
    return float(np.percentile(per_call, 50)), float(np.percentile(per_call, 90))


def span_metrics(tracer, hooks, traced_units: int, traced_seconds: float) -> dict:
    """Per-layer metrics from the spans of the traced units (per unit)."""
    import numpy as np

    name_ix, parent, duration, self_time = tracer.arrays()
    n_names = len(tracer.names)
    self_by_name = np.bincount(name_ix, weights=self_time, minlength=n_names)
    calls_by_name = np.bincount(name_ix, minlength=n_names)
    out = {}
    for name in ALL_SPANS:
        i = tracer.names.index(name)
        out[f"{name}.self_pct"] = (100.0 * self_by_name[i] / traced_seconds, "%")
        out[f"{name}.calls"] = (calls_by_name[i] / traced_units, "count")
    make_i = tracer.names.index("experiment.make_scheduler")
    out["experiment.make_scheduler_s"] = (float(duration[name_ix == make_i].mean()), "s")

    assign_ids = [tracer.names.index(n) for n in ASSIGN_SPANS]
    train_ids = [tracer.names.index(n) for n in TRAIN_SPANS]
    assign_spans = np.flatnonzero(np.isin(name_ix, assign_ids))
    train_spans = np.flatnonzero(np.isin(name_ix, train_ids))
    train_by_parent = np.zeros(len(duration))
    np.add.at(train_by_parent, parent[train_spans], duration[train_spans])
    assign_dur = duration[assign_spans]
    train_dur = train_by_parent[assign_spans]
    with_pending = np.asarray(hooks.pending) > 0
    out["sched.assign_ms_p50"] = (1000.0 * float(np.median(assign_dur[with_pending])), "ms")
    out["sched.infer_ms_p50"] = (
        1000.0 * float(np.median((assign_dur - train_dur)[with_pending])), "ms")
    out["sched.train_pct"] = (100.0 * float(train_dur.sum() / assign_dur.sum()), "%")
    return out


def run_units(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from marlsched import experiment
    from marlsched.marl import DrlScheduler
    from marlsched.metrics import aggregate_final
    from tracing import Tracer, instrument, patched

    config = make_config(workload, seed, str(work))
    name = config.schedulers[0]
    scheduler_cls = experiment.BASELINES.get(name, DrlScheduler)
    tracer = Tracer() if trace else None
    hooks = RunHooks(config, traced=trace)

    def unit(k: int, run_scheduler):
        unit_config = replace(config, output_dir=str(work / f"unit-{k}"))
        t0 = time.perf_counter()
        results = run_scheduler(unit_config, name)
        elapsed = time.perf_counter() - t0
        csv_bytes = (Path(unit_config.output_dir) / f"{name}.csv").read_bytes()
        shutil.rmtree(unit_config.output_dir)
        steps = sum(round(r.metrics.makespan / config.sim.dt) for r in results)
        return results, elapsed, steps, csv_bytes

    deadline = time.perf_counter() + seconds
    reference, plain_s, plain_steps, ref_csv = unit(0, experiment.run_scheduler)
    failures = [f"plain episode {r.episode}: {p}" for r in reference if (p := metrics_problem(r.metrics))]
    attempted, failed = len(reference), len(failures)

    run_scheduler = experiment.run_scheduler
    replacements = []
    if trace:
        run_scheduler = tracer.wrap("experiment.run_scheduler", run_scheduler)
        replacements = instrument(tracer)
    unit_seconds = [plain_s]
    hooked_units, hooked_s, hooked_steps = 0, 0.0, 0
    with patched(replacements), patched(hooks.replacements(scheduler_cls)):
        while hooked_units == 0 or time.perf_counter() < deadline:
            before = hooks.episodes
            attempted += config.episodes
            hooks.decide_s.append([])
            try:
                _, elapsed, steps, csv_bytes = unit(hooked_units + 1, run_scheduler)
            except Exception:
                traceback.print_exc()
                hooks.decide_s.pop()
                failed += config.episodes - (hooks.episodes - before)
                failures.append(f"hooked unit {hooked_units + 1} raised")
                break
            hooked_units += 1
            unit_seconds.append(elapsed)
            hooked_s += elapsed
            hooked_steps += steps
            if csv_bytes != ref_csv:
                failures.append(f"hooked unit {hooked_units} episode CSV differs from the plain unit")
    if not hooked_units:
        raise RuntimeError(f"no hooked unit completed: {failures}")
    failures += hooks.failures
    failed += len(hooks.failures)

    k = config.final_window
    pending = hooks.pending or [0]
    if trace:
        traced_rate = hooked_steps / hooked_s
        metrics = span_metrics(tracer, hooks, hooked_units, hooked_s)
        metrics.update({
            "sched.placed_ratio": (hooks.placed / max(sum(hooks.pending), 1), "ratio"),
            "simenv.pending_mean": (statistics.fmean(pending), "count"),
            "simenv.pending_max": (max(pending), "count"),
            "simenv.node_queue_mean": (hooks.node_queue_sum / hooked_steps, "count"),
            "simenv.dropped": (hooks.dropped / hooked_units, "count"),
            "marl.updates_per_step": (metrics["marl.apply_update.calls"][0] / plain_steps, "count"),
            "marl.replay_fill_mean": (statistics.fmean(hooks.replay_fill or [0]), "count"),
            "trace.steps_per_s": (traced_rate, "1/s"),
            "trace.overhead_steps_per_s": (plain_steps / plain_s - traced_rate, "1/s"),
        })
        calls = {n: metrics[f"{n}.calls"][0] for n in ALL_SPANS}
        expected = COMMON_SPANS + (MINMIN_SPANS if name == "minmin" else DRL_SPANS)
        silent = [n for n in expected if calls[n] < 1]
        if silent:
            failures.append(f"expected spans recorded no call: {silent}")
        fired = [n for n in DRL_SPANS if calls[n] > 0] if name == "minmin" else []
        if fired:
            failures.append(f"marl spans fired on a minmin workload: {fired}")
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{workload}-seed{seed}.spans.npz")
    else:
        if len({len(calls) for calls in hooks.decide_s}) > 1:
            raise RuntimeError("hooked units made different numbers of assign calls")
        decide_p50, decide_p90 = decide_ms_percentiles(hooks.decide_s)
        metrics = {
            "steps_per_s": (plain_steps / statistics.median(unit_seconds), "1/s"),
            "decide_ms_p50": (decide_p50, "ms"),
            "decide_ms_p90": (decide_p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "atct_s": (aggregate_final([r.metrics.atct for r in reference], k)[0], "s"),
            "sla_rate": (aggregate_final([r.metrics.sla_rate for r in reference], k)[0], "ratio"),
            "energy_kwh": (aggregate_final([r.metrics.energy_kwh for r in reference], k)[0], "kWh"),
        }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": failures,
        "units": {"plain": 1, "hooked": hooked_units, "seconds": unit_seconds,
                  "steps_per_unit": plain_steps},
        "decide_samples": sum(len(calls) for calls in hooks.decide_s),
        "csv_sha256": hashlib.sha256(ref_csv).hexdigest(),
        "offered_load": offered_load(config),
        "pending_max": max(pending),
        "config": config,
    }


def run_one(args) -> int:
    os.environ.pop("MARL_SCHED_THREADS", None)
    trace = bool(args.trace)
    import_s = {}
    if trace:
        t0 = time.perf_counter()
        import scipy.stats  # noqa: F401  (most of set-up time)
        import_s["stats.import_s"] = time.perf_counter() - t0
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import marlsched.experiment  # noqa: F401
    import_s["marlsched.import_s"] = time.perf_counter() - t0

    work = OUT / f"work-{os.getpid()}"
    try:
        setup = None if trace else measure_setup(args.workload, args.seed, work)
        record = run_units(args.workload, args.seed, args.seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = record.pop("metrics")
    if trace:
        metrics.update({k: (v, "s") for k, v in import_s.items()})
    else:
        metrics = {"setup_s": (statistics.median(setup), "s"), **metrics}
        record["setup_s_samples"] = setup
    record["provenance"] = provenance(args.workload, args.seed, record.pop("config"))
    record["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={int(trace)}")
    for key, m in record["metrics"].items():
        print(f"{key:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"episode_csv_sha256 {record['csv_sha256']}")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print(json.dumps({"provenance": record["provenance"], "offered_load": record["offered_load"],
                      "pending_max": record["pending_max"]}))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "marlsched" / "__init__.py").is_file():
        print(f"error: no marlsched package under {SRC}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    status = 0
    for workload in WORKLOADS:
        done = subprocess.run([sys.executable, __file__, "--workload", workload, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace",
                               str(args.trace)])
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
