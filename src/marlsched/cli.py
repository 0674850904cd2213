"""Command line entry point: run | compare | plot."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .experiment import ALL_SCHEDULERS, LEARNER, ExperimentConfig, compare, run_scheduler
from .plots import emit_all


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="marl-sched",
                                     description="Heterogeneous scheduling simulator and experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, help="JSON config file (flat dotted keys)")
        p.add_argument("--scheduler", type=str, help=f"scheduler name: {'|'.join(ALL_SCHEDULERS)}")
        p.add_argument("--episodes", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--nodes", type=int)
        p.add_argument("--tasks", type=int)
        p.add_argument("--out", type=str)

    common(sub.add_parser("run", help="run episodes for one scheduler"))
    common(sub.add_parser("compare", help="run all schedulers and build the comparison report"))
    plot = sub.add_parser("plot", help="emit SVG plots from a results directory's CSVs and config.json")
    plot.add_argument("results_dir")
    return parser


def config_from_args(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.episodes is not None:
        overrides["episodes"] = args.episodes
        overrides["final_window"] = min(config.final_window, args.episodes)
    for value, key in ((args.seed, "master_seed"), (args.nodes, "n_nodes"), (args.tasks, "n_tasks"),
                       (args.out, "output_dir")):
        if value is not None:
            overrides[key] = value
    if args.scheduler:
        overrides["schedulers"] = (args.scheduler,)
    return replace(config, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "plot":
        return plot(Path(args.results_dir))
    try:
        config = config_from_args(args)
        Path(config.output_dir).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "run":
        # --scheduler, else the config's scheduler when it names exactly one, else the learner
        name = config.schedulers[0] if len(config.schedulers) == 1 else LEARNER
        results = run_scheduler(replace(config, schedulers=(name,)), name)
        print(f"wrote {Path(config.output_dir) / (name + '.csv')} ({len(results)} episodes)")
        return 0

    compare(config)
    out = Path(config.output_dir)
    print(f"wrote {out / 'comparison.csv'} and {out / 'report.txt'}")
    return 0


def plot(results_dir: Path) -> int:
    """Emit every plot for the schedulers and final window that ``config.json`` records."""
    path = results_dir / "config.json"
    try:
        config = ExperimentConfig.from_file(path)
    except (OSError, ValueError) as exc:
        print(f"error: {path}: {exc.strerror if isinstance(exc, OSError) else exc}", file=sys.stderr)
        return 2
    failed = False
    for fname, err in emit_all(results_dir, config.schedulers, config.final_window).items():
        if err is None:
            print(f"wrote {results_dir / fname}")
        else:
            failed = True
            print(f"error ({fname}): {err}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
