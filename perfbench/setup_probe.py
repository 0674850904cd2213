"""Set-up probe: run in a fresh interpreter, print the clock at the first assign.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD SEED OUT_DIR

Covers the imports, the config, scheduler construction and the first
episode's inputs. The parent reads ``time.perf_counter()`` before starting
this process; both read the same monotonic clock, so the difference is the
set-up time including interpreter start.
"""

import sys
import time


class _FirstAssign(Exception):
    pass


def main(src_dir: str, workload: str, seed: str, out_dir: str) -> None:
    sys.path.insert(0, src_dir)
    from workloads import make_config

    config = make_config(workload, int(seed), out_dir)
    from marlsched import experiment

    scheduler = experiment.make_scheduler(config.schedulers[0], config)

    def first_assign(state, pending):
        raise _FirstAssign(time.perf_counter())

    scheduler.assign = first_assign
    try:
        experiment.run_episode(scheduler, config, 0)
    except _FirstAssign as reached:
        print(repr(reached.args[0]))
        return
    raise RuntimeError("episode ended without an assign call")


if __name__ == "__main__":
    main(*sys.argv[1:])
