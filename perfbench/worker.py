"""One benchmark run in a fresh process: set-up, then the workload's CLI commands.

    python3 perfbench/worker.py --workload sim --seed 1 --out DIR --result FILE [--trace]

Set-up time covers `import latgas.cli`, loading the workload config, building
the model and its RateTable for every N, and building the grid and boundary
data (which fills the hull cache).  The commands then run in this process
through `latgas.cli.main` with `--threads 1`.  The result file is JSON with
the set-up time, each command's exit code and wall time, the CPU speed the
SpeedProbe saw during set-up and each command, the peak resident set size
and, with --trace, the recorded spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# workload -> (config file under configs/, CLI commands in run order)
WORKLOADS = {
    "sim": ("sim.yaml", ("simulate",)),
    "rate": ("rate.yaml", ("rate",)),
    "crosscheck": ("crosscheck.yaml", ("exact", "converge")),
}


class SpeedProbe:
    """Samples this CPU's current speed while the run executes.

    Every INTERVAL_S a timer signal runs a fixed pure-Python loop and records
    how long it took.  On a shared host the speed of one virtual CPU drifts by
    tens of percent over seconds to minutes; the probe measures it on the
    same CPU at the same moments as the work, so a phase's wall time can be
    scaled to a fixed reference speed.  The handler changes no program state,
    so outputs are unaffected; it costs about 1% of wall time.
    """

    INTERVAL_S = 0.1
    ITERATIONS = 4000

    def __init__(self):
        self.samples: list = []  # (start, seconds) per probe

    def _probe(self, signum, frame):
        started = time.perf_counter()
        buf, x = bytearray(256), 12345
        for _ in range(self.ITERATIONS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            buf[x & 255] ^= 1
        self.samples.append((started, time.perf_counter() - started))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds_between(self, start: float, end: float) -> list:
        """Probe durations of the samples taken in [start, end]."""
        return [d for t, d in self.samples if start <= t <= end]


def config_path(workload: str) -> str:
    return os.path.join(HERE, "configs", WORKLOADS[workload][0])


def setup(path: str):
    """Time the fixed per-process cost; returns (latgas.cli module, seconds)."""
    started = time.perf_counter()
    from latgas import cli
    from latgas.dynamics import RateTable
    from latgas.hydro import BoundaryData

    cfg = cli.load_config(path)
    for n in cfg.model.n_values:
        RateTable(cli.build_model(cfg, n))
    m1 = cfg.hydro.get("m1") or cfg.simulate.get("grid_m1") or cfg.converge.get("grid_m1")
    grid = cli.build_grid(cfg, int(m1), cfg.hydro.get("mt"))
    BoundaryData.from_profiles(cli.build_profiles(cfg), cfg.model.velocities, grid)
    return cli, time.perf_counter() - started


def run_commands(cli, workload: str, seed: int, out: str, probe: SpeedProbe,
                 recorder=None) -> list:
    path = config_path(workload)
    results = []
    for name in WORKLOADS[workload][1]:
        argv = [name, "--config", path, "--seed", str(seed), "--out", out, "--threads", "1"]
        span = recorder.span(f"cli.{name}") if recorder else contextlib.nullcontext()
        started = time.perf_counter()
        with span:
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc()
                rc = 1
        ended = time.perf_counter()
        results.append({"name": name, "rc": rc, "wall_s": ended - started,
                        "probe_s": probe.seconds_between(started, ended)})
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    with SpeedProbe() as probe:
        started = time.perf_counter()
        cli, setup_s = setup(config_path(args.workload))
        result = {"setup_s": setup_s,
                  "setup_probe_s": probe.seconds_between(started, time.perf_counter())}
        if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "latgas"):
            raise SystemExit(f"latgas imported from {cli.__file__}, not from {SRC}")
        if args.trace:
            import tracer

            recorder = tracer.Recorder()
            with recorder.installed():
                result["commands"] = run_commands(cli, args.workload, args.seed, args.out,
                                                  probe, recorder)
            result["spans"] = recorder.spans
        else:
            result["commands"] = run_commands(cli, args.workload, args.seed, args.out, probe)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
