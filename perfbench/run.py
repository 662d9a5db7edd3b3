"""latgas benchmark: wall time of each CLI command per workload, and a traced run.

    python3 perfbench/run.py --workload sim --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout (it imports latgas from ./src).

Workloads (configs/<name>.yaml; the seed goes to the CLI as --seed):
  sim         `latgas simulate`, d=1 four-velocity gas, N=128, 2 replicas,
              horizon 0.1.  The long-run event loop: dynamics.simulate is
              nearly the whole command; PDE, ldp and generator are bypassed.
  rate        `latgas rate`, reference two-velocity gas at m1=65: two PDE
              solves of 8,192 explicit steps, three Gram solves and F06.
              hydro and the Newton inversion (thermo) dominate.
  crosscheck  `latgas exact` (N=10 with walls, 2^18 states: generator
              assembly) then `latgas converge` (N=4, 8, 16 x 192 replicas:
              many short simulations whose per-call set-up dominates).

Each timed run is a fresh `worker.py` process using one thread.  With
--trace 0, runs repeat until --seconds is spent and the end-to-end metrics
are medians over them:
  setup_s      import latgas.cli, load the config, build each model and its
               RateTable, build the grid and boundary data
  command_s    wall time of the workload's CLI commands (crosscheck: both)
  peak_rss_mb  peak resident set size of the worker process
The speed of one virtual CPU on a shared host drifts by tens of percent over
seconds to minutes, more than any per-run median can absorb.  So setup_s and
command_s are wall times scaled to a fixed CPU speed: the worker's SpeedProbe
times a fixed loop ten times a second on the same CPU, and each phase's wall
time is multiplied by its mean PROBE_REF_S / probe time.  PROBE_REF_S (1 ms)
is near the middle of the probe times seen on a 2-core Xeon (Sapphire Rapids)
KVM guest, so there the scaled times read close to plain wall times.  Raw
wall times are printed on stderr.
With --trace 1, one untraced and one traced run with the same seed give the
per-layer metrics (self times by layer, counters; see tracer.py) and check
that tracing changes no output byte.  `failed` counts commands that exit
non-zero or fail their output check (checks.py); `correct` is true when none
did and, in a traced run, the traced outputs match and the self times add up.

The first run of a workload in a checkout is preceded by one untimed warm-up
run, so that on-disk caches (bytecode, any compiled kernels) are filled.
Seed HELD_OUT_SEED is reserved for confirming a claimed gain and is not used
while tuning.  The line before the result is a JSON object of run metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import yaml

import checks
import tracer
from worker import ROOT, SRC, WORKLOADS, config_path

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "_work")
HELD_OUT_SEED = 20091124
PROBE_REF_S = 1e-3
SELF_TIME_TOLERANCE = 0.01
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def run_worker(workload: str, seed: int, out: str, trace: bool = False) -> dict:
    """One fresh worker process; returns its result, or None if it crashed."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    result_path = out + ".json"
    env = dict(os.environ, **{k: "1" for k in THREAD_ENV})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", out, "--result", result_path]
    if trace:
        cmd.append("--trace")
    with open(out + ".log", "w") as log:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        return None
    with open(result_path) as fh:
        return json.load(fh)


def command_failures(workload: str, result, out: str, cfg: dict) -> tuple:
    """(commands attempted, failed, problems) for one worker result."""
    names = WORKLOADS[workload][1]
    if result is None:
        return len(names), len(names), ["worker process failed"]
    problems = []
    failed = 0
    for command in result["commands"]:
        found = []
        if command["rc"] != 0:
            found.append(f"exit code {command['rc']}")
        else:
            try:
                found = checks.CHECKS[command["name"]](out, cfg)
            except (KeyError, ValueError, IndexError) as exc:
                found = [f"unreadable output: {exc!r}"]
        failed += bool(found)
        problems += [f"{command['name']}: {p}" for p in found]
    return len(names), failed, problems


def load_workload_config(workload: str) -> dict:
    with open(config_path(workload)) as fh:
        return yaml.safe_load(fh)


def warm_up(workload: str, seed: int) -> None:
    marker = os.path.join(WORK, workload, "warm")
    if os.path.exists(marker):
        return
    run_worker(workload, seed, os.path.join(WORK, workload, "warmup"))
    with open(marker, "w") as fh:
        fh.write("warm-up run done\n")


def at_reference_speed(wall_s: float, probe_s: list, fallback: list) -> float:
    """Wall time scaled to the CPU speed at which one probe takes PROBE_REF_S.

    A phase too short to hold a probe sample uses the whole run's samples.
    """
    speeds = [PROBE_REF_S / p for p in (probe_s or fallback)]
    return wall_s * statistics.fmean(speeds) if speeds else wall_s


def scaled_times(result: dict) -> tuple:
    """(setup seconds, command seconds) of one worker result at reference speed."""
    every = result["setup_probe_s"] + [p for c in result["commands"] for p in c["probe_s"]]
    setup = at_reference_speed(result["setup_s"], result["setup_probe_s"], every)
    commands = sum(at_reference_speed(c["wall_s"], c["probe_s"], every)
                   for c in result["commands"])
    return setup, commands


def timed_runs(workload: str, seed: int, seconds: float, cfg: dict) -> dict:
    deadline = time.perf_counter() + seconds
    samples, durations = [], []
    attempted = failed = 0
    while True:
        started = time.perf_counter()
        out = os.path.join(WORK, workload, "run")
        result = run_worker(workload, seed, out)
        durations.append(time.perf_counter() - started)
        a, f, problems = command_failures(workload, result, out, cfg)
        attempted, failed = attempted + a, failed + f
        for p in problems:
            print(f"[perfbench] {workload}: {p}", file=sys.stderr)
        if result is not None:
            samples.append(result)
        if time.perf_counter() + statistics.median(durations) > deadline:
            break
    metrics = {}
    scaled = [scaled_times(s) for s in samples]
    if samples:
        metrics = {
            "setup_s": (statistics.median(setup for setup, _ in scaled), "s"),
            "command_s": (statistics.median(commands for _, commands in scaled), "s"),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in samples), "MiB"),
        }
    walls = [round(sum(c["wall_s"] for c in s["commands"]), 3) for s in samples]
    print(f"[perfbench] {workload}: {len(durations)} timed runs; command wall s {walls}, "
          f"at reference speed {[round(c, 3) for _, c in scaled]}", file=sys.stderr)
    return {"correct": failed == 0 and bool(samples), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def traced_run(workload: str, seed: int, cfg: dict) -> dict:
    plain_out = os.path.join(WORK, workload, "untraced")
    traced_out = os.path.join(WORK, workload, "traced")
    plain = run_worker(workload, seed, plain_out)
    traced = run_worker(workload, seed, traced_out, trace=True)
    a1, f1, p1 = command_failures(workload, plain, plain_out, cfg)
    a2, f2, p2 = command_failures(workload, traced, traced_out, cfg)
    problems = p1 + p2
    metrics = {}
    if plain is not None and traced is not None:
        if checks.data_files(plain_out) != checks.data_files(traced_out):
            problems.append("traced and untraced runs wrote different data files")
        spans = traced["spans"]
        layer_times = tracer.layer_self_times(spans)
        for root, layers in layer_times.items():
            command = next(c for c in traced["commands"]
                           if spans[root]["name"] == f"cli.{c['name']}")
            covered = sum(layers.values())
            if abs(covered - command["wall_s"]) > SELF_TIME_TOLERANCE * command["wall_s"]:
                problems.append(f"{command['name']}: self times sum to {covered:.4f} s, "
                                f"wall {command['wall_s']:.4f} s")
            top = max(layers, key=layers.get)
            print(f"[perfbench] {workload}/{command['name']}: largest self time "
                  f"{top} {layers[top]:.3f} s of {command['wall_s']:.3f} s", file=sys.stderr)
        values = tracer.per_layer_metrics(spans, traced["commands"])
        values["trace.overhead_s"] = scaled_times(traced)[1] - scaled_times(plain)[1]
        metrics = {name: (values[name], unit) for name, unit in tracer.PER_LAYER_UNITS.items()}
    for p in problems:
        print(f"[perfbench] {workload}: {p}", file=sys.stderr)
    return {"correct": not problems and bool(metrics), "attempted": a1 + a2,
            "failed": f1 + f2, "metrics": metrics}


def git_commit():
    """HEAD commit of the checkout, or None when it is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(seed: int) -> dict:
    digest = hashlib.sha256()
    src_lines = 0
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    data = fh.read()
                digest.update(name.encode() + data)
                src_lines += data.count(b"\n")
    cpu = platform.processor() or None
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    import numpy
    import scipy

    return {"seed": seed, "held_out_seed": HELD_OUT_SEED, "git_commit": git_commit(),
            "src_sha256": digest.hexdigest(), "src_lines": src_lines,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latgas", "cli.py")):
        print(f"[perfbench] no latgas sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, args.workload), exist_ok=True)
    cfg = load_workload_config(args.workload)
    warm_up(args.workload, args.seed)
    if args.trace:
        result = traced_run(args.workload, args.seed, cfg)
    else:
        result = timed_runs(args.workload, args.seed, args.seconds, cfg)
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"meta": metadata(args.seed)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
