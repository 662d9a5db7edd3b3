"""Output checks for each CLI command the benchmark runs.

Each check reads the files a command wrote and returns a list of problems;
an empty list means the output is correct.  A command counts as failed when
it exits non-zero or its check reports a problem.
"""

from __future__ import annotations

import csv
import math
import os

F06_GAP_BOUND = 0.05           # the Tier-1 bound on the F06 relative gap
UNCONTROLLED_SHARE_BOUND = 0.01  # uncontrolled cost vs the controlled lhs


def read_csv(path) -> tuple:
    """(header, rows) of a latgas CSV, skipping '#' comment lines."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    return rows[0], rows[1:]


def read_report(path) -> dict:
    """`key: value` lines of a latgas text report."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key, _, value = line.partition(":")
            out[key.strip()] = value.strip()
    return out


def _all_finite(rows) -> bool:
    return all(math.isfinite(float(x)) for row in rows for x in row)


def check_simulate(out: str, cfg: dict) -> list:
    model, sim = cfg["model"], cfg["simulate"]
    nv = len(model["velocities"])
    times = len(sim["sample_times"])
    radius = int(sim.get("block_radius", 1))
    problems = []
    for n in model["N"]:
        lo, hi = radius + 1, n - 1 - radius
        centers = {min(max(c, lo), hi) for c in (n // 4, n // 2, (3 * n) // 4)}
        for r in range(int(model["replicas"])):
            stem = os.path.join(out, f"sim_N{n}_r{r}")
            try:
                _, fields = read_csv(stem + "_fields.csv")
                _, blocks = read_csv(stem + "_blocks.csv")
            except OSError as exc:
                problems.append(f"missing output: {exc}")
                continue
            if len(fields) != times * int(sim["grid_m1"]):
                problems.append(f"{stem}_fields.csv has {len(fields)} rows")
            if len(blocks) != times * len(centers):
                problems.append(f"{stem}_blocks.csv has {len(blocks)} rows")
            if not (_all_finite(fields) and _all_finite(blocks)):
                problems.append(f"{stem}: non-finite values")
            elif not all(0.0 <= float(row[2]) <= nv for row in blocks):
                problems.append(f"{stem}_blocks.csv: block mass outside [0, {nv}]")
    return problems


def check_rate(out: str, cfg: dict) -> list:
    try:
        f06 = read_report(os.path.join(out, "f06_report.txt"))
        _, sweep = read_csv(os.path.join(out, "rate_sweep.csv"))
    except OSError as exc:
        return [f"missing output: {exc}"]
    problems = []
    gap, lhs = float(f06["relative_gap"]), float(f06["lhs_cost_estimate"])
    if not gap <= F06_GAP_BOUND:
        problems.append(f"F06 relative gap {gap:.3e} exceeds {F06_GAP_BOUND}")
    largest = float(sweep[-1][1])
    if not largest < UNCONTROLLED_SHARE_BOUND * lhs:
        problems.append(f"uncontrolled estimate {largest:.3e} is not below "
                        f"{UNCONTROLLED_SHARE_BOUND} x lhs {lhs:.3e}")
    return problems


def check_exact(out: str, cfg: dict) -> list:
    try:
        report = read_report(os.path.join(out, "exact_report.txt"))
    except OSError as exc:
        return [f"missing output: {exc}"]
    n, d = int(cfg["exact"]["N"]), int(cfg["model"]["d"])
    bits = (n - 1) * n ** (d - 1) * len(cfg["model"]["velocities"])
    problems = []
    if int(report["n_states"]) != 2**bits:
        problems.append(f"n_states {report['n_states']}, expected {2**bits}")
    if float(report["max_abs_row_sum"]) != 0.0:
        problems.append(f"max_abs_row_sum {report['max_abs_row_sum']} is not 0")
    return problems


def check_converge(out: str, cfg: dict) -> list:
    try:
        header, rows = read_csv(os.path.join(out, "converge.csv"))
    except OSError as exc:
        return [f"missing output: {exc}"]
    sizes = sorted(int(n) for n in cfg["model"]["N"])
    ncomp = int(cfg["model"]["d"]) + 1
    if len(rows) != len(sizes) * ncomp:
        return [f"converge.csv has {len(rows)} rows, expected {len(sizes) * ncomp}"]
    if not _all_finite(rows):
        return ["converge.csv: non-finite values"]
    col = header.index("l1_mean")
    l1 = {int(row[0]): float(row[col]) for row in rows if int(row[1]) == 0}
    series = [l1[n] for n in sizes]
    if not all(a > b for a, b in zip(series, series[1:])):
        return [f"component-0 l1_mean does not decrease in N: {series}"]
    return []


CHECKS = {
    "simulate": check_simulate,
    "rate": check_rate,
    "exact": check_exact,
    "converge": check_converge,
}

VOLATILE_MANIFEST_KEYS = ("wallclock_seconds:", "created_unix:")


def data_files(out: str) -> dict:
    """{file name: bytes} of a run's data files, for byte comparison.

    Manifests are compared without their wallclock and creation-time lines,
    and with the output directory replaced, since it differs between runs.
    """
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name.startswith("manifest_"):
            lines = [line for line in data.decode().splitlines()
                     if not line.startswith(VOLATILE_MANIFEST_KEYS)]
            data = "\n".join(lines).replace(out, "<out>").encode()
        files[name] = data
    return files
