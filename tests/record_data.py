"""Rewrite the recorded simulator streams and command-output digests.

    python tests/record_data.py

Every case runs on the Python reference loop; the compiled loop must then
reproduce the files byte for byte.  It rewrites

  tests/data/sim_streams.json  `test_eventloop.stream_record` of each case and seed;
  tests/data/cli_outputs.json  the `simulate`, `converge` and `hydro` digests
                               of `test_cli.output_digests` at one thread, the
                               `simulate` and `hydro` digests of the d = 2
                               config `test_cli.tiny_config_2d` (under "2d"),
                               the `exact` digests of
                               `test_cli.exact_report_digest`, and under
                               "rate" `test_cli.rate_numbers`, rewritten only
                               when the new run misses the recorded numbers
                               by more than `test_cli.RATE_TOLERANCES`, so a
                               change that moves them by rounding leaves them;
  tests/data/controlled_marches.json  `test_hydro.controlled_march_digest`
                               of each case of `test_hydro.CONTROLLED_MARCHES`;
  tests/data/catalog_events.json  `test_dynamics.catalog_record` of each model
                               of `test_dynamics.CATALOG_MODELS`, one row per line.

It prints each recorded key whose value changed.  Re-record only for a
change that is meant to move these outputs (a new candidate stream, a new
report line), and say in CHANGES.md which moved.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from latgas import eventloop  # noqa: E402

import test_cli  # noqa: E402
import test_dynamics  # noqa: E402
import test_eventloop  # noqa: E402
import test_hydro  # noqa: E402


def leaves(data: dict, prefix: str = "") -> dict:
    """Each non-dict value of nested `data` under its "/"-joined key path."""
    out = {}
    for key, value in data.items():
        if isinstance(value, dict):
            out.update(leaves(value, f"{prefix}{key}/"))
        else:
            out[prefix + key] = value
    return out


def rows_per_line(data: dict) -> str:
    """`data`, a dict of lists of rows, as JSON with one row per line."""
    cases = (f"  {json.dumps(name)}: [\n" + ",\n".join(f"    {json.dumps(row)}" for row in rows)
             + "\n  ]" for name, rows in data.items())
    return "{\n" + ",\n".join(cases) + "\n}\n"


def write(path: pathlib.Path, data: dict, text: str = "") -> None:
    """Rewrite `path` with `data`, as `text` if given, else as indented JSON
    with sorted keys, printing each key whose value changed."""
    old = leaves(json.loads(path.read_text())) if path.exists() else {}
    new = leaves(data)
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(f"{path.relative_to(HERE)}: {key} changed")
    path.write_text(text or json.dumps(data, indent=1, sort_keys=True) + "\n")


def main() -> None:
    eventloop.load_kernel = lambda: None
    streams = {f"{name}-seed{seed}": test_eventloop.stream_record(name, seed)
               for name, seed in test_eventloop.CASES}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        outputs = {command: test_cli.output_digests(tmp, command, threads=1)
                   for command in ("simulate", "converge")}
        outputs["hydro"] = test_cli.output_digests(tmp, "hydro", threads=1)
        outputs["2d"] = {command: test_cli.output_digests(tmp, command, threads=1,
                                                          config=test_cli.tiny_config_2d)
                         for command in ("simulate", "hydro")}
        outputs["exact"] = {name: test_cli.exact_report_digest(tmp, name)
                            for name in sorted(test_cli.EXACT_CONFIGS)}
        rate = test_cli.rate_numbers(tmp)
    recorded = test_cli.RECORDED_OUTPUTS.get("rate")
    outputs["rate"] = (recorded if recorded and not test_cli.rate_mismatches(recorded, rate)
                       else rate)
    write(HERE / "data" / "sim_streams.json", streams)
    write(HERE / "data" / "cli_outputs.json", outputs)
    write(HERE / "data" / "controlled_marches.json",
          {name: test_hydro.controlled_march_digest(name)
           for name in sorted(test_hydro.CONTROLLED_MARCHES)})
    catalogs = {name: test_dynamics.catalog_record(name) for name in test_dynamics.CATALOG_MODELS}
    write(HERE / "data" / "catalog_events.json", catalogs, rows_per_line(catalogs))


if __name__ == "__main__":
    main()
