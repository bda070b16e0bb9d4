"""Smoke test of the benchmark at minimal length.

    python3 perfbench/smoke.py [--workload NAME ...]

For each workload it runs `run.py` once untraced and twice traced with
`--seconds 1` and checks that:

* the last output line has exactly the keys correct, attempted, failed and
  metrics, with `correct` true, `failed` 0 and `attempted` at least 1;
* every metric BENCHMARK.json names for that mode is present, with its unit
  and a finite value, and end-to-end values are positive;
* the exact counts repeat between the two traced runs.

It also checks that `run.py` fails without printing a result in a directory
that holds only BENCHMARK.json and the benchmark's own files.  Exits 1 on
the first failure.
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("tensor.nodes_per_window", "lstm.cell_nodes", "lstm.cell_calls",
                "attention.nodes", "verify.forward_passes", "params.zero_grad_share")


def run(cwd, workload, trace, seed=1):
    command = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(workload, trace):
    done = run(ROOT, workload, trace)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload}: outputs incorrect"
    assert result["failed"] == 0, f"{workload}: {result['failed']} operations failed"
    assert result["attempted"] >= 1, f"{workload}: nothing attempted"
    assert set(result["metrics"]) == {m["name"] for m in declared}, (
        f"{workload}: metric names differ from BENCHMARK.json")
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], f"{metric['name']}: unit {got['unit']}"
        assert math.isfinite(got["value"]), f"{metric['name']}: {got['value']}"
        assert trace or got["value"] > 0, f"{metric['name']} is not positive"
    return result


def check_bare_directory():
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out"))
    done = run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert done.returncode != 0, "run.py succeeded without the program's sources"
    assert '"metrics"' not in done.stdout, "run.py printed a result without the sources"


def main(argv=None):
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    try:
        check_bare_directory()
        print("ok  fails without sources")
        for workload in args.workload or names:
            result_of(workload, 0)
            first, second = result_of(workload, 1), result_of(workload, 1)
            for name in EXACT_COUNTS:
                a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
                assert a == b, f"{workload}: {name} differs between traced runs ({a} vs {b})"
            counts = {name: first["metrics"][name]["value"] for name in EXACT_COUNTS}
            print(f"ok  {workload}  {counts}")
    except AssertionError as err:
        print(f"FAIL  {err}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
