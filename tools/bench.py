"""Compare the benchmark's end-to-end metrics of the working tree and a git revision.

    python tools/bench.py compare REV [--pairs N] [--seconds S] [--workloads NAME ...]

exports REV and the working tree (its tracked and untracked files, as
`git add -A` would record them) the same way, each with `git archive` into
a fresh directory of its own, and runs `perfbench/run.py` unchanged in each,
`--trace 0`, as N pairs of runs per workload: pair k runs both trees at seed
k, and which tree runs first alternates from pair to pair, since whichever
runs second reads slower on a shared machine.  Both directories have names
of one length beside each other, as a process's resident peak follows the
directory a tree sits in.  The workloads, the end-to-end metrics and their
bounds are those of the working tree's `BENCHMARK.json`, and `--seconds`
defaults to its `run_seconds`.

For each workload and metric it prints the parent's median and IQR, the
change's median and its difference from the parent's, and in how many
pairs the change read lower.  The exit status is 1 when a change median is
worse than its parent's by more than the metric's bound (a fraction of the
parent's median), 2 with one line on stderr when a tree cannot be exported
or a run fails, or reports an incorrect result or a failed operation, and
0 otherwise.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _parity():
    """`tools/parity.py`, whose export and step helpers this tool shares."""
    spec = importlib.util.spec_from_file_location("parity", Path(__file__).with_name("parity.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


parity = _parity()
StepError = parity.StepError


def _snapshot():
    """The git tree of the working tree's tracked and untracked files, as
    `git add -A` would record them, made through an index of its own."""
    with tempfile.TemporaryDirectory() as scratch:
        index = Path(scratch) / "index"
        env = dict(os.environ, GIT_INDEX_FILE=str(index))
        parity._step(["git", "add", "-A"], "cannot snapshot the working tree", cwd=ROOT,
                     env=env)
        try:
            done = subprocess.run(["git", "write-tree"], cwd=ROOT, env=env, check=True,
                                  capture_output=True, text=True)
        except (OSError, subprocess.CalledProcessError) as err:
            raise StepError(f"cannot snapshot the working tree: {err}") from None
    return done.stdout.strip()


def _run(tree, workload, seed, seconds):
    """One `perfbench/run.py` run in `tree`: its end-to-end metrics."""
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    what = f"{workload} at seed {seed} in {tree.name}"
    try:
        done = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    except OSError as err:
        raise StepError(f"{what}: {err}") from None
    if done.returncode:
        lines = done.stderr.strip().splitlines() or [f"exit status {done.returncode}"]
        raise StepError(f"{what}: {lines[-1]}")
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise StepError(f"{what}: no result line") from None
    if not result.get("correct") or result.get("failed"):
        raise StepError(f"{what}: incorrect result or failed operations "
                        f"({result.get('failed')} of {result.get('attempted')} failed)")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summary(parent, change, bound):
    """Parent median, IQR, change median, relative difference, pairs where
    the change read lower, and whether the difference passes `bound`, for
    one lower-is-better metric read in pairs (`parent[k]`, `change[k]`)."""
    base, head = np.median(parent), np.median(change)
    q1, q3 = np.percentile(parent, (25, 75))
    delta = (head - base) / base if base else 0.0
    lower = sum(c < p for p, c in zip(parent, change))
    return base, q3 - q1, head, delta, lower, delta > bound


def compare(rev, pairs, seconds, workloads, metrics):
    """Run the pairs, each run's metrics on stderr as it ends, and print the
    report on the end-to-end `metrics` of `BENCHMARK.json`; returns whether
    every metric is within its bound."""
    with tempfile.TemporaryDirectory() as scratch:
        trees = {"parent": Path(scratch) / "parent", "change": Path(scratch) / "change"}
        parity._export(rev, trees["parent"])
        parity._export(_snapshot(), trees["change"])
        readings = {}
        for workload in workloads:
            for pair in range(pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for name in order:
                    values = _run(trees[name], workload, pair + 1, seconds)
                    readings.setdefault((workload, name), []).append(values)
                    print(f"{workload} pair {pair + 1} {name}: " + ", ".join(
                        f"{m['name']} {values[m['name']]:.4g}" for m in metrics), file=sys.stderr)
    within = True
    for workload in workloads:
        print(f"{workload} ({pairs} pairs, seeds 1-{pairs}, {seconds:g} s):")
        for metric in metrics:
            name, unit = metric["name"], metric["unit"]
            parent, change = ([values[name] for values in readings[workload, tree]]
                              for tree in ("parent", "change"))
            base, iqr, head, delta, lower, beyond = summary(parent, change, metric["bound"])
            within = within and not beyond
            print(f"  {name}: parent {base:.4g} {unit} (IQR {iqr:.3g}), change {head:.4g} "
                  f"{unit} ({delta:+.2%}), lower in {lower} of {pairs}"
                  + (f"; beyond its {metric['bound']:.0%} bound" if beyond else ""))
    return within


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    command = commands.add_parser("compare", help="alternated pairs of REV and the working tree")
    command.add_argument("rev", help="git revision to compare the working tree with")
    command.add_argument("--pairs", type=int, default=10)
    command.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    command.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    try:
        within = compare(args.rev, args.pairs, args.seconds, args.workloads,
                         benchmark["end_to_end"])
    except StepError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main())
