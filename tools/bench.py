"""Record the working tree's end-to-end benchmark metrics, or compare them with a revision's.

    python tools/bench.py write N [--seeds A-B] [--seconds S]
    python tools/bench.py compare REV [--pairs N] [--seconds S] [--workloads NAME ...]

Both export the working tree (its tracked and untracked files, as `git add
-A` would record them) with `git archive` into a fresh directory, and run
`perfbench/run.py` unchanged in it, `--trace 0`.  The workloads, the
end-to-end metrics and their bounds are those of the working tree's
`BENCHMARK.json`, and `--seconds` defaults to its `run_seconds`.

`write` runs every workload at each seed, 1-10 by default, and writes
`BENCH_N.json` at the root of the repository: per workload and metric, the
median, the IQR and every value in seed order; the measured git tree and
the HEAD it sits on; the seeds and seconds; `loadcast.cli._environment()`
at the one BLAS thread `perfbench/run.py` runs at, whose `blas_config`
names the BLAS kernel picked at run time; and the lines of the Python
files under `src/` and `tests/`.  It prints the file's path, and exits 2
with one line on stderr, writing no file, when a run fails or reports an
incorrect result or a failed operation.

`compare` exports REV the same way, into a directory beside the working
tree's, and runs N pairs of runs per workload: pair k runs both trees at
seed k, and which tree runs first alternates from pair to pair, since
whichever runs second reads slower on a shared machine.  Both directories
have names of one length, as a process's resident peak follows the
directory a tree sits in.  For each workload and metric it prints the
parent's median and IQR, the change's median and its difference from the
parent's, and in how many pairs the change read lower.  The exit status is
1 when a change median is worse than its parent's by more than the
metric's bound (a fraction of the parent's median), 2 with one line on
stderr when a tree cannot be exported or a run fails, or reports an
incorrect result or a failed operation, and 0 otherwise.
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


def _spread(values):
    """The median, IQR and every value of one metric's runs."""
    q1, q3 = np.percentile(values, (25, 75))
    return {"median": float(np.median(values)), "iqr": float(q3 - q1), "values": values}


def _lines(tree):
    """The line counts of the Python files under `tree`'s `src/` and `tests/`."""
    return {part: sum(len(path.read_text(encoding="utf-8").splitlines())
                      for path in (tree / part).rglob("*.py"))
            for part in ("src", "tests")}


def _environment():
    """`loadcast.cli._environment()` of the working tree, at the one BLAS
    thread `perfbench/run.py` runs at."""
    sys.path.insert(0, str(ROOT / "src"))
    from loadcast import cli
    with cli._one_blas_thread():
        return cli._environment()


def write(number, seeds, seconds, workloads, metrics):
    """Run every workload at each seed, each run's metrics on stderr as it
    ends, and write `BENCH_<number>.json`; returns its path."""
    with tempfile.TemporaryDirectory() as scratch:
        # `compare`'s name for the working tree, as the resident peak
        # follows the directory a tree sits in.
        tree = Path(scratch) / "change"
        snapshot = _snapshot()
        parity._export(snapshot, tree)
        readings = {}
        for workload in workloads:
            for seed in seeds:
                values = _run(tree, workload, seed, seconds)
                readings.setdefault(workload, []).append(values)
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{m['name']} {values[m['name']]:.4g}" for m in metrics), file=sys.stderr)
        lines = _lines(tree)
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        head = None
    doc = {"bench": number, "tree": snapshot, "head": head, "seeds": seeds, "seconds": seconds,
           "workloads": {workload: {m["name"]: _spread([values[m["name"]] for values in runs])
                                    for m in metrics} for workload, runs in readings.items()},
           "environment": _environment(), "lines": lines}
    path = ROOT / f"BENCH_{number}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def summary(parent, change, bound):
    """Parent median, IQR, change median, relative difference, pairs where
    the change read lower, and whether the difference passes `bound`, for
    one lower-is-better metric read in pairs (`parent[k]`, `change[k]`)."""
    spread, head = _spread(parent), np.median(change)
    base = spread["median"]
    delta = (head - base) / base if base else 0.0
    lower = sum(c < p for p, c in zip(parent, change))
    return base, spread["iqr"], head, delta, lower, delta > bound


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


def _seeds(text):
    """The seeds "A-B" names, A to B, or "A" alone."""
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        seeds = []
    if not seeds or seeds[0] < 0:
        raise argparse.ArgumentTypeError(f"not a seed range: {text!r}")
    return seeds


def main(argv=None):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    command = commands.add_parser("write", help="every workload at each seed, to BENCH_N.json")
    command.add_argument("number", type=int, help="the N of BENCH_N.json")
    command.add_argument("--seeds", type=_seeds, default=list(range(1, 11)))
    command.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    command = commands.add_parser("compare", help="alternated pairs of REV and the working tree")
    command.add_argument("rev", help="git revision to compare the working tree with")
    command.add_argument("--pairs", type=int, default=10)
    command.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    command.add_argument("--workloads", nargs="+", choices=names, default=names)
    args = parser.parse_args(argv)
    if args.command == "write":
        if args.number < 0 or args.seconds <= 0:
            parser.error("N must be nonnegative and --seconds positive")
        try:
            print(write(args.number, args.seeds, args.seconds, names, benchmark["end_to_end"]))
        except StepError as err:
            print(f"bench: {err}", file=sys.stderr)
            return 2
        return 0
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
