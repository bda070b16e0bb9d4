"""`tools/bench.py write` and `compare`, driven with a fake
`perfbench/run.py` in each exported tree: the file `write` writes, the
medians and IQRs, `compare`'s alternating order, and the exit statuses.
No real benchmark runs."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"

# A `perfbench/run.py` that logs its tree and arguments to `order.log`
# beside the trees, then prints the result line its tree's `readings.json`
# gives for its seed.
FAKE_RUN = '''\
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
tree = Path.cwd()
with open(tree.parent / "order.log", "a") as log:
    log.write(" ".join([tree.name] + [args[k] for k in ("--workload", "--seed", "--seconds",
                                                        "--trace")]) + "\\n")
reading = json.loads((tree / "readings.json").read_text())[args["--seed"]]
if reading == "crash":
    sys.exit("run.py: crashed")
print("a line before the result")
print(json.dumps(reading))
'''


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(peak, cost=1.5, setup=0.2, correct=True, failed=0):
    metrics = {"setup_s": setup, "run_cost_per_op": cost, "peak_rss_mb": peak}
    return {"correct": correct, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()}}


def fake_trees(bench, monkeypatch, readings):
    """Export each tree as a fake `run.py` beside the readings of
    `readings[tree]`, a list with one reading per seed from 1."""

    def export(rev, tree):
        name = "parent" if rev == "REV" else "change"
        assert tree.name == name and (rev == "REV" or rev == "SNAPSHOT")
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(FAKE_RUN)
        (tree / "readings.json").write_text(json.dumps(
            {str(seed): reading for seed, reading in enumerate(readings[name], 1)}))

    monkeypatch.setattr(bench.parity, "_export", export)
    monkeypatch.setattr(bench, "_snapshot", lambda: "SNAPSHOT")


class _Kept:
    """A `TemporaryDirectory` stand-in that hands out a kept directory."""

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        return str(self.path)

    def __exit__(self, *exc):
        return False


def test_medians_iqr_and_alternating_order(bench, monkeypatch, capsys, tmp_path):
    parent = [result(p) for p in (42.0, 42.2, 42.1, 42.4)]
    change = [result(c, cost=1.4) for c in (41.0, 41.4, 42.3, 41.2)]
    fake_trees(bench, monkeypatch, {"parent": parent, "change": change})
    monkeypatch.setattr(bench.tempfile, "TemporaryDirectory", lambda: _Kept(tmp_path))
    assert bench.main(["compare", "REV", "--pairs", "4", "--seconds", "3",
                       "--workloads", "verify"]) == 0
    out, err = capsys.readouterr()
    # Pair k runs both trees at seed k, `--trace 0`, the first tree
    # alternating; each run's metrics go to stderr as it ends.
    assert (tmp_path / "order.log").read_text().splitlines() == [
        "parent verify 1 3.0 0", "change verify 1 3.0 0", "change verify 2 3.0 0",
        "parent verify 2 3.0 0", "parent verify 3 3.0 0", "change verify 3 3.0 0",
        "change verify 4 3.0 0", "parent verify 4 3.0 0"]
    assert err.splitlines()[:2] == [
        "verify pair 1 parent: setup_s 0.2, run_cost_per_op 1.5, peak_rss_mb 42",
        "verify pair 1 change: setup_s 0.2, run_cost_per_op 1.4, peak_rss_mb 41"]
    # Parent peak median 42.15 and IQR 42.25 - 42.075; change median 41.3,
    # lower in 3 of 4 pairs.
    assert out.splitlines() == [
        "verify (4 pairs, seeds 1-4, 3 s):",
        "  setup_s: parent 0.2 s (IQR 0), change 0.2 s (+0.00%), lower in 0 of 4",
        "  run_cost_per_op: parent 1.5 kernels (IQR 0), change 1.4 kernels (-6.67%), "
        "lower in 4 of 4",
        "  peak_rss_mb: parent 42.15 MB (IQR 0.175), change 41.3 MB (-2.02%), lower in 3 of 4"]


def test_a_median_beyond_its_bound_exits_1(bench, monkeypatch, capsys):
    # peak_rss_mb's bound is 10 %: 46.3 against 42.0 is +10.2 %.
    fake_trees(bench, monkeypatch, {"parent": [result(42.0)] * 2,
                                    "change": [result(46.3)] * 2})
    assert bench.main(["compare", "REV", "--pairs", "2", "--workloads", "verify"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == ("  peak_rss_mb: parent 42 MB (IQR 0), change 46.3 MB "
                                    "(+10.24%), lower in 0 of 2; beyond its 10% bound")


@pytest.mark.parametrize("reading, message", [
    ("crash", "verify at seed 2 in change: run.py: crashed"),
    (result(40.0, correct=False), "verify at seed 2 in change: incorrect result or failed "
                                  "operations (0 of 10 failed)"),
    (result(40.0, failed=3), "verify at seed 2 in change: incorrect result or failed "
                             "operations (3 of 10 failed)")])
def test_a_failed_or_incorrect_run_exits_2(bench, monkeypatch, capsys, reading, message):
    fake_trees(bench, monkeypatch, {"parent": [result(40.0)] * 2,
                                    "change": [result(40.0), reading]})
    assert bench.main(["compare", "REV", "--pairs", "2", "--workloads", "verify"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"bench: {message}"


def test_a_revision_that_cannot_be_archived_exits_2(bench, capsys):
    assert bench.main(["compare", "no-such-rev", "--pairs", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("bench: cannot archive no-such-rev: ")


def test_write_records_each_metric_of_each_workload(bench, monkeypatch, capsys, tmp_path):
    # The root the file goes to, with the benchmark's own BENCHMARK.json.
    root = tmp_path / "root"
    root.mkdir()
    shutil.copy(BENCH.parent.parent / "BENCHMARK.json", root)
    monkeypatch.setattr(bench, "ROOT", root)
    peaks = (42.0, 42.4, 41.8, 42.2, 50.0)
    fake_trees(bench, monkeypatch, {"change": [result(p, cost=1.0 + p / 100) for p in peaks]})
    monkeypatch.setattr(bench.tempfile, "TemporaryDirectory", lambda: _Kept(tmp_path))
    assert bench.main(["write", "7", "--seeds", "1-5", "--seconds", "2"]) == 0
    out, err = capsys.readouterr()
    path = root / "BENCH_7.json"
    assert out == f"{path}\n"
    assert err.splitlines()[0] == ("train-anlf seed 1: setup_s 0.2, run_cost_per_op 1.42, "
                                   "peak_rss_mb 42")
    # Every workload runs at each seed, `--trace 0`, in the exported tree.
    workloads = ["train-anlf", "train-edbilstm", "forecast-anlf", "verify"]
    assert (tmp_path / "order.log").read_text().splitlines() == [
        f"change {workload} {seed} 2.0 0" for workload in workloads for seed in range(1, 6)]
    doc = json.loads(path.read_text())
    assert doc.keys() == {"bench", "tree", "head", "seeds", "seconds", "workloads",
                          "environment", "lines"}
    assert (doc["bench"], doc["tree"], doc["seeds"], doc["seconds"]) == (
        7, "SNAPSHOT", [1, 2, 3, 4, 5], 2.0)
    assert doc["workloads"].keys() == set(workloads)
    # Peak median 42.2, quartiles 42.0 and 42.4, whatever the outlier.
    assert doc["workloads"]["verify"]["peak_rss_mb"] == {
        "median": 42.2, "iqr": pytest.approx(0.4), "values": list(peaks)}
    assert doc["workloads"]["forecast-anlf"]["setup_s"] == {
        "median": 0.2, "iqr": 0.0, "values": [0.2] * 5}
    assert {"python", "numpy", "blas_config", "blas_threads", "nproc"} <= doc["environment"].keys()
    assert doc["lines"] == {"src": 0, "tests": 0}


@pytest.mark.parametrize("reading", ["crash", result(40.0, correct=False),
                                     result(40.0, failed=1)],
                         ids=["crash", "incorrect", "failed-operation"])
def test_write_exits_2_and_writes_nothing_on_a_bad_run(bench, monkeypatch, capsys, tmp_path,
                                                       reading):
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    shutil.copy(BENCH.parent.parent / "BENCHMARK.json", tmp_path)
    fake_trees(bench, monkeypatch, {"change": [result(40.0), reading]})
    assert bench.main(["write", "7", "--seeds", "1-2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1].startswith("bench: train-anlf at seed 2 in change: ")
    assert not (tmp_path / "BENCH_7.json").exists()
