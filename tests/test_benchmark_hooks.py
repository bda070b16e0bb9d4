"""The benchmark under `perfbench/` times the package by replacing module
attributes; every attribute it replaces must exist, or its traced and
sampled runs fail.  Its forecast workload serves a version-1 checkpoint it
writes itself and checks every forecast against its own numpy forward.
This checks both without running the benchmark."""

import ast
import importlib
import importlib.util
import json
from datetime import datetime
from pathlib import Path

import numpy as np

from loadcast.checkpoint import load_checkpoint
from loadcast.data import WindowSample
from loadcast.model import predict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# The attributes `perfbench/run.py` wraps so that long operations get kernel
# samples.  Copied rather than imported: importing run.py pins the BLAS
# thread count of the whole process.
SAMPLED_SITES = (("model", "forward"), ("training", "forward"), ("verify", "forward"),
                 ("lstm", "lstm_cell_step"))

# The other attributes the tracer and the training workload replace.
PATCHED_SITES = (("training", "clip_global_norm"), ("training", "adam_step"),
                 ("training", "batch_gradients"), ("tensor", "Tape"))


def span_sites():
    """`SPAN_SITES` of perfbench/tracing.py, read from its source."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SPAN_SITES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no SPAN_SITES")


def test_every_hook_site_resolves():
    sites = [(module, attr) for module, attr, _span in span_sites()]
    assert len(sites) > 20
    missing = [f"loadcast.{module}.{attr}"
               for module, attr in sites + list(SAMPLED_SITES) + list(PATCHED_SITES)
               if not callable(getattr(importlib.import_module(f"loadcast.{module}"), attr, None))]
    assert not missing, f"perfbench hook sites missing from the package: {missing}"


def test_tape_methods_the_tracer_wraps_exist():
    from loadcast.tensor import Tape
    assert callable(Tape.leaf) and callable(Tape.backward)


def test_benchmark_checkpoint_loads_and_serves_its_reference(tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_reference",
                                                  PERFBENCH / "reference.py")
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    params = reference.draw_parameters(3)
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(reference.checkpoint_document(3, params)) + "\n")
    ck = load_checkpoint(path)
    config = ck.config
    rng = np.random.default_rng(4)
    for _ in range(3):
        x_hist = rng.normal(size=(config.history_len, config.n_features))
        y_hist = rng.normal(size=config.history_len)
        x_future = rng.normal(size=(config.horizon, config.n_features))
        sample = WindowSample(
            x_hist=x_hist, y_hist=y_hist, x_future=x_future,
            y_future=np.zeros(config.horizon), start=datetime(2022, 1, 5))
        served = predict(ck.params, config, sample).values
        expect = reference.anlf_forecast(params, x_hist, y_hist, x_future)
        assert float(np.max(np.abs(served - expect))) <= 1e-9
