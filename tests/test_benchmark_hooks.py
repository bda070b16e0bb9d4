"""The benchmark under `perfbench/` times the package by replacing module
attributes; every attribute it replaces must exist, or its traced and
sampled runs fail.  Its forecast workload serves a version-1 checkpoint it
writes itself and checks every forecast against its own numpy forward.
This checks both without running the benchmark, that no module imports a
name it never uses other than for the tracer to patch, and that every name
a module defines is read somewhere."""

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
SOURCES = PERFBENCH.parent / "src" / "loadcast"

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


def unused_imports(path):
    """Names that `path` binds by an import statement and never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_does_not_use():
    # `model.py` imports some names only so that the tracer can patch them
    # there; once a span site goes, its import shows up here as unused.
    patched = {attr for module, attr, _span in span_sites() if module == "model"}
    found = {}
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path) - (patched if path.name == "model.py" else set())
        if unused:
            found[path.name] = sorted(unused)
    assert not found, f"unused imports: {found}"


def defined_names(path):
    """Names the body of `path` defines: functions, classes and assignments."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return names


def read_names(path):
    """Names `path` reads, as a name or as an attribute."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    return ({node.id for node in nodes if isinstance(node, ast.Name)
             and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)})


def test_every_module_level_name_is_read():
    # A name that only `__init__.py` re-exports is one nothing reaches: not
    # the package, its tests, the demos or the benchmark.
    read = set()
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in (SOURCES.parent.parent / folder).rglob("*.py"):
            if path != SOURCES / "__init__.py":
                read |= read_names(path)
    unread = {path.name: sorted(defined_names(path) - read)
              for path in sorted(SOURCES.glob("*.py")) if path.name != "__init__.py"}
    unread = {name: names for name, names in unread.items() if names}
    assert not unread, f"defined but never read: {unread}"


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
