"""The benchmark under `perfbench/` times the package by replacing module
attributes; every attribute it replaces must exist, or its traced and
sampled runs fail.  Its forecast workload serves a version-1 checkpoint it
writes itself and checks every forecast against its own numpy forward.
This checks both without running the benchmark, that no module imports a
name it never uses other than for the tracer to patch, that every name a
module defines, its classes' methods and properties included, is read
somewhere, that every dataclass field and `__slots__` entry is read as an
attribute somewhere, and that some call sets every defaulted parameter of a
module-level function."""

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
    """Names the body of `path` defines: functions, classes and assignments,
    and the methods and properties of its classes but for dunder methods,
    which Python calls itself."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(member.name for member in node.body
                             if isinstance(member, ast.FunctionDef)
                             and not (member.name.startswith("__")
                                      and member.name.endswith("__")))
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


def class_fields(path):
    """(class, field) of every field of a dataclass of `path` and every
    `__slots__` entry of a class of `path`."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass = any((decorator.func if isinstance(decorator, ast.Call) else decorator).id
                        == "dataclass" for decorator in node.decorator_list)
        for member in node.body:
            if dataclass and isinstance(member, ast.AnnAssign):
                found.append((node.name, member.target.id))
            elif isinstance(member, ast.Assign) and [
                    getattr(target, "id", None) for target in member.targets] == ["__slots__"]:
                found += [(node.name, name) for name in ast.literal_eval(member.value)]
    return found


def read_attributes(path):
    """Attribute names `path` reads."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def reading_sources():
    """The files whose reads count: the package but its `__init__.py`, the
    tests, the demos and the benchmark."""
    return [path for folder in ("src", "tests", "demos", "perfbench")
            for path in (SOURCES.parent.parent / folder).rglob("*.py")
            if path != SOURCES / "__init__.py"]


def test_every_module_level_name_is_read():
    # A name that only `__init__.py` re-exports is one nothing reaches: not
    # the package, its tests, the demos or the benchmark.  A method or
    # property counts as read when any of them reads an attribute of its
    # name.
    read = set()
    for path in reading_sources():
        read |= read_names(path)
    unread = {path.name: sorted(defined_names(path) - read)
              for path in sorted(SOURCES.glob("*.py")) if path.name != "__init__.py"}
    unread = {name: names for name, names in unread.items() if names}
    assert not unread, f"defined but never read: {unread}"


def test_every_class_field_is_read():
    # A field or slot that is only written is state nothing consults.  It
    # counts as read when any file reads an attribute of its name.
    read = set()
    for path in reading_sources():
        read |= read_attributes(path)
    unread = [f"{path.name}:{cls}.{field}" for path in sorted(SOURCES.glob("*.py"))
              for cls, field in class_fields(path) if field not in read]
    assert not unread, f"class fields never read as an attribute: {unread}"


def defaulted_parameters(path):
    """(function, parameter, position, default node) of every defaulted
    parameter of the module-level functions of `path`, position None for a
    keyword-only one."""
    found = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found += [(node.name, arg.arg, k, args.defaults[k - first])
                      for k, arg in enumerate(positional) if k >= first]
            found += [(node.name, arg.arg, None, default)
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
    return found


def calls_by_name(paths):
    """The calls in `paths` per callee name (a called name or attribute)."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def keeps_default(value, default):
    """Whether argument `value` is the literal `default` itself."""
    try:
        got, want = ast.literal_eval(value), ast.literal_eval(default)
    except ValueError:
        return False
    return type(got) is type(want) and got == want


def sets(call, parameter, position, default):
    """Whether `call` may pass `parameter` something other than its
    `default`: a `**` mapping or a starred argument at or before its
    position may, and so does any argument that is not the default."""
    if any(kw.arg is None for kw in call.keywords) or (position is not None and any(
            isinstance(arg, ast.Starred) for arg in call.args[:position + 1])):
        return True
    passed = [kw.value for kw in call.keywords if kw.arg == parameter]
    if position is not None and position < len(call.args):
        passed.append(call.args[position])
    return any(not keeps_default(value, default) for value in passed)


def test_every_defaulted_parameter_is_set_by_some_call():
    # A default no call overrides is a knob nothing turns: it belongs in
    # the body as a literal.  A call that passes the default's own value
    # turns nothing either.  Calls are matched by name alone, so a
    # same-named call elsewhere can hide a dead knob, never invent one.
    calls = calls_by_name(path for folder in ("src", "tests", "tools", "demos", "perfbench")
                          for path in (SOURCES.parent.parent / folder).rglob("*.py"))
    unset = [f"{path.name}:{function}({parameter})"
             for path in sorted(SOURCES.glob("*.py"))
             for function, parameter, position, default in defaulted_parameters(path)
             if not any(sets(call, parameter, position, default)
                        for call in calls.get(function, ()))]
    assert not unset, f"defaulted parameters no call sets: {unset}"


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
