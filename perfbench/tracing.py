"""Operation clock and span tracer, both installed from outside the package.

`Ops` times the workload's operations (a training batch, a forecast window
or a verify check) and counts attempts and failures.  It runs in every run;
untraced, it also times a calibration `Kernel` alongside, so that costs can
be expressed in kernel runs, which cancels most of the drift in a shared
machine's speed between runs.

`Tracer` runs only with `--trace 1`.  It replaces public `loadcast` functions
at the module attributes their callers look them up by, and records one span
per call: name, start, end, parent span, operation id and the number of tape
nodes recorded during the call.  Spans stay in memory until the run ends.
Every replaced attribute is put back by `restore`.
"""

import gc
import time

import numpy as np

import reference


class Kernel:
    """A fixed computation that shares no code with `loadcast`.

    It is the benchmark's own numpy ANLF forward pass over one fixed window,
    so its working set and its mix of small numpy calls and Python loops
    match what the package spends its time on.  Its duration tracks the
    machine's speed at the moment it runs.
    """

    def __init__(self):
        self.params = reference.draw_parameters(2**32 - 1)
        rng = np.random.default_rng(20210826)
        self.window = (rng.normal(0.0, 1.0, (reference.DAYS * reference.DAY_LEN,
                                             reference.N_FEATURES)),
                       rng.normal(0.0, 1.0, reference.DAYS * reference.DAY_LEN),
                       rng.normal(0.0, 1.0, (reference.DAY_LEN, reference.N_FEATURES)))

    def time(self):
        """Seconds for one forward pass, with the collector held off so
        that the program's live objects do not enter the kernel's time."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            reference.anlf_forecast(self.params, *self.window)
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()


class Ops:
    """Latency, attempt and failure counts for one workload's operations.

    With a kernel, `sample` times it at most every `interval` seconds,
    inside operations and between them; kernel time spent inside an
    operation is left out of its latency.  Costs are then means divided by
    the mean kernel time: the machine switches between fast and slow phases
    within a second, and both means integrate over the same phases.
    """

    interval = 0.25

    def __init__(self, tracer=None, kernel=None):
        self.latencies = []
        self.kernel_times = []
        self.attempted = 0
        self.failed = 0
        self._tracer = tracer
        self._kernel = kernel
        self._started = None
        self._excluded = 0.0
        self._last_sample = -self.interval

    def begin(self):
        self.attempted += 1
        if self._tracer is not None:
            self._tracer.op = self.attempted - 1
        self._excluded = 0.0
        self._started = time.perf_counter()

    def sample(self):
        """Time the kernel if a sample is due."""
        if (self._kernel is None
                or time.perf_counter() - self._last_sample < self.interval):
            return
        spent = self._kernel.time()
        self.kernel_times.append(spent)
        if self._started is not None:
            self._excluded += spent
        self._last_sample = time.perf_counter()

    def end(self, ok=True):
        self.latencies.append(time.perf_counter() - self._started - self._excluded)
        self._started = None
        if not ok:
            self.failed += 1
        if self._tracer is not None:
            self._tracer.op = -1
        self.sample()


def sampled(fn, ops):
    """Wrap a frequently called function so long operations get samples."""
    def call(*args, **kwargs):
        out = fn(*args, **kwargs)
        ops.sample()
        return out
    return call


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# (module, attribute, span name): every place a caller looks a traced
# function up.  `model.py` imports by name, so both `loadcast.model` and
# `loadcast.lstm` are patched for the cell and the sequence runners.
SPAN_SITES = (
    ("model", "forward", "model.forward"),
    ("model", "encode", "model.encode"),
    ("model", "decode", "model.decode"),
    ("model", "bind_constants", "params.bind"),
    ("model", "lstm_cell_step", "lstm.cell"),
    ("model", "lstm_sequence", "lstm.sequence"),
    ("model", "bilstm_sequence", "lstm.sequence"),
    ("model", "feedforward_relu", "lstm.head"),
    ("model", "feature_attention", "attention.feature"),
    ("model", "temporal_attention", "attention.temporal"),
    ("model", "context_vector", "attention.context"),
    ("model", "similar_day_weights", "attention.similar_day"),
    ("lstm", "lstm_cell_step", "lstm.cell"),
    ("lstm", "lstm_sequence", "lstm.sequence"),
    ("training", "forward", "model.forward"),
    ("training", "bind", "params.bind"),
    ("training", "bind_constants", "params.bind"),
    ("training", "batch_gradients", "training.batch_gradients"),
    ("training", "adam_step", "training.adam"),
    ("training", "clip_global_norm", "training.clip"),
    ("training", "mean_mse", "training.eval"),
    ("training", "compute_metrics", "metrics.compute"),
    ("verify", "forward", "model.forward"),
    ("verify", "model_gradient_report", "verify.model_gradients"),
    ("verify", "scalar_lstm_step", "verify.oracle"),
    ("verify", "compute_metrics", "metrics.compute"),
    ("verify", "check_gradients", "tensor.check_gradients"),
)


class Tracer:
    """In-memory spans around the package's public functions."""

    def __init__(self):
        # Each span is [name, start, end, parent index, op id, tape nodes].
        self.spans = []
        self.op = -1
        self.tape = None
        self.backward_lengths = []
        self.grad_norms = []
        self.clip_norm = None
        self.nonzero_grads = {}
        self.gc_pause = 0.0
        self.gc_collections = 0
        self._stack = []
        self._gc_started = None
        self._patches = Patches()

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(record)
            tape = self.tape
            before = len(tape) if tape is not None else 0
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if tape is not None and tape is self.tape:
                    record[5] = len(tape) - before
        return traced

    def install(self, modules):
        """Patch every span site, the tape class and the collector."""
        for module, attr, name in SPAN_SITES:
            self._patches.replace(modules[module], attr,
                                  lambda fn, name=name: self._span(name, fn))
        self._patches.replace(modules["training"], "clip_global_norm", self._clip_hook)
        self._patches.replace(modules["training"], "adam_step", self._adam_hook)
        tape_cls = modules["tensor"].Tape
        self._patches.replace(tape_cls, "leaf", self._leaf_hook)
        self._patches.replace(tape_cls, "backward", self._backward_hook)
        gc.callbacks.append(self._on_gc)

    def restore(self):
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        self._patches.restore()

    def _leaf_hook(self, leaf):
        def watched(tape, values):
            self.tape = tape
            return leaf(tape, values)
        return watched

    def _backward_hook(self, backward):
        traced = self._span("tensor.backward", backward)

        def sweep(tape, loss):
            self.backward_lengths.append(len(tape))
            return traced(tape, loss)
        return sweep

    def _clip_hook(self, clip):
        def observed(grads, max_norm):
            norm = clip(grads, max_norm)
            self.grad_norms.append(norm)
            self.clip_norm = max_norm
            return norm
        return observed

    def _adam_hook(self, adam_step):
        def observed(params, grads, state, config):
            for name, g in grads.items():
                seen = self.nonzero_grads.get(name)
                nonzero = g != 0.0
                self.nonzero_grads[name] = nonzero if seen is None else seen | nonzero
            return adam_step(params, grads, state, config)
        return observed

    def _on_gc(self, phase, _info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pause += time.perf_counter() - self._gc_started
            self.gc_collections += 1
            self._gc_started = None

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per span name: calls, inclusive and self seconds, tape nodes.

        Self time is a span's duration minus the durations of its direct
        children.  Also returns the forward passes, the taped ones among
        them, and the forward passes made inside the full-model gradient
        check.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _nodes in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table = {}
        forwards = taped = checked = 0
        for index, (name, start, end, parent, _op, nodes) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "inclusive": 0.0,
                                          "self": 0.0, "nodes": 0})
            row["calls"] += 1
            row["inclusive"] += end - start
            row["self"] += end - start - child_time[index]
            row["nodes"] += nodes
            if name == "model.forward":
                forwards += 1
                taped += nodes > 0
                if self._inside(parent, "verify.model_gradients"):
                    checked += 1
        return table, forwards, taped, checked

    def _inside(self, parent, name):
        while parent >= 0:
            span = self.spans[parent]
            if span[0] == name:
                return True
            parent = span[3]
        return False

    def zero_grad_share(self):
        if not self.nonzero_grads:
            return 0.0
        scalars = sum(mask.size for mask in self.nonzero_grads.values())
        zero = sum(int(mask.size - np.count_nonzero(mask))
                   for mask in self.nonzero_grads.values())
        return zero / scalars

    def dump(self):
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        return {"names": names,
                "columns": ["name", "start", "end", "parent", "op", "nodes"],
                "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]]
                          for s in self.spans]}
