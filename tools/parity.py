"""Check that the working tree computes the same numbers as a git revision.

    python tools/parity.py REV

exports REV with `git archive` into a temporary directory, then, in that
tree and in the working tree, runs one fixed set of probes in a subprocess
with one BLAS thread and the tree's `src` on the path.  The probes cover
all five variants at the benchmark's hidden 32 and at `tiny_model_case`
size: every leaf of `init_params`, so a change in draw order or shape is
named by its own block, `batch_gradients` at 1 and 4 windows, the untaped
per-window MSEs of 15 windows, `predict` with attention, a 2-epoch `train`
at batch size 2 over 6 training and 3 validation windows (each epoch's
losses, the best epoch and every returned parameter leaf), and, at tiny
size only, `model_gradient_report` (its max and each parameter's relative
error) at seed 9 and h = 1e-4, where every variant's head is live, and at
seed 8 and tolerance 1e-4: at h = 1e-5 as the `gate` blocks, and for ANLF
at h = 1e-4 as the `gate-h1e-4` blocks, the gate `loadcast verify` ships;
the gate evaluates its probes as lanes of untaped lane passes, so these
blocks hold the lane pass to the losses of a revision that ran its
probes another way.  At both sizes, taped `bilstm_sequence` and
`lstm_sequence` runs over 4 windows of known inputs add their outputs and
the gradients of every operand, the inputs included, which no model
variant differentiates; one-window untaped runs of each sequence op add
their states, terminal states and sweep weights, so that a difference on
the path `predict` takes is named by its op: `bilstm_sequence` over
ANLF's feature sweep and then its temporal sweep, and `bilstm_sequence`
and `lstm_sequence` over known inputs; and a taped
`lstm_cell_step` at the encoder cell's shape adds its h and c and the
gradients of its weights, both biases, x, h_prev and c_prev.  Each result
of `verify.run_all_checks()` adds its pass flag and the numbers of its
detail line, as `loadcast verify` prints them, so a change to what verify
prints is named by its check.  Once every probe has run, the untaped
one-window ops run again as `.../warm` blocks, over the shape plans the
probes left behind, so that a plan that does not fit a later op of its
shape is named by that op.  Each block prints as
bitwise or with its largest difference relative to the block's largest
magnitude; the exit status is 1 on any difference, 2 with one line on
stderr when REV cannot be archived or a probe run fails, else 0.

The probes call the package through names both trees must have, so REV is
meant to be the parent of a change that keeps them.
"""

import argparse
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from datetime import datetime
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIZES = ("hidden32", "tiny")
# A number in a verify detail line, not the 1 of "|sum-1|".
NUMBER = re.compile(r"(?<![\w|-])[-+]?\d+(?:\.\d*)?(?:e[-+]?\d+)?")

# The probe functions import the package themselves: they run in a
# subprocess whose path holds the tree under test, and the comparing
# process never imports it.


def _config(variant, size):
    from loadcast import data, model, verify

    if size == "tiny":
        return verify.tiny_model_case(variant, seed=9)[0]
    return model.ModelConfig(days=7, day_len=24, n_features=data.FEATURE_WIDTH,
                             hidden_size=32, feature_attn_size=16, temporal_attn_size=16,
                             head_size=32, variant=variant, seed=1)


def _windows(config, count, seed):
    """`count` windows of standard normal draws that fit `config`."""
    from loadcast.data import WindowSample

    rng = np.random.default_rng(seed)
    rows = (config.history_len, config.n_features), (config.horizon, config.n_features)
    return [WindowSample(x_hist=rng.normal(size=rows[0]), y_hist=rng.normal(size=rows[0][0]),
                         x_future=rng.normal(size=rows[1]), y_future=rng.normal(size=rows[1][0]),
                         start=datetime(2022, 1, 10)) for _ in range(count)]


def _sequence_blocks(size):
    """Taped `bilstm_sequence` and `lstm_sequence` runs over 4 windows of
    known inputs, the EDBiLSTM encoder's shape at `size`: the flat outputs
    (states, then each terminal h and c) and the gradient of every operand
    for a random weighting of them, keyed `sequence/size/op/part`."""
    from loadcast import lstm, params, tensor

    config = _config("EDBiLSTM", size)
    rng = np.random.default_rng(11)
    hidden, width, steps = config.hidden_size, config.n_features + 1, config.history_len
    blocks = {}
    for name, cells, run, directions in (
            ("bilstm", lstm.BiLstmParams, lstm.bilstm_sequence, 2),
            ("lstm", lstm.LstmParams, lstm.lstm_sequence, 1)):
        tape = tensor.Tape()
        cell = params.bind(cells.random(rng, width, hidden, bound=0.5), tape)
        inputs = tape.leaf(rng.normal(size=(steps, width, 4)))
        starts = [tape.leaf(a) for a in rng.normal(size=(2 * directions, hidden, 4))]
        states, terminals = run(cell, inputs, *(lstm.LstmState(*starts[k:k + 2])
                                                for k in range(0, 2 * directions, 2)))
        parts = [states] + [part for terminal in (terminals if directions == 2 else (terminals,))
                            for part in (terminal.h, terminal.c)]
        flat = tensor.concat([tensor.reshape(part, (part.values.size,)) for part in parts])
        weighting = tensor.Tensor(rng.normal(size=flat.values.size))
        tape.backward(tensor.total(tensor.hadamard(flat, weighting)))
        key = f"sequence/{size}/{name}"
        blocks[f"{key}/outputs"] = flat.values
        blocks.update((f"{key}/grad/{leaf_name}", tape.grad(leaf))
                      for leaf_name, leaf in params.named_leaves(cell))
        blocks[f"{key}/grad/inputs"] = tape.grad(inputs)
        blocks.update((f"{key}/grad/start{k}", tape.grad(leaf)) for k, leaf in enumerate(starts))
    return blocks


def _untaped_blocks(size):
    """One-window untaped sequence ops at `size`, each on its own: ANLF's
    `bilstm_sequence` over its encoder's `FeatureSweep` and then over its
    decoder's `TemporalSweep` (over that encoding's backward h_T and
    states), with the model's own cells, and `bilstm_sequence` and
    `lstm_sequence` over known inputs at the EDBiLSTM encoder cell's shape:
    the states, each terminal h and c, and a sweep's weights, keyed
    `untaped/size/op/part`."""
    from loadcast import attention, lstm, model

    config = _config("ANLF", size)
    params = model.init_params(config)
    windows = model.StackedWindows.stack(config, _windows(config, 1, seed=19))
    zero = lstm.zero_state(config.hidden_size, 1)
    feature = attention.FeatureSweep(params.feature_attn, windows.hist_features,
                                     windows.hist_targets)
    states, terminals = lstm.bilstm_sequence(params.encoder, feature, zero, zero)
    temporal = attention.TemporalSweep(params.temporal_attn, terminals[1].h,
                                       windows.future_features, windows.day_grid, states)
    runs = {"feature_sweep": (states, terminals, feature.weights),
            "temporal_sweep": lstm.bilstm_sequence(params.decoder, temporal, *terminals)
            + (temporal.weights,)}
    rng = np.random.default_rng(23)
    hidden, width, steps = config.hidden_size, config.n_features + 1, config.history_len
    inputs = rng.normal(size=(steps, width, 1))
    starts = [lstm.LstmState(*rng.normal(size=(2, hidden, 1))) for _ in range(2)]
    runs["bilstm_known"] = lstm.bilstm_sequence(
        lstm.BiLstmParams.random(rng, width, hidden, bound=0.5), inputs, *starts) + (None,)
    states, terminal = lstm.lstm_sequence(lstm.LstmParams.random(rng, width, hidden, bound=0.5),
                                          inputs, starts[0])
    runs["lstm_known"] = (states, (terminal,), None)
    blocks = {}
    for name, (states, terminals, weights) in runs.items():
        key = f"untaped/{size}/{name}"
        blocks[f"{key}/states"] = states.values
        for k, terminal in enumerate(terminals):
            blocks[f"{key}/terminal{k}/h"] = terminal.h.values
            blocks[f"{key}/terminal{k}/c"] = terminal.c.values
        if weights is not None:
            blocks[f"{key}/weights"] = weights
    return blocks


def _cell_blocks(size):
    """A taped `lstm_cell_step` at the EDBiLSTM encoder cell's shape at
    `size`: h, c and the gradients of the weights, both biases, x, h_prev
    and c_prev for a random weighting of [h; c], keyed `cell/size/part`."""
    from loadcast import lstm, params, tensor

    config = _config("EDBiLSTM", size)
    rng = np.random.default_rng(13)
    hidden, width = config.hidden_size, config.n_features + 1
    tape = tensor.Tape()
    cell = params.bind(lstm.LstmParams.random(rng, width, hidden, bound=0.5), tape)
    inputs = {name: tape.leaf(rng.normal(size=n))
              for name, n in (("x", width), ("h_prev", hidden), ("c_prev", hidden))}
    out = lstm.lstm_cell_step(cell, lstm.LstmState(inputs["h_prev"], inputs["c_prev"]),
                              inputs["x"])
    weighting = tensor.Tensor(rng.normal(size=2 * hidden))
    tape.backward(tensor.total(tensor.hadamard(tensor.concat([out.h, out.c]), weighting)))
    key = f"cell/{size}"
    blocks = {f"{key}/h": out.h.values, f"{key}/c": out.c.values}
    for name, leaf in list(params.named_leaves(cell)) + list(inputs.items()):
        blocks[f"{key}/grad/{name}"] = tape.grad(leaf)
    return blocks


def _train_blocks(config, key):
    """`training.train` for 2 epochs at batch size 2 over 6 training and 3
    validation windows: each epoch's train and validation loss, the best
    epoch and every returned parameter leaf, keyed `key/train/part`."""
    from loadcast import params, training

    samples = _windows(config, 9, seed=17)
    result = training.train(config, samples[:6], samples[6:],
                            training.TrainConfig(batch_size=2, epochs=2))
    blocks = {f"{key}/train/epoch{record.epoch}": np.array([record.train_mse, record.val_mse])
              for record in result.log}
    blocks[f"{key}/train/best_epoch"] = np.array(result.best_epoch)
    blocks.update((f"{key}/train/params/{name}", leaf)
                  for name, leaf in params.named_leaves(result.params))
    return blocks


def probe():
    """Every probe's arrays, keyed `variant/size/probe[/part]`,
    `sequence/size/op/part`, `untaped/size/op/part[/warm]`, `cell/size/part`
    and `verify/k/part`."""
    from loadcast import model, training, verify
    from loadcast.params import named_leaves

    blocks = {}
    for variant in model.VARIANTS:
        for size in SIZES:
            config = _config(variant, size)
            params = model.init_params(config)
            samples = _windows(config, 15, seed=7)
            key = f"{variant}/{size}"
            blocks.update((f"{key}/init/{name}", leaf) for name, leaf in named_leaves(params))
            for count in (1, 4):
                grads = training.batch_gradients(params, config, samples[:count])
                blocks.update((f"{key}/grad{count}/{name}", g) for name, g in grads.items())
            blocks[f"{key}/mses15"] = np.array(training._window_mses(params, config, samples))
            for k, sample in enumerate(samples[:2]):
                forecast = model.predict(params, config, sample, collect_attention=True)
                for field in ("values", "feature_weights", "hour_weights", "day_weights"):
                    if getattr(forecast, field) is not None:
                        blocks[f"{key}/predict{k}/{field}"] = getattr(forecast, field)
            blocks.update(_train_blocks(config, key))
            if size == "tiny":
                # Seed 9 at h = 1e-4 keeps every variant's head live; ANLF at
                # seed 8, h = 1e-4 and tolerance 1e-4 is the check `loadcast
                # verify` runs.
                probes = [("gradcheck", 9, 1e-4), ("gate", 8, 1e-5)]
                if variant == "ANLF":
                    probes.append(("gate-h1e-4", 8, 1e-4))
                for probe_name, seed, h in probes:
                    report = verify.model_gradient_report(
                        *verify.tiny_model_case(variant, seed=seed), h=h, tolerance=1e-4)
                    blocks[f"{key}/{probe_name}/max"] = np.array(report.max_rel_error)
                    blocks.update((f"{key}/{probe_name}/{name}", np.array(err))
                                  for name, err in report.per_param.items())
    for size in SIZES:
        blocks.update(_sequence_blocks(size))
        blocks.update(_untaped_blocks(size))
        blocks.update(_cell_blocks(size))
    for k, result in enumerate(verify.run_all_checks()):
        blocks[f"verify/{k}/passed"] = np.array(result.passed)
        blocks[f"verify/{k}/detail"] = np.array([float(n) for n in NUMBER.findall(result.detail)])
    for size in SIZES:
        blocks.update((f"{name}/warm", values) for name, values in _untaped_blocks(size).items())
    return blocks


def compare(base, head):
    """One (name, verdict) per block of either dump, in order, and whether
    every block is bitwise; a verdict is "bitwise", the largest difference
    relative to the block's largest magnitude, or why they do not compare."""
    rows, same = [], True
    for name in list(base) + [name for name in head if name not in base]:
        if name not in base or name not in head:
            verdict = f"only in {'head' if name in head else 'base'}"
        else:
            a, b = np.asarray(base[name]), np.asarray(head[name])
            if a.shape != b.shape or a.dtype != b.dtype:
                verdict = f"{a.dtype}{list(a.shape)} vs {b.dtype}{list(b.shape)}"
            elif a.tobytes() == b.tobytes():
                rows.append((name, "bitwise"))
                continue
            else:
                scale = max(float(np.max(np.abs(a), initial=0.0)), np.finfo(float).tiny)
                verdict = f"max rel diff {float(np.max(np.abs(a - b))) / scale:.3e}"
        rows.append((name, verdict))
        same = False
    return rows, same


class StepError(Exception):
    """A step of the comparison that could not run, as one line."""


def _step(args, what, **kwargs):
    """Run the command `args`; if it fails, raise `StepError` with `what`
    and the last line it wrote to stderr, which otherwise passes through."""
    try:
        done = subprocess.run(args, stderr=subprocess.PIPE, text=True, **kwargs)
    except OSError as err:
        raise StepError(f"{what}: {err}") from None
    if done.returncode:
        lines = done.stderr.strip().splitlines() or [f"exit status {done.returncode}"]
        raise StepError(f"{what}: {lines[-1]}")
    sys.stderr.write(done.stderr)


def _export(rev, tree):
    """Write the files of the git revision `rev` into the new directory
    `tree`."""
    archive = tree.with_name(tree.name + ".tar")
    _step(["git", "archive", f"--output={archive}", rev], f"cannot archive {rev}", cwd=ROOT)
    with tarfile.open(archive) as tar:
        tar.extractall(tree, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _dump(tree, path):
    """Run the probes of this file against `tree`'s package into `path`."""
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), **dict.fromkeys(threads, "1"))
    _step([sys.executable, str(Path(__file__).resolve()), "--dump", str(path)],
          f"the probes failed in {tree}", cwd=tree, env=env)
    with np.load(path) as dump:
        return dict(dump)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", help="git revision to compare the working tree with")
    parser.add_argument("--dump", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump:
        np.savez(args.dump, **probe())
        return 0
    if args.rev is None:
        parser.error("a revision is required")
    try:
        with tempfile.TemporaryDirectory() as scratch:
            tree = Path(scratch) / "tree"
            _export(args.rev, tree)
            base = _dump(tree, Path(scratch) / "base.npz")
            head = _dump(ROOT, Path(scratch) / "head.npz")
    except StepError as err:
        print(f"parity: {err}", file=sys.stderr)
        return 2
    rows, same = compare(base, head)
    for name, verdict in rows:
        print(f"{name}: {verdict}")
    bitwise = sum(verdict == "bitwise" for _name, verdict in rows)
    print(f"{bitwise} of {len(rows)} blocks bitwise against {args.rev}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
