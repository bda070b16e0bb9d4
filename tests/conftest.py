"""Fixtures shared across test modules."""

import functools
from types import SimpleNamespace

import pytest

from loadcast import attention, lstm, model, verify


@pytest.fixture(scope="session")
def seed8_gate():
    """One unmutated `verify.run_all_checks()`, whose full-model check is
    the ANLF `tiny_model_case` seed-8 gradient gate, with what that gate
    did: `check` is its `CheckResult`; `head`, `encode` and `decode` its
    calls of `model.feedforward_relu`, `model.encode` and `model.decode`
    (every pass runs all three), and `similar_day_weights` its calls of
    `model.similar_day_weights`; `feature_sweep_runs` and
    `temporal_sweep_runs` its `lstm._run` calls over a `FeatureSweep` and
    over a `TemporalSweep`.  `lanes` holds, per count but the similar-day
    one, the lanes those calls ran: 1 for a lone pass, L for a lane pass.
    For tests that only read these; a test that patches a rule runs its
    own gate."""
    counts = {"head": 0, "encode": 0, "decode": 0, "similar_day_weights": 0,
              "feature_sweep_runs": 0, "temporal_sweep_runs": 0}
    lanes = dict.fromkeys(counts, 0)
    checks, inside = [], []

    def count(name, width):
        if inside:
            counts[name] += 1
            lanes[name] += width

    def counted(name, fn, lanes_of=lambda *_args: ()):
        def call(*args, **kwargs):
            count(name, (lanes_of(*args) or (1,))[0])
            return fn(*args, **kwargs)
        return call

    run = lstm._run

    def counted_run(w, bias, z, c0, gates, sweep=None, history=True):
        if sweep is not None:
            # A swept run steps one direction, so its slots are its lanes.
            count("feature_sweep_runs" if isinstance(sweep, attention.FeatureSweep)
                  else "temporal_sweep_runs", z.shape[1])
        return run(w, bias, z, c0, gates, sweep, history)

    gate = verify._check_model_gradients

    @functools.wraps(gate)
    def counted_gate():
        inside.append(True)
        try:
            checks.append(gate())
        finally:
            inside.pop()
        return checks[-1]

    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(model, "feedforward_relu", counted(
            "head", model.feedforward_relu, lambda params, _states: params.hidden.shape[:-2]))
        patches.setattr(model, "encode", counted(
            "encode", model.encode, lambda params, *_args: model._lanes(params.encoder)))
        patches.setattr(model, "decode", counted(
            "decode", model.decode, lambda params, *_args: model._lanes(params.decoder)))
        patches.setattr(model, "similar_day_weights",
                        counted("similar_day_weights", model.similar_day_weights))
        patches.setattr(lstm, "_run", counted_run)
        patches.setattr(verify, "_check_model_gradients", counted_gate)
        results = verify.run_all_checks()
    assert len(checks) == 1 and checks[0] in results
    return SimpleNamespace(results=results, check=checks[0], lanes=SimpleNamespace(**lanes),
                           **counts)
