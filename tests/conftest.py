"""Fixtures shared across test modules."""

import functools
from types import SimpleNamespace

import pytest

from loadcast import attention, lstm, model, verify


@pytest.fixture(scope="session")
def seed8_gate():
    """One unmutated `verify.run_all_checks()`, whose full-model check is
    the ANLF `tiny_model_case` seed-8 gradient gate, with what that gate
    did: `check` is its `CheckResult`, `forward` its calls of
    `verify.forward`, `encode` and `decode` its encoder and decoder runs
    (through `model.encode` or `verify.encode`, and `model.decode` or
    `verify.decode`), `similar_day_weights` its calls of
    `model.similar_day_weights`, and `feature_sweep_runs` and
    `temporal_sweep_runs` its `lstm._run` calls over a `FeatureSweep` and
    over a `TemporalSweep`.  For tests that only read these; a test that
    patches a rule runs its own gate."""
    counts = {"forward": 0, "encode": 0, "decode": 0, "similar_day_weights": 0,
              "feature_sweep_runs": 0, "temporal_sweep_runs": 0}
    checks, inside = [], []

    def counted(name, fn):
        def call(*args, **kwargs):
            if inside:
                counts[name] += 1
            return fn(*args, **kwargs)
        return call

    run = lstm._run

    def counted_run(w, bias, z, c0, gates, sweep=None, history=True):
        if inside and sweep is not None:
            name = ("feature_sweep_runs" if isinstance(sweep, attention.FeatureSweep)
                    else "temporal_sweep_runs")
            counts[name] += 1
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

    encode = counted("encode", model.encode)
    decode = counted("decode", model.decode)
    with pytest.MonkeyPatch.context() as patches:
        patches.setattr(verify, "forward", counted("forward", verify.forward))
        patches.setattr(model, "encode", encode)
        patches.setattr(verify, "encode", encode)
        patches.setattr(model, "decode", decode)
        patches.setattr(verify, "decode", decode)
        patches.setattr(model, "similar_day_weights",
                        counted("similar_day_weights", model.similar_day_weights))
        patches.setattr(lstm, "_run", counted_run)
        patches.setattr(verify, "_check_model_gradients", counted_gate)
        results = verify.run_all_checks()
    assert len(checks) == 1 and checks[0] in results
    return SimpleNamespace(results=results, check=checks[0], **counts)
