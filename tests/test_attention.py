"""Attention blocks against direct numpy and loop re-implementations."""

import re

import numpy as np
import numpy.testing as npt
import pytest

from loadcast.attention import (DISTANCE_EPSILON, AttentionParams,
                                FeatureSweep, RECIPROCAL_CAP, TemporalSweep,
                                context_vector, feature_attention,
                                similar_day_weights, temporal_attention)
from loadcast.errors import DimensionError, EvaluationError
from loadcast.lstm import BiLstmParams, LstmParams, LstmState, bilstm_sequence, lstm_cell_step
from loadcast.params import bind, map_leaves, named_leaves
from loadcast.tensor import (Tape, Tensor, check_gradients, concat, hadamard, reshape,
                             total)


def softmax(v):
    e = np.exp(v - v.max())
    return e / e.sum()


def make_feature_case(rng, n=5, state_width=4, attn=3):
    params = AttentionParams.random(rng, state_width + n + 1, n, attn, bound=0.9)
    state = Tensor(rng.normal(size=state_width))
    features = Tensor(rng.normal(size=n))
    return params, state, features, float(rng.normal())


def test_random_draws_proj_then_score():
    # The draw order decides which values each block gets, so a seed's
    # initial model depends on it.
    params = AttentionParams.random(np.random.default_rng(5), 6, 4, 3, bound=0.5)
    rng = np.random.default_rng(5)
    npt.assert_array_equal(params.proj, rng.uniform(-0.5, 0.5, (3, 6)))
    npt.assert_array_equal(params.score, rng.uniform(-0.5, 0.5, (4, 3)))


class TestFeatureAttention:
    def test_weights_sum_to_one_and_are_positive(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            params, state, features, target = make_feature_case(rng)
            weights, weighted = feature_attention(params, state, features, target)
            assert abs(weights.values.sum() - 1.0) <= 1e-12
            assert np.all(weights.values > 0.0)
            npt.assert_allclose(weighted.values,
                                weights.values * features.values, atol=1e-15)

    def test_zero_parameters_give_exactly_uniform_weights(self):
        params = AttentionParams.zeros(4 + 5 + 1, 5, 3)
        rng = np.random.default_rng(22)
        features = rng.normal(size=5)
        weights, weighted = feature_attention(params, Tensor(rng.normal(size=4)),
                                              Tensor(features), 1.5)
        npt.assert_array_equal(weights.values, np.full(5, 0.2))
        npt.assert_array_equal(weighted.values, 0.2 * features)

    def test_single_feature_gets_full_weight(self):
        params = AttentionParams.zeros(2 + 1 + 1, 1, 2)
        weights, _ = feature_attention(params, Tensor(np.zeros(2)),
                                       Tensor(np.array([3.0])), 0.0)
        npt.assert_array_equal(weights.values, [1.0])

    def test_matches_numpy_reimplementation(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            params, state, features, target = make_feature_case(rng)
            weights, weighted = feature_attention(params, state, features, target)
            conditioning = np.concatenate([state.values, features.values,
                                           [target]])
            scores = params.score @ np.tanh(params.proj @ conditioning)
            expect = softmax(scores)
            npt.assert_allclose(weights.values, expect, rtol=0, atol=1e-12)
            npt.assert_allclose(weighted.values, expect * features.values,
                                rtol=0, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(24)
        init, state, features, target = make_feature_case(rng, n=4,
                                                          state_width=3, attn=2)

        def program(leaves):
            params = AttentionParams(proj=leaves["proj"], score=leaves["score"])
            _, weighted = feature_attention(params, Tensor(state.values),
                                            Tensor(features.values), target)
            return total(weighted)

        report = check_gradients(program, {"proj": init.proj, "score": init.score},
                                 tolerance=1e-5)
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"


def window_axis(*arrays):
    """Per-window arrays as a one-window batch."""
    return tuple(a[..., np.newaxis] for a in arrays)


class TestSimilarDayWeights:
    def test_loop_oracle(self):
        rng = np.random.default_rng(25)
        days, day_len, n, windows = 4, 6, 3, 3
        blocks = rng.normal(size=(days, day_len, n, windows))
        target = rng.normal(size=(day_len, n, windows))
        result = similar_day_weights(blocks, target)
        assert result.shape == (days, windows)

        for k in range(windows):
            distances = []
            for day in range(days):
                dist = 0.0
                for feat in range(n):
                    ssq = 0.0
                    for hour in range(day_len):
                        diff = blocks[day, hour, feat, k] - target[hour, feat, k]
                        ssq += diff * diff
                    dist += ssq ** 0.5
                distances.append(dist)
            scores = [min(1.0 / (d + DISTANCE_EPSILON), RECIPROCAL_CAP)
                      for d in distances]
            npt.assert_allclose(result[:, k], softmax(np.array(scores)),
                                rtol=0, atol=1e-12)

    def test_batch_columns_equal_lone_windows(self):
        # Each window's sums run in the order of a lone window's, so a batch
        # column is bitwise that window's weights.
        rng = np.random.default_rng(24)
        for days, day_len, n in ((7, 24, 45), (10, 8, 9), (2, 4, 3)):
            blocks = rng.normal(size=(days, day_len, n, 6))
            target = rng.normal(size=(day_len, n, 6))
            batch = similar_day_weights(blocks, target)
            for k in range(6):
                npt.assert_array_equal(
                    batch[:, k], similar_day_weights(*window_axis(blocks[..., k],
                                                                  target[..., k]))[:, 0])

    def test_sum_and_positivity(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            blocks = rng.normal(size=(3, 4, 2, 2))
            target = rng.normal(size=(4, 2, 2))
            w = similar_day_weights(blocks, target)
            npt.assert_allclose(w.sum(axis=0), 1.0, rtol=0, atol=1e-12)
            assert np.all(w > 0.0)

    def test_equidistant_days_share_weight_exactly(self):
        block = np.ones((4, 2))
        blocks = np.stack([block + 1.0, block - 1.0])
        w = similar_day_weights(*window_axis(blocks, block))
        npt.assert_array_equal(w, [[0.5], [0.5]])

    def test_identical_day_dominates(self):
        rng = np.random.default_rng(27)
        target = rng.normal(size=(6, 3))
        far = target + 5.0
        w = similar_day_weights(*window_axis(np.stack([target, far]), target))[:, 0]
        # An exact match drives the reciprocal into the cap, which saturates
        # the softmax completely at float64 precision.
        assert w[0] > 1.0 - 1e-12
        assert w[0] > w[1]

    def test_day_permutation_permutes_weights(self):
        rng = np.random.default_rng(28)
        blocks = rng.normal(size=(5, 4, 2, 1))
        target = rng.normal(size=(4, 2, 1))
        order = np.array([3, 0, 4, 1, 2])
        base = similar_day_weights(blocks, target)
        permuted = similar_day_weights(blocks[order], target)
        npt.assert_allclose(permuted, base[order], rtol=0, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            similar_day_weights(np.zeros((2, 4, 3, 1)), np.zeros((4, 2, 1)))
        with pytest.raises(DimensionError):
            similar_day_weights(np.zeros((2, 4, 3, 2)), np.zeros((4, 3, 1)))
        with pytest.raises(DimensionError):
            similar_day_weights(np.zeros((2, 4, 3)), np.zeros((4, 3)))


class TestTemporalAttention:
    def test_grid_shape_and_normalization(self):
        rng = np.random.default_rng(29)
        params = AttentionParams.random(rng, joint_width=4 + 3, outputs=12, attn_size=2,
                                        bound=0.8)
        grid = temporal_attention(params, Tensor(rng.normal(size=4)),
                                  Tensor(rng.normal(size=3)), day_len=4)
        assert grid.shape == (3, 4)
        assert abs(grid.values.sum() - 1.0) <= 1e-12
        assert np.all(grid.values > 0.0)

    def test_row_major_reshape_indexing(self):
        """Flat step (day index, hour index) must land at grid[day, hour]."""
        rng = np.random.default_rng(30)
        params = AttentionParams.random(rng, joint_width=2 + 2, outputs=6, attn_size=2,
                                        bound=0.8)
        state = Tensor(rng.normal(size=2))
        features = Tensor(rng.normal(size=2))
        grid = temporal_attention(params, state, features, day_len=3)

        conditioning = np.concatenate([state.values, features.values])
        flat = softmax(params.score @ np.tanh(params.proj @ conditioning))
        for step in range(6):
            day, hour = divmod(step, 3)
            assert grid.values[day, hour] == flat[step]

    def test_zero_parameters_give_uniform_grid(self):
        params = AttentionParams.zeros(joint_width=4 + 3, outputs=8, attn_size=2)
        grid = temporal_attention(params, Tensor(np.zeros(4)),
                                  Tensor(np.zeros(3)), day_len=4)
        npt.assert_array_equal(grid.values, np.full((2, 4), 0.125))

    def test_history_not_divisible_by_day_rejected(self):
        params = AttentionParams.zeros(joint_width=2 + 2, outputs=7, attn_size=2)
        with pytest.raises(DimensionError):
            temporal_attention(params, Tensor(np.zeros(2)), Tensor(np.zeros(2)),
                               day_len=4)


class TestContextVector:
    def test_shape_errors_name_the_shapes(self):
        day_w, hours, states = np.full(2, 0.5), Tensor(np.full((2, 3), 1 / 6)), np.zeros((6, 4))
        with pytest.raises(DimensionError, match=r"must be \(days, day_len\), got \(6,\)"):
            context_vector(day_w, reshape(hours, (6,)), states)
        with pytest.raises(DimensionError,
                           match=r"day weights \(3,\) do not match hour weights \(2, 3\)"):
            context_vector(np.full(3, 1 / 3), hours, states)
        for bad in (np.zeros((5, 4)), np.zeros(6)):
            with pytest.raises(DimensionError, match=r"do not cover 2 x 3 history hours"):
                context_vector(day_w, hours, Tensor(bad))

    def test_loop_oracle(self):
        rng = np.random.default_rng(31)
        days, day_len, width = 3, 4, 5
        day_w = softmax(rng.normal(size=days))
        hour_grid = rng.random(size=(days, day_len))
        hour_grid /= hour_grid.sum()
        states = rng.normal(size=(days * day_len, width))

        context = context_vector(day_w, Tensor(hour_grid), Tensor(states))

        expect = np.zeros(width)
        for day in range(days):
            for hour in range(day_len):
                step = day * day_len + hour
                expect += day_w[day] * hour_grid[day, hour] * states[step]
        npt.assert_allclose(context.values, expect, rtol=0, atol=1e-12)

    def test_context_stays_within_state_envelope(self):
        rng = np.random.default_rng(32)
        day_w = softmax(rng.normal(size=2))
        hour_grid = rng.random(size=(2, 3))
        hour_grid /= hour_grid.sum()
        states = rng.normal(size=(6, 4))
        context = context_vector(day_w, Tensor(hour_grid), Tensor(states))
        # Combined weights sum to at most 1, so the context cannot exceed the
        # largest state magnitude coordinate-wise.
        assert np.all(np.abs(context.values) <= np.abs(states).max(axis=0) + 1e-12)

    def test_pointmass_weights_select_one_state(self):
        states = np.arange(12.0).reshape(4, 3)
        day_w = np.array([0.0, 1.0])
        hour_grid = np.array([[0.0, 0.0], [1.0, 0.0]])
        context = context_vector(day_w, Tensor(hour_grid), Tensor(states))
        npt.assert_array_equal(context.values, states[2])

    def test_day_weights_are_constant_in_backprop(self):
        """Only the hour grid and states carry gradients; day weights do not."""
        rng = np.random.default_rng(33)
        day_w = softmax(rng.normal(size=2))
        hour_grid = rng.random(size=(2, 3))
        states = rng.normal(size=(6, 4))

        def program(leaves):
            return total(context_vector(day_w, leaves["hour"], leaves["states"]))

        report = check_gradients(program, {"hour": hour_grid, "states": states},
                                 tolerance=1e-6)
        assert report.passed, f"max rel error {report.max_rel_error:.3e}"


# ---------------------------------------------------------------------------
# Attention sweeps inside one bidirectional run, against the per-step taped
# path: `feature_attention` (or `temporal_attention` and `context_vector`)
# and `lstm_cell_step` once per step, the way the model ran them before the
# sweeps existed, then the backward cell stepped over the same inputs in
# reverse.


def with_backward(rng, case, bound):
    """`case` with a backward cell beside its forward one, and the backward
    direction's initial state."""
    forward = case["cell"]
    case["cell"] = BiLstmParams(forward, LstmParams.random(rng, forward.input_size,
                                                           forward.hidden_size, bound))
    case["hb0"], case["cb0"] = rng.normal(size=(2, forward.hidden_size))
    return case


def feature_case(rng, steps, hidden, n, attn, bound=1.0):
    return with_backward(rng, {
        "cell": LstmParams.random(rng, n + 1, hidden, bound),
        "attn": AttentionParams.random(rng, hidden + n + 1, n, attn, bound),
        "h0": rng.normal(size=hidden), "c0": rng.normal(size=hidden),
        "features": rng.normal(size=(steps, n)), "targets": rng.normal(size=steps)}, bound)


def temporal_case(rng, steps, hidden, n, attn, days, day_len, width, bound=1.0):
    history = days * day_len
    return with_backward(rng, {
        "cell": LstmParams.random(rng, n + width, hidden, bound),
        "attn": AttentionParams.random(rng, 2 * hidden + n, history, attn, bound),
        "tail": rng.normal(size=hidden), "h0": rng.normal(size=hidden),
        "c0": rng.normal(size=hidden), "states": rng.normal(size=(history, width)),
        "day": softmax(rng.normal(size=days)), "day_len": day_len,
        "features": rng.normal(size=(steps, n))}, bound)


def make_sweep(case, attn, leaves):
    """The case's sweep over one window: per-window arrays as (.., 1)."""
    if "states" in case:
        grid = np.repeat(case["day"], case["day_len"])[:, np.newaxis]
        return TemporalSweep(attn, column(leaves["tail"]), case["features"][..., np.newaxis],
                             grid, column(leaves["states"]))
    return FeatureSweep(attn, case["features"][..., np.newaxis], case["targets"][:, np.newaxis])


def column(tensor):
    """A per-window tensor as a one-window batch."""
    return reshape(tensor, tensor.shape + (1,))


def uncolumn(tensor):
    return reshape(tensor, tensor.shape[:-1])


def column_state(leaves, h, c):
    return LstmState(column(leaves[h]), column(leaves[c]))


def swept(case, cell, attn, leaves):
    sweep = make_sweep(case, attn, leaves)
    states, terminals = bilstm_sequence(cell, sweep, column_state(leaves, "h0", "c0"),
                                        column_state(leaves, "hb0", "cb0"))
    return (uncolumn(states), [LstmState(uncolumn(t.h), uncolumn(t.c)) for t in terminals],
            sweep.weights[..., 0])


def stepped(case, cell, attn, leaves):
    """The reference: taped attention ops and one forward cell step per
    step, then one backward cell step per input, last input first.
    Temporal attention conditions on [h_{t-1}; tail], feature attention on
    h_{t-1} alone."""
    state = LstmState(leaves["h0"], leaves["c0"])
    hs, xs, weights = [], [], []
    for t, features in enumerate(case["features"]):
        if "states" in case:
            hours = temporal_attention(attn, concat([state.h, leaves["tail"]]), features,
                                       case["day_len"])
            x = concat([Tensor(features),
                        context_vector(case["day"], hours, leaves["states"])])
            weights.append(hours.values.reshape(-1))
        else:
            alpha, weighted = feature_attention(attn, state.h, features, case["targets"][t])
            x = concat([weighted, Tensor([case["targets"][t]])])
            weights.append(alpha.values)
        state = lstm_cell_step(cell.forward, state, x)
        hs.append(state.h)
        xs.append(x)
    back, backs = LstmState(leaves["hb0"], leaves["cb0"]), []
    for x in reversed(xs):
        back = lstm_cell_step(cell.backward, back, x)
        backs.append(back.h)
    joined = [concat([h, b]) for h, b in zip(hs, reversed(backs))]
    return (reshape(concat(joined), (len(hs), 2 * hs[0].shape[0])), [state, back],
            np.array(weights))


def leaf_names(case):
    return ("h0", "c0", "hb0", "cb0") + (("tail", "states") if "states" in case else ())


def probed(states, terminals, probe):
    """probe . [states; each direction's terminal h and c]."""
    ends = [part for terminal in terminals for part in (terminal.h, terminal.c)]
    return total(hadamard(concat([reshape(states, (states.values.size,)), *ends]),
                          Tensor(probe)))


def run_case(run, case, probe=None):
    """Run on a fresh tape, or untaped without a probe; return the values
    (forward states, backward states, each direction's terminal h and c,
    attention weights) and the gradients of `probed` by operand."""
    tape = Tape()
    wrap = tape.leaf if probe is not None else Tensor
    cell = map_leaves(case["cell"], lambda _name, leaf: wrap(leaf))
    attn = map_leaves(case["attn"], lambda _name, leaf: wrap(leaf))
    leaves = {name: wrap(case[name]) for name in leaf_names(case)}
    states, terminals, weights = run(case, cell, attn, leaves)
    values = (*np.split(states.values, 2, axis=1),
              *(part.values for t in terminals for part in (t.h, t.c)), weights)
    if probe is None:
        return values, None
    tape.backward(probed(states, terminals, probe))
    grads = {f"cell.{name}": tape.grad(leaf) for name, leaf in named_leaves(cell)}
    grads.update({f"attn.{name}": tape.grad(leaf) for name, leaf in named_leaves(attn)})
    grads.update({name: tape.grad(leaf) for name, leaf in leaves.items()})
    return values, grads


def rel_diff(value, reference):
    scale = float(np.max(np.abs(reference)))
    return float(np.max(np.abs(value - reference))) / max(scale, 1e-300)


def random_cases(rng, count):
    """Feature and temporal cases over random shapes, starting with steps 1
    and hidden 1."""
    cases = [feature_case(rng, 1, 1, 1, 1), feature_case(rng, 1, 3, 2, 2),
             feature_case(rng, 4, 1, 3, 2), temporal_case(rng, 1, 1, 1, 1, 1, 1, 1),
             temporal_case(rng, 1, 3, 2, 2, 2, 3, 4), temporal_case(rng, 5, 1, 2, 3, 3, 2, 2)]
    for _ in range(count):
        steps, hidden, n, attn = (int(v) for v in rng.integers(1, 7, size=4))
        cases.append(feature_case(rng, steps, hidden, n, attn))
        days, day_len, width = (int(v) for v in rng.integers(1, 5, size=3))
        cases.append(temporal_case(rng, steps, hidden, n, attn, days, day_len, width))
    return cases


def flat_size(case):
    steps, hidden = len(case["features"]), case["cell"].hidden_size
    return 2 * steps * hidden + 4 * hidden


class TestAttendedSweeps:
    def test_values_and_weights_equal_stepped_path(self):
        # Windows are columns, and a window's context is a product with its
        # states laid out window-major, so values agree with the stepped path
        # to rounding rather than bitwise.
        rng = np.random.default_rng(34)
        for case in random_cases(rng, 15):
            probe = rng.normal(size=flat_size(case))
            for taped in (probe, None):
                values, _ = run_case(swept, case, taped)
                ref_values, _ = run_case(stepped, case, taped)
                assert len(values) == len(ref_values) == 7
                for value, ref in zip(values, ref_values):
                    assert value.shape == ref.shape
                    assert rel_diff(value, ref) <= 1e-12

    def test_gradients_match_stepped_path(self):
        rng = np.random.default_rng(35)
        for case in random_cases(rng, 15):
            probe = rng.normal(size=flat_size(case))
            _, grads = run_case(swept, case, probe)
            _, ref_grads = run_case(stepped, case, probe)
            assert grads.keys() == ref_grads.keys()
            assert len(grads) == 6 + 2 + len(leaf_names(case))
            for name, grad in grads.items():
                assert grad.shape == ref_grads[name].shape, name
                assert rel_diff(grad, ref_grads[name]) <= 1e-12, name

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(36)
        for case in (feature_case(rng, 3, 2, 2, 2, bound=0.6),
                     temporal_case(rng, 3, 2, 2, 2, 2, 2, 2, bound=0.6)):
            probe = rng.normal(size=flat_size(case))

            def program(leaves, case=case, probe=probe):
                cell = map_leaves(case["cell"], lambda name, _l: leaves["cell." + name])
                attn = map_leaves(case["attn"], lambda name, _l: leaves["attn." + name])
                states, terminals, _ = swept(case, cell, attn, leaves)
                return probed(states, terminals, probe)

            arrays = {f"cell.{name}": a for name, a in named_leaves(case["cell"])}
            arrays.update({f"attn.{name}": a for name, a in named_leaves(case["attn"])})
            arrays.update({name: case[name] for name in leaf_names(case)})
            report = check_gradients(program, arrays, tolerance=1e-6)
            assert report.passed, f"max rel error {report.max_rel_error:.3e}"

    def test_nodes_per_run_do_not_depend_on_steps(self):
        counts = []
        for steps in (1, 2, 7, 30):
            rng = np.random.default_rng(37)
            for case in (feature_case(rng, steps, 3, 2, 2),
                         temporal_case(rng, steps, 3, 2, 2, 2, 3, 4)):
                tape = Tape()
                cell = bind(case["cell"], tape)
                attn = bind(case["attn"], tape)
                leaves = {name: tape.leaf(case[name]) for name in leaf_names(case)}
                sweep = make_sweep(case, attn, leaves)
                init = LstmState(tape.leaf(np.zeros((3, 1))), tape.leaf(np.zeros((3, 1))))
                before = len(tape)
                bilstm_sequence(cell, sweep, init, init)
                counts.append(len(tape) - before)
        # One op for the run, then a view each for the states and each
        # direction's terminal h and c.
        assert counts == [6] * 8

    @pytest.mark.parametrize("kind", ["feature", "temporal"])
    def test_fill_writes_only_the_fixed_rows(self, kind):
        # `fill` writes only the rows that depend on no parameter (the
        # targets, or the features), into a lone run's (steps, width, 1)
        # block and into every lane of a 3-lane pass's (steps, 3, width, 1)
        # block, and keeps nothing of the block.
        rng = np.random.default_rng(40)
        case = (feature_case(rng, 4, 3, 2, 2) if kind == "feature"
                else temporal_case(rng, 4, 3, 2, 2, 2, 3, 4))
        leaves = {name: Tensor(case[name]) for name in leaf_names(case)}
        laned = {name: Tensor(np.stack([case[name]] * 3)) for name in leaf_names(case)}
        attn = map_leaves(case["attn"], lambda _name, leaf: np.stack([leaf] * 3))
        n = case["features"].shape[1]
        fixed = slice(n, None) if kind == "feature" else slice(None, n)
        expect = (case["features"] if kind == "temporal"
                  else case["targets"][:, np.newaxis])[..., np.newaxis]
        for sweep, lanes in ((make_sweep(case, case["attn"], leaves), ()),
                             (make_sweep(case, attn, laned), (3,))):
            assert sweep.lanes == (lanes[0] if lanes else None)
            block = np.full((sweep.steps,) + lanes + (sweep.width, 1), np.nan)
            sweep.fill(block)
            for lane in (block[:, k] for k in range(3)) if lanes else (block,):
                npt.assert_array_equal(lane[:, fixed], expect, strict=True)
                made = np.ones(sweep.width, dtype=bool)
                made[fixed] = False
                assert np.isnan(lane[:, made]).all()
            assert not hasattr(sweep, "inputs")

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_infinite_preactivation_raises(self):
        rng = np.random.default_rng(38)
        for case in (feature_case(rng, 3, 2, 2, 2), temporal_case(rng, 3, 2, 2, 2, 2, 2, 2)):
            # Every joint entry is positive, so proj @ joint is +inf while
            # tanh, the scores, the weights and the step inputs stay finite.
            case["attn"].proj = np.full(case["attn"].proj.shape, 1e308)
            for name in ("h0", "tail", "features", "targets", "states"):
                if name in case:
                    case[name] = np.abs(case[name]) + 1.0
            with pytest.raises(EvaluationError):
                run_case(swept, case)

    def test_shape_errors(self):
        rng = np.random.default_rng(39)
        case = feature_case(rng, 3, 2, 2, 2)
        features, targets = case["features"][..., np.newaxis], case["targets"][:, np.newaxis]
        init = LstmState(Tensor(case["h0"][:, np.newaxis]), Tensor(case["c0"][:, np.newaxis]))
        wide = LstmState(Tensor(np.zeros((3, 1))), Tensor(np.zeros((3, 1))))
        with pytest.raises(DimensionError):
            FeatureSweep(case["attn"], features, targets[:2])
        with pytest.raises(DimensionError):
            FeatureSweep(case["attn"], features[:, :1], targets)
        with pytest.raises(DimensionError):
            FeatureSweep(case["attn"], case["features"], case["targets"])
        # A scorer with no hidden columns, or whose score and proj blocks
        # do not chain.
        for proj, score in (((2, 3), (2, 2)), ((2, 5), (2, 3))):
            blocks = AttentionParams(np.zeros(proj), np.zeros(score))
            with pytest.raises(DimensionError, match=re.escape(
                    f"attention blocks {proj}, {score} do not fit 3 step rows")):
                FeatureSweep(blocks, features, targets)
        sweep = FeatureSweep(case["attn"], features, targets)
        with pytest.raises(DimensionError):
            bilstm_sequence(BiLstmParams.random(rng, 4, 2, 1.0), sweep, init, init)
        with pytest.raises(DimensionError):
            bilstm_sequence(BiLstmParams.random(rng, 3, 3, 1.0), sweep, wide, wide)
        with pytest.raises(DimensionError):
            bilstm_sequence(BiLstmParams(case["cell"].forward, LstmParams.random(rng, 3, 3, 1.0)),
                            sweep, init, wide)
        with pytest.raises(DimensionError):
            bilstm_sequence(case["cell"], FeatureSweep(case["attn"], features[:0], targets[:0]),
                            init, init)
        bad = LstmState(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
        with pytest.raises(DimensionError):
            bilstm_sequence(case["cell"], sweep, bad, init)
        with pytest.raises(DimensionError):
            bilstm_sequence(case["cell"], sweep, init, bad)
        case = temporal_case(rng, 2, 2, 2, 2, 2, 3, 2)
        tail = Tensor(case["tail"][:, np.newaxis])
        features = case["features"][..., np.newaxis]
        grid = np.repeat(case["day"], case["day_len"])[:, np.newaxis]
        states = Tensor(case["states"][..., np.newaxis])
        attn = case["attn"]
        with pytest.raises(DimensionError, match=r"does not cover 6 history hours"):
            TemporalSweep(attn, tail, features, np.ones((4, 1)) / 4, states)
        with pytest.raises(DimensionError, match=r"does not cover 6 history hours"):
            TemporalSweep(attn, tail, features, grid[:, 0], states)
        with pytest.raises(DimensionError, match=r"does not cover 6 history hours"):
            TemporalSweep(attn, tail, features, np.repeat(grid, 2, axis=1), states)
        with pytest.raises(DimensionError, match=r"are not \(rows, windows\)"):
            TemporalSweep(attn, Tensor(np.zeros((2, 2))), features, grid, states)
        with pytest.raises(DimensionError, match=r"does not cover 5 history hours"):
            TemporalSweep(attn, tail, features, grid, Tensor(states.values[1:]))
        with pytest.raises(DimensionError, match=r"are not \(history, width, windows\)"):
            TemporalSweep(attn, tail, features, grid, Tensor(np.repeat(states.values, 2, axis=2)))
        # A scorer over another history length than the states'.
        with pytest.raises(DimensionError, match=r"does not match 6 history hours"):
            TemporalSweep(AttentionParams.random(rng, 6, 4, 2, 1.0), tail, features, grid, states)
        TemporalSweep(attn, tail, features, grid, states)
