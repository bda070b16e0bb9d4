"""Tensor ops against hand values and central finite differences."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loadcast.errors import DimensionError, EvaluationError, TapeError
from loadcast.tensor import (GradCheckReport, Tape, Tensor, add, as_tensor,
                             check_gradients, concat, fused_op,
                             hadamard, matmul, relu, reshape, scale, segment,
                             sigmoid, stable_softmax, sub, tanh, total)


def fd_check(program, params, tol=1e-6, h=1e-5):
    report = check_gradients(program, params, h=h, tolerance=tol)
    assert report.passed, f"max rel error {report.max_rel_error:.3e}"
    return report


class TestForwardValues:
    def test_matmul_hand_case(self):
        out = matmul([[1.0, 2.0], [3.0, 4.0]], [[5.0], [6.0]])
        npt.assert_array_equal(out.values, [[17.0], [39.0]])

    def test_matmul_identity(self):
        a = np.arange(6.0).reshape(2, 3)
        npt.assert_array_equal(matmul(np.eye(2), a).values, a)

    def test_matmul_vector_forms(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        v = np.array([5.0, 6.0])
        npt.assert_array_equal(matmul(a, v).values, a @ v)
        npt.assert_array_equal(matmul(v, a).values, v @ a)
        assert matmul(v, v).item() == v @ v

    def test_matmul_shape_error_names_both_shapes(self):
        with pytest.raises(DimensionError) as exc:
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))
        assert "(2, 3)" in str(exc.value)

    def test_elementwise_hand_values(self):
        assert sigmoid(0.0).item() == 0.5
        assert tanh(0.0).item() == 0.0
        npt.assert_array_equal(relu([-2.0, 0.0, 3.0]).values, [0.0, 0.0, 3.0])
        npt.assert_array_equal(hadamard([1.0, 2.0, 3.0], [4.0, 5.0, 6.0]).values,
                               [4.0, 10.0, 18.0])

    def test_sigmoid_extreme_inputs_stay_finite(self):
        out = sigmoid([-1000.0, 1000.0]).values
        npt.assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            add(np.zeros(3), np.zeros(4))

    def test_softmax_hand_values(self):
        npt.assert_allclose(stable_softmax([0.0, np.log(3.0)]).values,
                            [0.25, 0.75], atol=1e-15)
        npt.assert_array_equal(stable_softmax([7.0, 7.0, 7.0]).values,
                               np.full(3, 1.0 / 3.0))

    def test_softmax_large_inputs(self):
        out = stable_softmax([1000.0, 1000.0]).values
        npt.assert_array_equal(out, [0.5, 0.5])

    def test_softmax_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            stable_softmax(np.zeros(0))
        with pytest.raises(DimensionError):
            stable_softmax(np.zeros((2, 2)))

    def test_concat_values(self):
        npt.assert_array_equal(concat([[1.0, 2.0], [3.0]]).values, [1.0, 2.0, 3.0])
        single = concat([as_tensor([4.0, 5.0])])
        npt.assert_array_equal(single.values, [4.0, 5.0])

    def test_concat_2d_axis_and_errors(self):
        a, b = np.ones((2, 2)), np.zeros((2, 1))
        out = concat([a, b], axis=1)
        assert out.shape == (2, 3)
        with pytest.raises(DimensionError):
            concat([a, np.zeros((3, 3))], axis=1)
        with pytest.raises(DimensionError):
            concat([])

    def test_reshape_checks_size(self):
        assert reshape(np.arange(6.0), (2, 3)).shape == (2, 3)
        with pytest.raises(DimensionError):
            reshape(np.arange(6.0), (4, 2))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_values_rejected(self):
        with pytest.raises(EvaluationError):
            Tensor([1.0, np.inf])
        tape = Tape()
        big = tape.leaf([1e308])
        with pytest.raises(EvaluationError):
            tape.leaf([np.nan])
        assert len(tape) == 1
        with pytest.raises(EvaluationError):
            hadamard(big, big)
        assert len(tape) == 1

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_constant_op_outputs_are_scanned(self):
        # Only views of scanned values skip the scan; an op whose operands
        # are all constants still checks what it computed.
        big = Tensor([[1e308]])
        with pytest.raises(EvaluationError):
            hadamard(big, big)
        with pytest.raises(EvaluationError):
            matmul(big, big)

    @given(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=8),
           st.floats(-100.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_softmax_shift_invariance(self, entries, shift):
        v = np.array(entries)
        npt.assert_allclose(stable_softmax(v).values,
                            stable_softmax(v + shift).values, atol=1e-12)
        assert abs(stable_softmax(v).values.sum() - 1.0) <= 1e-12


class TestBackward:
    def test_quadratic_hand_gradient(self):
        tape = Tape()
        w = tape.leaf([1.0, 2.0])
        loss = total(hadamard(w, w))
        tape.backward(loss)
        npt.assert_array_equal(tape.grad(w), [2.0, 4.0])

    def test_unreachable_leaf_gets_zero_gradient(self):
        tape = Tape()
        w = tape.leaf([1.0, 2.0])
        unused = tape.leaf([5.0])
        tape.backward(total(hadamard(w, w)))
        npt.assert_array_equal(tape.grad(unused), [0.0])

    def test_constant_factor_kills_gradient(self):
        tape = Tape()
        w = tape.leaf([3.0, 4.0])
        tape.backward(total(hadamard(w, Tensor([0.0, 0.0]))))
        npt.assert_array_equal(tape.grad(w), [0.0, 0.0])

    def test_relu_gradient_is_zero_at_kink(self):
        tape = Tape()
        x = tape.leaf([-1.0, 0.0, 2.0])
        tape.backward(total(relu(x)))
        npt.assert_array_equal(tape.grad(x), [0.0, 0.0, 1.0])

    def test_concat_gradient_scatters(self):
        tape = Tape()
        a = tape.leaf([1.0, 2.0])
        b = tape.leaf([3.0])
        tape.backward(total(hadamard(concat([a, b]), Tensor([1.0, 2.0, 3.0]))))
        npt.assert_array_equal(tape.grad(a), [1.0, 2.0])
        npt.assert_array_equal(tape.grad(b), [3.0])

        tape = Tape()
        parts = [tape.leaf(np.zeros((2, width))) for width in (1, 3, 2)]
        weights = np.arange(12.0).reshape(2, 6)
        tape.backward(total(hadamard(concat(parts, axis=1), Tensor(weights))))
        npt.assert_array_equal(tape.grad(parts[0]), weights[:, :1])
        npt.assert_array_equal(tape.grad(parts[1]), weights[:, 1:4])
        npt.assert_array_equal(tape.grad(parts[2]), weights[:, 4:])

    def test_segment_gradient_is_zero_outside(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0, 3.0, 4.0])
        part = segment(x, 1, 3)
        npt.assert_array_equal(part.values, [2.0, 3.0])
        tape.backward(total(hadamard(part, Tensor([5.0, 7.0]))))
        npt.assert_array_equal(tape.grad(x), [0.0, 5.0, 7.0, 0.0])
        with pytest.raises(DimensionError):
            segment(x, 2, 5)
        with pytest.raises(DimensionError):
            segment(x, 0, 4, (3,))

    def test_segment_parts_add_into_a_buffer_of_their_own(self):
        # x gets, in backward order: add's gradient, which y shares, then a
        # part, a whole gradient and a part.  The parts must not write into
        # the array y holds.
        tape = Tape()
        x, y = tape.leaf([1.0, 2.0, 3.0, 4.0]), tape.leaf(np.zeros(4))
        head = segment(x, 0, 3)
        mid = scale(x, 3.0)
        tail = segment(x, 2, 4)
        both = add(x, y)
        loss = add(add(total(hadamard(head, Tensor([1.0, 2.0, 3.0]))), total(mid)),
                   add(total(hadamard(tail, Tensor([10.0, 20.0]))), total(both)))
        tape.backward(loss)
        npt.assert_array_equal(tape.grad(x), [5.0, 6.0, 17.0, 24.0])
        npt.assert_array_equal(tape.grad(y), np.ones(4))

    def test_segment_takes_the_view_shape(self):
        tape = Tape()
        x = tape.leaf([1.0, 2.0, 3.0, 4.0, 5.0])
        grid = segment(x, 1, 5, (2, 2))
        npt.assert_array_equal(grid.values, [[2.0, 3.0], [4.0, 5.0]])
        assert len(tape) == 2
        tape.backward(total(hadamard(grid, Tensor([[1.0, 2.0], [3.0, 4.0]]))))
        npt.assert_array_equal(tape.grad(x), [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_fused_op_drops_constant_operands(self):
        tape = Tape()
        a = tape.leaf([2.0])
        b = Tensor([3.0])
        c = tape.leaf([4.0])
        calls = []

        def rule(g):
            calls.append(1)
            return g * 12.0, g * 8.0, g * 6.0

        out = fused_op(a.values * b.values * c.values, (a, b, c), rule)
        assert len(tape) == 3
        tape.backward(total(out))
        npt.assert_array_equal(tape.grad(a), [12.0])
        npt.assert_array_equal(tape.grad(c), [6.0])
        assert calls == [1]
        assert fused_op(b.values, (b,), rule).tape is None

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        w = tape.leaf([1.0, 2.0])
        with pytest.raises(TapeError):
            tape.backward(hadamard(w, w))

    def test_constant_loss_rejected(self):
        with pytest.raises(TapeError):
            Tape().backward(total(Tensor([1.0])))

    def test_grad_before_backward_rejected(self):
        tape = Tape()
        w = tape.leaf([1.0])
        with pytest.raises(TapeError):
            tape.grad(w)

    def test_cross_tape_mixing_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(TapeError):
            add(t1.leaf([1.0]), t2.leaf([2.0]))

    def test_rebuilt_tapes_give_bit_identical_gradients(self):
        rng = np.random.default_rng(5)
        w_init = rng.normal(size=(3, 3))
        x = rng.normal(size=3)

        def run():
            tape = Tape()
            w = tape.leaf(w_init)
            loss = total(stable_softmax(tanh(matmul(w, Tensor(x)))))
            tape.backward(loss)
            return tape.grad(w)

        first, second = run(), run()
        npt.assert_array_equal(first, second)

    def test_backward_runs_once_and_keeps_leaf_gradients(self):
        tape = Tape()
        w = tape.leaf([1.0, 2.0])
        square = hadamard(w, w)
        loss = total(square)
        tape.backward(loss)
        npt.assert_array_equal(tape.grad(w), [2.0, 4.0])
        with pytest.raises(TapeError):
            tape.grad(square)
        with pytest.raises(TapeError):
            tape.backward(loss)

    def test_reused_operand_accumulates(self):
        tape = Tape()
        w = tape.leaf([2.0])
        # loss = w*w + 3*w, so dloss/dw = 2w + 3 = 7
        loss = total(add(hadamard(w, w), scale(w, 3.0)))
        tape.backward(loss)
        npt.assert_array_equal(tape.grad(w), [7.0])


class TestCheckGradients:
    def test_quadratic_is_exact_to_roundoff(self):
        report = fd_check(
            lambda leaves: total(hadamard(leaves["w"], leaves["w"])),
            {"w": np.array([1.0, -2.0, 3.0])}, tol=1e-9)
        assert isinstance(report, GradCheckReport)
        assert report.per_param.keys() == {"w"}

    def test_verdict_is_a_plain_bool(self):
        report = check_gradients(lambda leaves: total(hadamard(leaves["w"], leaves["w"])),
                                 {"w": np.array([1.0, -2.0])})
        assert type(report.passed) is bool and report.passed

    def test_zero_parameter_program_passes_vacuously(self):
        report = check_gradients(lambda leaves: total(Tensor([1.0]) * Tensor([2.0])),
                                 {})
        assert report.passed and report.max_rel_error == 0.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            check_gradients(lambda leaves: total(leaves["w"]),
                            {"w": np.ones(2)}, h=0.0)

    def test_matmul_gradients(self):
        rng = np.random.default_rng(0)
        fd_check(lambda leaves: total(matmul(leaves["a"], leaves["b"])),
                 {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))})

    def test_matrix_vector_gradients(self):
        rng = np.random.default_rng(1)
        fd_check(lambda leaves: total(matmul(leaves["a"], leaves["v"])),
                 {"a": rng.normal(size=(3, 4)), "v": rng.normal(size=4)})
        fd_check(lambda leaves: total(matmul(leaves["v"], leaves["a"])),
                 {"a": rng.normal(size=(4, 3)), "v": rng.normal(size=4)})

    def test_activation_chain_gradients(self):
        rng = np.random.default_rng(2)
        fd_check(lambda leaves: total(hadamard(sigmoid(leaves["v"]),
                                                     tanh(leaves["v"]))),
                 {"v": rng.normal(size=6)})

    def test_relu_gradient_away_from_kink(self):
        fd_check(lambda leaves: total(relu(leaves["v"])),
                 {"v": np.array([-2.0, -0.5, 0.5, 2.0])})

    def test_softmax_gradients(self):
        rng = np.random.default_rng(3)
        fd_check(lambda leaves: total(hadamard(stable_softmax(leaves["v"]),
                                                     Tensor([1.0, 2.0, 3.0, 4.0, 5.0]))),
                 {"v": rng.normal(size=5)})

    def test_concat_reshape_scale_sub_gradients(self):
        rng = np.random.default_rng(4)

        def program(leaves):
            joined = concat([leaves["a"], leaves["b"]])
            grid = reshape(joined, (2, 3))
            return total(scale(sub(grid, Tensor(np.ones((2, 3)))), 0.5))

        fd_check(program, {"a": rng.normal(size=2), "b": rng.normal(size=4)})

    def test_deep_composition_gradients(self):
        x = np.random.default_rng(6).normal(size=4)
        weights = np.random.default_rng(7)

        def program(leaves):
            h = Tensor(x)
            for name in ("w1", "w2", "w3"):
                h = tanh(matmul(leaves[name], h))
            return total(hadamard(h, h))

        fd_check(program, {name: weights.normal(size=(4, 4))
                           for name in ("w1", "w2", "w3")})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_analytic_gradient_fails(self, bad):
        # A rel error of NaN compares false against any bound, so a NaN
        # gradient scored that way would pass; inf would warn on inf / inf.
        def program(leaves):
            x = leaves["x"]
            broken = fused_op(2.0 * x.values, (x,), lambda g: (np.full(x.shape, bad),))
            return total(broken) + total(hadamard(leaves["y"], leaves["y"]))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = check_gradients(program, {"x": np.ones(3), "y": np.arange(2.0)})
        assert not report.passed
        assert report.max_rel_error == math.inf
        assert report.per_param["x"] == math.inf and report.per_param["y"] <= 1e-6

    def test_perturbed_points_record_nothing(self):
        """Only the first evaluation of the program is taped; every perturbed
        point is evaluated on constants, so its loss is a constant, and the
        report, over leaves of ranks 1, 2 and 3, is the one a recording
        probe gives."""
        from loadcast.lstm import LstmParams, LstmState, lstm_sequence
        from loadcast.params import named_leaves

        rng = np.random.default_rng(8)
        template = LstmParams.random(rng, 2, 2, bound=0.8)
        xs = Tensor(rng.normal(size=(3, 2, 2)))
        init = LstmState(Tensor(rng.normal(size=(2, 2))), Tensor(rng.normal(size=(2, 2))))
        recorded = []

        def program(leaves):
            cell = LstmParams(leaves["weights"], leaves["b_x"], leaves["b_h"])
            states, _ = lstm_sequence(cell, xs, init)
            loss = total(hadamard(tanh(states), leaves["mix"]))
            recorded.append(0 if loss.tape is None else len(loss.tape))
            return loss

        arrays = dict(named_leaves(template), mix=rng.normal(size=(3, 2, 2)))
        report = check_gradients(program, arrays)
        scalars = sum(arr.size for arr in arrays.values())
        assert len(recorded) == 1 + 2 * scalars
        assert recorded[0] > 0 and recorded[1:] == [0] * (2 * scalars)
        assert report == taped_probe_report(program, arrays)

    def test_every_probe_gets_one_mapping_perturbed_in_place(self):
        arrays = {"v": np.array([0.5, -1.0]), "m": np.arange(6.0).reshape(2, 3) / 7.0}
        seen = []  # per call: the mapping, and each leaf's array and its values then

        def program(leaves):
            seen.append((leaves, {name: (t.values, t.values.copy())
                                  for name, t in leaves.items()}))
            v = leaves["v"]
            return total(hadamard(v, v)) + total(matmul(v, leaves["m"]))

        fd_check(program, arrays)
        (taped, _), probes = seen[0], seen[1:]
        assert all(leaf.tape is not None for leaf in taped.values())
        mapping = probes[0][0]
        assert all(leaf.tape is None for leaf in mapping.values())
        flat = np.concatenate([arrays[name].reshape(-1) for name in mapping])
        for k, (leaves, values) in enumerate(probes):
            assert leaves is mapping
            assert all(values[name][0] is leaf.values for name, leaf in mapping.items())
            # Probes 2j and 2j + 1 see scalar j moved by +h and -h, the rest as given.
            expected = flat.copy()
            expected[k // 2] += 1e-5 if k % 2 == 0 else -1e-5
            npt.assert_array_equal(
                np.concatenate([values[name][1].reshape(-1) for name in mapping]), expected)
        for name, leaf in mapping.items():
            assert leaf.values is not arrays[name]
            npt.assert_array_equal(leaf.values, arrays[name])

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_a_perturbed_scalar_that_overflows_raises(self):
        with pytest.raises(EvaluationError):
            check_gradients(lambda leaves: total(leaves["w"]), {"w": np.array([1.7e308])},
                            h=1e308)

    def test_fortran_ordered_parameters_are_perturbed(self):
        w = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        report = fd_check(lambda leaves: total(hadamard(leaves["w"], leaves["w"])), {"w": w})
        assert report.per_param["w"] <= 1e-9


def taped_probe_report(program, params, h=1e-5, tolerance=1e-6):
    """`check_gradients` with every perturbed point recorded on a fresh tape
    whose leaves are watched, as it ran before the perturbed points were
    evaluated on constants.  Reference for the untaped probes."""
    tape = Tape()
    leaves = {name: tape.leaf(arr) for name, arr in params.items()}
    tape.backward(program(leaves))
    analytic = {name: tape.grad(t) for name, t in leaves.items()}
    work = {name: np.array(arr, dtype=np.float64) for name, arr in params.items()}

    def loss_at():
        probe = Tape()
        return float(program({name: probe.leaf(arr) for name, arr in work.items()}).values)

    per_param, scalars = {}, []
    for name, arr in work.items():
        flat, ad_flat, worst = arr.reshape(-1), analytic[name].reshape(-1), 0.0
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + h
            f_plus = loss_at()
            flat[i] = saved - h
            f_minus = loss_at()
            flat[i] = saved
            fd = (f_plus - f_minus) / (2.0 * h)
            rel = abs(ad_flat[i] - fd) / max(abs(ad_flat[i]), abs(fd), 1e-8)
            scalars.append((rel, name, np.unravel_index(i, arr.shape), ad_flat[i], fd))
            worst = max(worst, rel)
        per_param[name] = worst
    # The first scalar of the largest error, as (name, index, analytic, numeric).
    rel, name, index, ad, fd = max(scalars, key=lambda scalar: scalar[0])
    worst = (name, tuple(int(k) for k in index), float(ad), fd) if rel > 0.0 else None
    return GradCheckReport(max(per_param.values()), per_param, tolerance, h, worst)
