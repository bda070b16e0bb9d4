"""Tour of the autodiff core: tapes, gradients, and the finite-difference check.

Run with `python3 demos/autodiff_basics.py` after installing the package.
"""

import numpy as np

from loadcast.tensor import (Tape, Tensor, check_gradients, matmul, tanh,
                             total)


def main():
    rng = np.random.default_rng(0)
    w_values = rng.normal(0.0, 0.5, (3, 4))
    x = Tensor(rng.normal(size=4))  # no tape: a constant, not a parameter

    # A tape records one forward pass.  Anything registered through
    # tape.leaf() is watched; everything else is treated as constant.
    tape = Tape()
    w = tape.leaf(w_values)
    loss = total(tanh(matmul(w, x)))
    print(f"loss = {float(loss.values):.6f}")

    # One reverse sweep fills a gradient for every leaf.
    tape.backward(loss)
    grad = tape.grad(w)
    print("d loss / d w =")
    print(np.array2string(grad, precision=4))

    # Reusing a leaf accumulates: loss = total(w@x) + total(w@x) doubles
    # the gradient of the single term.
    tape = Tape()
    w = tape.leaf(w_values)
    once = total(matmul(w, x))
    tape.backward(once)
    single = tape.grad(w)

    tape = Tape()
    w = tape.leaf(w_values)
    first = matmul(w, x)
    second = matmul(w, x)
    tape.backward(total(first) + total(second))
    doubled = tape.grad(w)
    print(f"\nreuse accumulates: max |double - 2*single| = "
          f"{np.abs(doubled - 2.0 * single).max():.1e}")

    # check_gradients runs program(leaves) once on watched leaves for the
    # gradient, then once per perturbed point on one mapping of constant
    # leaves, wrapped once and perturbed in place (so program must not
    # modify it), and compares the tape's gradient against central
    # differences, scalar by scalar.
    def program(leaves):
        return total(tanh(matmul(leaves["w"], x)))

    report = check_gradients(program, {"w": w_values}, h=1e-5, tolerance=1e-6)
    print(f"\n{report}")
    for name, err in report.per_param.items():
        print(f"  {name}: worst relative error {err:.2e}")


if __name__ == "__main__":
    main()
