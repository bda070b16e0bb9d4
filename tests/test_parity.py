"""The block comparison of `tools/parity.py`, on in-memory dumps."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

PARITY = Path(__file__).resolve().parent.parent / "tools" / "parity.py"


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", PARITY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_equal_dumps_are_bitwise(parity):
    base = {"a/grad": np.arange(6.0).reshape(2, 3), "a/max": np.array(2.5e-5)}
    rows, same = parity.compare(base, {name: values.copy() for name, values in base.items()})
    assert same and rows == [("a/grad", "bitwise"), ("a/max", "bitwise")]


def test_a_difference_reports_its_size_relative_to_the_block(parity):
    base = np.array([4.0, -8.0, 1.0])
    head = base.copy()
    head[2] = np.nextafter(1.0, 2.0)
    rows, same = parity.compare({"x": base, "y": base}, {"x": head, "y": base})
    assert not same
    assert rows == [("x", f"max rel diff {np.spacing(1.0) / 8.0:.3e}"), ("y", "bitwise")]


def test_signed_zeros_are_not_bitwise(parity):
    rows, same = parity.compare({"z": np.zeros(2)}, {"z": np.array([0.0, -0.0])})
    assert not same and rows == [("z", "max rel diff 0.000e+00")]


def test_missing_and_reshaped_blocks_differ(parity):
    base = {"kept": np.ones((2, 2)), "gone": np.ones(1)}
    head = {"kept": np.ones(4), "new": np.ones(1)}
    rows, same = parity.compare(base, head)
    assert not same
    assert rows == [("kept", "float64[2, 2] vs float64[4]"), ("gone", "only in base"),
                    ("new", "only in head")]


def test_a_revision_that_cannot_be_archived_is_one_line_and_exit_2(parity, capsys):
    assert parity.main(["no-such-rev"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("parity: cannot archive no-such-rev: ")


def test_a_failed_probe_run_is_one_line_and_exit_2(parity, monkeypatch, capsys):
    # The revision's tree holds a package that fails on import, so the
    # probes fail before any of them runs.
    def export(_rev, tree):
        (tree / "src" / "loadcast").mkdir(parents=True)
        (tree / "src" / "loadcast" / "__init__.py").write_text("raise ImportError('broken')\n")

    monkeypatch.setattr(parity, "_export", export)
    assert parity.main(["broken-rev"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("parity: the probes failed in ")
    assert err.endswith("/tree: ImportError: broken\n")
