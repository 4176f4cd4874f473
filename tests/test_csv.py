import math

import numpy as np
import pytest

from geogate._csv import write_csv

SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300,
           1.23456789012345e14, 1 / 3]


def test_float_int_and_string_cells(tmp_path):
    floats = np.array(SPECIAL)
    ints = np.arange(len(SPECIAL)) * 10**13 - 7
    path = tmp_path / "cells.csv"
    write_csv(path, ["x", "neg_x", "n"], [floats, -floats, ints])
    expected = "x,neg_x,n\n" + "".join(
        f"{x:.12g},{-x:.12g},{n:.12g}\n" for x, n in zip(SPECIAL, ints.tolist()))
    assert path.read_bytes() == expected.encode()


def test_one_row_string_column(tmp_path):
    # the layout OptimizationResult.to_csv writes
    row = [1 / 3, -0.0, 5e-324, 17.5]
    path = tmp_path / "nested" / "opt.csv"
    write_csv(path, ["gate", "a1", "a2", "a3", "tau_ns"], [["pi8"]] + [[v] for v in row])
    expected = "gate,a1,a2,a3,tau_ns\npi8," + ",".join(f"{v:.12g}" for v in row) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("n", [0, 1, 511, 512, 513, 1025])
def test_block_boundaries(tmp_path, n):
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n), rng.standard_normal(n)
    k = rng.integers(-10**15, 10**15, n)
    path = tmp_path / "rows.csv"
    write_csv(path, ["x", "y", "k"], [x, y, k])
    expected = "x,y,k\n" + "".join(
        "%.12g,%.12g,%.12g\n" % row for row in zip(x.tolist(), y.tolist(), k.tolist()))
    assert path.read_bytes() == expected.encode()


def test_length_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [np.zeros(3), np.zeros(2)])
    assert not path.exists()
