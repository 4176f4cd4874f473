"""Deterministic CSV output: fixed 12-significant-digit formatting."""

from __future__ import annotations

import os

import numpy as np


def write_csv(path, headers, columns):
    """Write columns (equal-length 1-D arrays) under the given headers.

    String columns are written as they are, every other cell as ``%.12g``.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError("column length mismatch")
    fmt = ",".join("%s" if c.dtype.kind == "U" else "%.12g" for c in columns) + "\n"
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(headers) + "\n")
        for i in range(0, n, 512):  # one write, and Python floats, per block of rows
            fh.write("".join([fmt % row for row in zip(*(c[i:i + 512].tolist() for c in columns))]))
