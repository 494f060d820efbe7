"""Profile CSV and JSON report I/O.

A profile CSV holds the columns x, A0..A3, B0, B1, W at full (17 digit)
precision, so it round-trips exactly; JSON reports are written with sorted
keys so that equal payloads give equal bytes.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np


CSV_BLOCK_ROWS = 256


def write_profile_csv(path: str, x: np.ndarray, states: np.ndarray,
                      w: np.ndarray) -> None:
    """Write columns x, A0..A3, B0, B1, W with full (17 digit) precision.

    The bytes are those of ``np.savetxt(..., fmt="%.17g")``, but each block
    of ``CSV_BLOCK_ROWS`` rows is formatted by one ``%`` operation, where
    ``savetxt`` makes one per row; the blocks bound the memory that a
    whole-file string would take.
    """
    data = np.column_stack([x, states, w])
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w", encoding="latin1", newline="") as fh:
        fh.write("x,A0,A1,A2,A3,B0,B1,W\n")
        for start in range(0, len(data), CSV_BLOCK_ROWS):
            block = data[start:start + CSV_BLOCK_ROWS]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def read_profile_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a profile CSV; returns (x, states, w).  Raises ValueError unless
    the file holds at least 3 rows of the 8 columns, the fewest points a
    solve writes (``SolveConfig.profile_points``)."""
    with warnings.catch_warnings():
        # an empty file is reported below, as an error
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] < 3 or data.shape[1] != 8:
        raise ValueError(f"profile {path} must hold at least 3 rows of 8 columns "
                         f"(x, A0..A3, B0, B1, W); it holds {data.shape[0]} row(s) "
                         f"of {data.shape[1] if data.size else 0} column(s)")
    return data[:, 0], data[:, 1:7], data[:, 7]


def write_json(path, payload: dict) -> None:
    """Write a JSON report with sorted keys, two-space indent and a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
