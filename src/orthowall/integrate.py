"""Profile CSV and JSON report I/O.

A profile CSV holds the columns x, A0..A3, B0, B1, W at full (17 digit)
precision, so it round-trips exactly; JSON reports are written with sorted
keys so that equal payloads give equal bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def write_profile_csv(path: str, x: np.ndarray, states: np.ndarray,
                      w: np.ndarray) -> None:
    """Write columns x, A0..A3, B0, B1, W with full (17 digit) precision."""
    data = np.column_stack([x, states, w])
    header = "x,A0,A1,A2,A3,B0,B1,W"
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


def read_profile_csv(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a profile CSV; returns (x, states, w)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim == 1:
        data = data[None, :]
    return data[:, 0], data[:, 1:7], data[:, 7]


def write_json(path, payload: dict) -> None:
    """Write a JSON report with sorted keys, two-space indent and a final newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
