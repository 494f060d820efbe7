"""Adaptive integration of the 6-D system with events and drift monitoring.

Thin layer over an embedded Runge-Kutta pair (Dormand-Prince 8(5,3) by
default) with dense output.  Every trajectory records the conserved
quantity W at its nodes; the drift is reported, never projected out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from . import dynamics
from .params import Params


class IntegrationError(RuntimeError):
    def __init__(self, message: str, last_x: float | None = None,
                 last_state: np.ndarray | None = None):
        super().__init__(message)
        self.last_x = last_x
        self.last_state = last_state


@dataclass(frozen=True)
class EventSpec:
    """Scalar event function of the state with a declared crossing direction.

    ``direction`` must be +1 (upward crossing) or -1 (downward); requiring
    it disambiguates tangential grazes.
    """

    fn: Callable[[np.ndarray], float]
    direction: int
    terminal: bool = False
    name: str = ""

    def __post_init__(self):
        if self.direction not in (-1, 1):
            raise ValueError("event direction must be +1 or -1")


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = np.inf
    method: str = "DOP853"
    events: tuple[EventSpec, ...] = ()

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")


@dataclass
class EventHit:
    index: int
    x: float
    state: np.ndarray
    name: str = ""


@dataclass
class Trajectory:
    """Integration result: nodes, states, dense output, and W samples."""

    x: np.ndarray
    states: np.ndarray          # shape (n, 6)
    w: np.ndarray
    sol: object                 # dense-output callable
    events: list[EventHit]
    p: Params

    @property
    def w_drift(self) -> float:
        return float(np.abs(self.w - self.w[0]).max())

    def sample(self, x) -> np.ndarray:
        """Dense-output states at abscissae ``x``, shape (n, 6)."""
        out = self.sol(np.asarray(x, dtype=float))
        return out.T if out.ndim == 2 else out

    def to_csv(self, path: str) -> None:
        write_profile_csv(path, self.x, self.states, self.w)


def write_profile_csv(path: str, x: np.ndarray, states: np.ndarray,
                      w: np.ndarray | None = None, p: Params | None = None) -> None:
    """Write columns x, A0..A3, B0, B1, W with full (17 digit) precision."""
    if w is None:
        if p is None:
            raise ValueError("either w samples or params must be given")
        w = np.array([dynamics.first_integral(s, p) for s in states])
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


def integrate(s0: np.ndarray, span: tuple[float, float], p: Params,
              cfg: IntegratorConfig | None = None) -> Trajectory:
    """Integrate the 6-D system over ``span`` (forward or backward).

    Events are located on the dense output to high accuracy; a terminal
    event stops the run.  Raises :class:`IntegrationError` on step-size
    failure or non-finite states.
    """
    cfg = cfg or IntegratorConfig()
    x0, x1 = span
    if x0 == x1:
        raise ValueError("span must be nondegenerate")
    s0 = np.asarray(s0, dtype=float)

    def rhs(x, y):
        return dynamics.vector_field(y, p)

    ivp_events = []
    for spec in cfg.events:
        def ev(x, y, _fn=spec.fn):
            return _fn(y)
        ev.direction = spec.direction if x1 > x0 else -spec.direction
        ev.terminal = spec.terminal
        ivp_events.append(ev)

    sol = solve_ivp(
        rhs, (x0, x1), s0, method=cfg.method, dense_output=True,
        rtol=cfg.rel_tol, atol=cfg.abs_tol, max_step=cfg.max_step,
        events=ivp_events or None,
    )
    if sol.status == -1:
        raise IntegrationError(
            f"integration failed: {sol.message}",
            last_x=float(sol.t[-1]) if sol.t.size else None,
            last_state=sol.y[:, -1].copy() if sol.t.size else None,
        )
    states = sol.y.T
    if not np.all(np.isfinite(states)):
        raise IntegrationError("non-finite state encountered",
                               last_x=float(sol.t[-1]), last_state=states[-1])

    hits: list[EventHit] = []
    if cfg.events:
        for i, spec in enumerate(cfg.events):
            for xe, ye in zip(sol.t_events[i], sol.y_events[i]):
                hits.append(EventHit(index=i, x=float(xe), state=np.asarray(ye),
                                     name=spec.name))
        hits.sort(key=lambda h: h.x if x1 > x0 else -h.x)

    w = np.array([dynamics.first_integral(s, p) for s in states])
    return Trajectory(x=sol.t.copy(), states=states, w=w, sol=sol.sol,
                      events=hits, p=p)
