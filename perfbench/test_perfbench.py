"""Tests of the benchmark's tracing: run with
``python3 -m pytest perfbench/test_perfbench.py`` from the repository root."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import orthowall  # noqa: E402
from orthowall import connect, derive_params  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import ANCHOR, CORNER, Outcome, classify  # noqa: E402


def _namespaces():
    mods = [importlib.import_module(f"orthowall.{m}") for m in layers.MODULES]
    return [orthowall, *mods, connect.HeteroclinicProfile]


def _traced_anchor_solve():
    g, eps = ANCHOR
    tracer = layers.new_tracer()
    layers.install(tracer)
    try:
        connect.heteroclinic_solve(derive_params(eps, g))
    finally:
        tracer.uninstall()
    metrics = layers.layer_metrics(tracer, 1.0)
    return tracer, {k: v for k, (v, _) in metrics.items() if k in layers.EXACT}


def test_counts_repeat_and_wrappers_are_removed():
    before = [dict(vars(ns)) for ns in _namespaces()]
    first_tracer, first = _traced_anchor_solve()
    _, second = _traced_anchor_solve()
    after = [dict(vars(ns)) for ns in _namespaces()]

    assert first == second
    assert not first_tracer.installed
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(a[k] is b[k] for k in b)

    # sanity anchor at g=1.5, eps=0.1: 63 core shots, 2 tail solves, ~64k RHS
    assert first["connect.shots"] == 63
    assert first_tracer.counts()["ivp.tail.calls"] == 2
    assert 60_000 <= first["dynamics.vector_field.calls"] <= 68_000
    assert first["connect.right_windows"] == 1


def test_self_time_merges_overlapping_children():
    spans = [
        (1, "root", 0.0, 10.0, None, 0, "main"),
        (2, "a", 1.0, 4.0, 1, 0, "t1"),
        (3, "b", 3.0, 6.0, 1, 0, "t2"),
        (4, "c", 8.0, 9.0, 1, 0, "main"),
    ]
    own = self_times(spans)
    assert own[1] == 10.0 - 5.0 - 1.0
    assert own[2] == 3.0


def test_known_defects_do_not_hide_other_failures():
    def known(workload, cell, checks):
        return classify(workload, *cell, Outcome("op", 1.0, checks)).known

    nan = float("nan")
    assert known("solve-panel", (1.5, 0.02), {"rate_right_a_envelope": 0.2})
    assert not known("solve-panel", (1.5, 0.02),
                     {"rate_right_a_envelope": 0.2, "sup_w": 1e-7})
    assert known("solve-panel", CORNER, {"exit_1_insufficient_tail": nan})
    assert not known("solve-panel", ANCHOR, {"exit_1_insufficient_tail": nan})
    # the A envelope fit is known to miss only where it was seen to miss
    assert not known("solve-panel", (1.5, 0.2), {"rate_right_a_envelope": 0.2})
    assert not known("solve-panel", (1.5, 0.05), {"rate_right_a_envelope": 0.2})
    assert known("analysis", (2.0, 0.02), {"rate_right_a_envelope": 0.2})
    assert not known("analysis", (1.2, 0.1), {"rate_right_a_envelope": 0.2})

    # a miss larger than the ceiling seen at this commit is not the known defect
    assert known("analysis", (1.5, 0.05), {"orthogonality_defect": 2e-6})
    assert not known("analysis", (1.5, 0.05), {"orthogonality_defect": 1e-2})
    assert not known("analysis", (1.5, 0.05), {"pseudo_inverse_round_trip": 1e-4})
    assert not known("solve-panel", (1.5, 0.02), {"rate_right_a_envelope": 0.5})
    assert not known("solve-panel", (1.5, 0.02), {"rate_right_a_envelope": nan})
    assert known("solve-panel", (1.19, 0.2), {"junction_mismatch": 3e-5})
    assert not known("solve-panel", (1.19, 0.2), {"junction_mismatch": 9e-5})
