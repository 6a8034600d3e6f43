"""Self-tests of the benchmark: its output gates count wrong results, the
tracer restores what it wraps and its counts repeat, and the metric names
agree with BENCHMARK.json.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
They are not part of the library's test suite.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import ngmlimit  # noqa: E402
from layers import per_layer_spec  # noqa: E402
from reference import NOMINAL_SLICE_S, scale_factors  # noqa: E402
from run import END_TO_END  # noqa: E402
from tracer import ROOT_SPAN, Tracer  # noqa: E402
from worker import Gate, timed  # noqa: E402
from workloads import LadderLong, R0Screen, VerifySuite  # noqa: E402


def _corrupt(workload, k: int, factor: float) -> None:
    """Scale the expected value of the input behind op k."""
    cases = workload.cases
    i = k % len(cases)
    cases[i] = dataclasses.replace(cases[i],
                                   expected=cases[i].expected * factor)


@pytest.mark.parametrize("factory, ops", [(R0Screen, 40), (LadderLong, 3)])
def test_gate_counts_a_wrong_target(factory, ops):
    workload = factory(7)
    gate = Gate(workload)
    for k in range(ops):
        gate.run(k)
    assert (gate.attempted, gate.failed) == (ops, 0)
    _corrupt(workload, 1, 1.0 + 1e-6)
    for k in range(ops):
        gate.run(k)
    assert (gate.attempted, gate.failed) == (2 * ops, 1)


def test_r0_gate_catches_the_wrong_side_of_one():
    workload = R0Screen(7)
    k = next(k for k, c in enumerate(workload.cases)
             if 1.0 < c.expected < 1.0 + 1e-3)
    value, threshold, closed = workload.op(k)
    assert workload.check(k, (value, threshold, closed)) is None
    flipped = dataclasses.replace(threshold, r0=2.0 - threshold.r0)
    assert workload.check(k, (value, flipped, closed)) is not None


def test_ladder_gate_catches_a_poor_extrapolation():
    workload = LadderLong(7)
    step, exact = workload.op(0)
    poor = dataclasses.replace(step, final_extrapolated_error=1e-6)
    assert workload.check(0, (step, exact)) is None
    assert workload.check(0, (poor, exact)) is not None


def test_verify_gate_counts_a_changed_report_and_a_failed_suite():
    workload = VerifySuite(42)
    gate = Gate(workload)
    gate.run(0)
    assert gate.failed == 0 and len(workload.digest()) == 64
    workload.reference = workload.reference.replace(b"true", b"false", 1)
    gate.run(1)
    assert gate.failed == 1
    workload.argv = workload.argv + ["--inject-fault",
                                     "builder-perturbation"]
    gate.run(2)
    assert (gate.attempted, gate.failed) == (3, 2)


def _traced_calls(ops: range) -> tuple[dict, Tracer]:
    gate = Gate(R0Screen(3))
    tracer = Tracer()
    tracer.install()
    try:
        for k in ops:
            gate.run(k, tracer.span(ROOT_SPAN, k))
    finally:
        tracer.uninstall()
    assert gate.failed == 0
    return {n: s["calls"] for n, s in tracer.summary().items()}, tracer


def test_tracer_restores_bindings_and_counts_repeat():
    before = {name: getattr(ngmlimit, name) for name in ngmlimit.__all__}
    post_init = ngmlimit.NGMPair.__post_init__
    first, tracer = _traced_calls(range(1, 60))
    second, _ = _traced_calls(range(1, 60))
    assert first == second
    assert first["densela.inverse"] > 0 and first["ngm.NGMPair"] > 0
    assert {n: getattr(ngmlimit, n) for n in ngmlimit.__all__} == before
    assert ngmlimit.NGMPair.__post_init__ is post_init

    # per op, self times of all spans add up to the root span's duration
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    summary = tracer.summary()
    total_self = sum(s["self_s"] for s in summary.values())
    root = summary[ROOT_SPAN]
    assert total_self == pytest.approx(root["s"], rel=1e-9)
    assert root["calls"] == 59 and (dur >= 0).all()


def test_scale_factors_follow_the_slices_around_each_stretch():
    nominal = NOMINAL_SLICE_S
    # speed halves after the third slice; one slice is hit by an interrupt
    slices = [nominal] * 3 + [2 * nominal] * 3 + [9 * nominal] + [2 * nominal] * 3
    factors = scale_factors(slices, len(slices) - 1)
    assert factors[:2] == [1.0, 1.0]
    assert factors[-4:] == [0.5] * 4


def test_timed_loop_rescales_by_the_measured_speed():
    gate = Gate(R0Screen(7))
    raw = timed(gate, 0.5)
    assert gate.failed == 0 and raw["samples"] == gate.attempted > 0
    assert raw["slices"] >= 2
    # on a machine at the nominal speed the two kinds of timing coincide;
    # otherwise they differ by about the slice's own slowdown
    ratio = raw["op_p50_ms"] / raw["op_p50_ms_at_ref"]
    slowdown = raw["slice_ms_p50"] / raw["slice_ms_nominal"]
    assert ratio == pytest.approx(slowdown, rel=0.3)


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(
        END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == per_layer_spec()


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "r0_screen",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
