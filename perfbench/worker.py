"""One benchmark process: set up a workload, then time it or trace it.

Started by ``run.py`` as ``python3 perfbench/worker.py MODE WORKLOAD SEED
SECONDS``. It prints ``READY`` once set-up (imports, inputs, one warm-up
operation) is done, so the parent can time set-up from process start, and
then, unless MODE is ``setup``, one JSON line with the measurements.

MODE ``timed`` runs a closed loop, one operation after another on this one
thread, for SECONDS, timing slices of reference work in between (see
``timed``). MODE ``trace`` ignores WORKLOAD and SECONDS: for every
workload it runs that workload's fixed list of ``trace_ops`` operations
once untraced and once traced, in alternating blocks, so call counts
repeat exactly for a seed; then the size-swept probes.
"""

from __future__ import annotations

import os

from run import PINNED_ENV, RESULTS, ROOT

# Pin BLAS/OpenMP pools before NumPy loads, so the numbers measure ngmlimit
# and not thread scheduling on a small machine.
for _var in PINNED_ENV:
    os.environ[_var] = "1"

import contextlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

TRACE_BLOCKS = 8
# sample buffer per second of timed loop; r0_screen runs about 1,500 ops/s
SAMPLES_PER_S = 5000


def _import_library() -> float:
    """Import ngmlimit.cli from this checkout's src/; returns seconds."""
    src = ROOT / "src"
    if not (src / "ngmlimit" / "__init__.py").is_file():
        sys.exit(f"no ngmlimit sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    importlib.import_module("ngmlimit.cli")
    elapsed = time.perf_counter() - t0
    loaded = Path(sys.modules["ngmlimit"].__file__).resolve()
    if src.resolve() not in loaded.parents:
        sys.exit(f"ngmlimit was imported from {loaded}, not from {src}")
    return elapsed


class Gate:
    """Counts operations and the ones whose output check failed."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run(self, k: int, around=None) -> float:
        """Run and check operation k; returns the operation's seconds.

        ``around`` is a context manager entered around the operation only,
        not its check (the traced run's root span)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with around or contextlib.nullcontext():
                result = self.workload.op(k)
        except Exception as exc:  # a raising op is a failed op, not a crash
            elapsed = time.perf_counter() - t0
            self._fail(k, f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - t0
        reason = self.workload.check(k, result)
        if reason is not None:
            self._fail(k, reason)
        return elapsed

    def _fail(self, k: int, reason: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"op {k} failed: {reason}", file=sys.stderr)


def _quantiles_in_place(a, qs: "tuple[float, ...]") -> list[float]:
    """Linear-interpolation quantiles (``statistics`` "inclusive") of a
    NumPy array, partitioning it in place instead of sorting a copy."""
    last = len(a) - 1
    ranks = sorted({int(q * last) for q in qs} | {min(int(q * last) + 1, last)
                                                  for q in qs})
    a.partition(ranks)
    out = []
    for q in qs:
        lo = int(q * last)
        hi = min(lo + 1, last)
        out.append(float(a[lo] + (a[hi] - a[lo]) * (q * last - lo)))
    return out


def timed(gate: Gate, seconds: float) -> dict:
    """Closed loop for ``seconds``, with a slice of reference work timed
    after every ``SLICE_EVERY_S`` of operations (see reference.py).

    The loop is cut into stretches of operations, one between each two
    slices. Wall metrics count the stretches only, not the slices; the
    ``*_at_ref`` metrics rescale each stretch and each of its operations
    by the machine speed the slices around it measured.

    Per-operation samples go into buffers sized and touched up front, so
    ``peak_rss_mb`` does not grow with the number of operations a run
    happens to fit in."""
    import numpy as np
    from reference import (NOMINAL_SLICE_S, SLICE_EVERY_S, scale_factors,
                           time_slice)

    capacity = max(4096, int(seconds * SAMPLES_PER_S))
    latencies = np.full(capacity, np.nan)
    scaled = np.full(capacity, np.nan)
    stretch_of = np.full(capacity, -1, dtype=np.int32)
    for _ in range(20):  # warm the slice's code paths
        time_slice()
    stretches = []
    slices = [time_slice()]
    begin = mark = time.perf_counter()
    n = 0
    while True:
        if n == capacity:
            capacity *= 2
            latencies = np.resize(latencies, capacity)
            scaled = np.resize(scaled, capacity)
            stretch_of = np.resize(stretch_of, capacity)
        latencies[n] = gate.run(n + 1)
        stretch_of[n] = len(stretches)
        n += 1
        now = time.perf_counter()
        if now - mark >= SLICE_EVERY_S:
            stretches.append(now - mark)
            slices.append(time_slice())
            mark = time.perf_counter()
            if mark - begin >= seconds:
                break
    factors = scale_factors(slices, len(stretches))
    wall, scaled = latencies[:n], scaled[:n]
    np.take(np.asarray(factors), stretch_of[:n], out=scaled)
    scaled *= wall
    passed = gate.attempted - gate.failed
    p50_ref, p90_ref = _quantiles_in_place(scaled, (0.5, 0.9))
    p50, p90 = _quantiles_in_place(wall, (0.5, 0.9))
    slice_p10, slice_p50, slice_p90 = _quantiles_in_place(
        np.array(slices), (0.1, 0.5, 0.9))
    return {
        "ops_per_s_at_ref": passed / sum(s * f for s, f in
                                         zip(stretches, factors)),
        "op_p50_ms_at_ref": p50_ref * 1e3,
        "op_p90_ms_at_ref": p90_ref * 1e3,
        "ops_per_s": passed / sum(stretches),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "slice_ms_nominal": NOMINAL_SLICE_S * 1e3,
        "slice_ms_p50": slice_p50 * 1e3,
        "slice_ms_p10_p90": [slice_p10 * 1e3, slice_p90 * 1e3],
        "slices": len(slices),
        "samples": n,
        "timed_s": mark - begin,
    }


def traced(gates: list[Gate], seed: int, import_s: float) -> dict:
    """Trace every workload's fixed op list, so every layer is exercised
    whichever workload was asked for; per-workload metrics go alongside."""
    from probes import run_probes
    from tracer import ROOT_SPAN, Tracer, layer_metrics

    RESULTS.mkdir(parents=True, exist_ok=True)
    tracers, per_workload = [], {}
    untraced_s = traced_s = 0.0
    for gate in gates:
        workload = gate.workload
        ops = list(range(1, workload.trace_ops + 1))
        step = -(-len(ops) // TRACE_BLOCKS)
        tracer = Tracer()
        untraced = spanned = 0.0
        # Alternate untraced and traced blocks of the same ops, so a change
        # in machine speed during the run falls on both sides of the ratio.
        for i in range(0, len(ops), step):
            block = ops[i:i + step]
            untraced += sum(gate.run(k) for k in block)
            tracer.install()
            try:
                spanned += sum(gate.run(k, tracer.span(ROOT_SPAN, k))
                               for k in block)
            finally:
                tracer.uninstall()
        tracer.save(RESULTS / f"spans-{workload.name}-seed{seed}.npz")
        per_workload[workload.name] = layer_metrics([tracer], import_s,
                                                    spanned / untraced)
        tracers.append(tracer)
        untraced_s += untraced
        traced_s += spanned
    metrics = layer_metrics(tracers, import_s, traced_s / untraced_s)
    metrics.update(run_probes(seed))
    metrics["per_workload"] = per_workload
    return metrics


def main(argv: list[str]) -> None:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    import_s = _import_library()
    from workloads import WORKLOADS

    names = list(WORKLOADS) if mode == "trace" else [name]
    gates = [Gate(WORKLOADS[n](seed)) for n in names]
    for gate in gates:
        gate.run(0)
    warmup_failed = sum(gate.failed for gate in gates)
    for gate in gates:
        gate.attempted = gate.failed = 0
    print("READY", flush=True)
    if mode == "setup":
        return
    if mode == "timed":
        result = timed(gates[0], seconds)
    else:
        result = traced(gates, seed, import_s)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update({
        "attempted": sum(gate.attempted for gate in gates),
        "failed": sum(gate.failed for gate in gates),
        "warmup_failed": warmup_failed,
        "peak_rss_mb": rss_kib / 1024.0,
        "import_s": import_s,
        "report_sha256": next((gate.workload.digest() for gate in gates
                               if gate.workload.name == "verify_suite"),
                              None),
    })
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
