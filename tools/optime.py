"""Interleaved timing of one benchmark pool's ops in two trees.

Times the ops of one ``perfbench/workloads.py`` pool against the
``ngmlimit`` package under each of two ``--src`` directories, A then B::

    python tools/optime.py --src ../base/src --src src \\
        --workload ladder_long [--seed 42] [--rounds 10] [--passes 7]

Each round starts one fresh process per tree, alternating which tree goes
first, with BLAS threads pinned to 1. A process draws the pool at
``--seed``, runs every op once through the workload's own check, exiting
nonzero on a failed check, then times ``--passes`` passes over the pool
and prints the best, in µs per op. This script prints each round, each
tree's median and the rounds each tree won.

``perfbench/workloads.py`` is read from the checkout this script sits in,
whichever ``--src`` is given, so both trees run the same ops. The figures
are per-op loop timings in one process, not the benchmark's end-to-end
metrics.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("r0_screen", "ladder_long")
# set to 1 in every timed process before NumPy loads
PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def best_pass(src: Path, name: str, seed: int, passes: int) -> float:
    """In this process: check every op of the pool once, then return the
    best of ``passes`` timed passes over it, in µs per op."""
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    loaded = Path(importlib.import_module("ngmlimit").__file__).resolve()
    if src not in loaded.parents:
        sys.exit(f"ngmlimit was imported from {loaded}, not from {src}")
    workload = importlib.import_module("workloads").WORKLOADS[name](seed)
    ops = range(len(workload.cases))
    for k in ops:
        reason = workload.check(k, workload.op(k))
        if reason is not None:
            sys.exit(f"{name} seed={seed} op={k} failed its check: {reason}")
    best = math.inf
    for _ in range(passes):
        start = time.perf_counter()
        for k in ops:
            workload.op(k)
        best = min(best, time.perf_counter() - start)
    return best / len(ops) * 1e6


def timed_process(src: Path, args) -> float:
    """:func:`best_pass` of ``src`` in a fresh process."""
    env = {**os.environ, **dict.fromkeys(PINNED_ENV, "1")}
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(src),
         "--workload", args.workload, "--seed", str(args.seed),
         "--passes", str(args.passes)],
        env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{src}: the timed process exited {proc.returncode}")
    return float(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", action="append", type=Path, default=[],
                        help="directory holding an ngmlimit package; give "
                             "two, A then B")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--passes", type=int, default=7)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.passes < 1:
        parser.error("--rounds and --passes must be at least 1")
    if args.child is not None:
        best = best_pass(args.child.resolve(), args.workload, args.seed,
                         args.passes)
        print(f"{best:.3f}")
        return 0
    if len(args.src) != 2:
        parser.error("give --src twice: tree A, then tree B")
    trees = dict(zip("AB", (src.resolve() for src in args.src)))
    for src in trees.values():
        if not (src / "ngmlimit" / "__init__.py").is_file():
            parser.error(f"no ngmlimit package under {src}")

    print(f"{args.workload} seed={args.seed}, best of {args.passes} "
          f"passes per process, µs/op")
    for label, src in trees.items():
        print(f"{label} = {src}")
    times = {"A": [], "B": []}
    for r in range(args.rounds):
        order = "AB" if r % 2 == 0 else "BA"
        for label in order:
            times[label].append(timed_process(trees[label], args))
        print(f"round {r + 1} ({order[0]} first): "
              f"A {times['A'][-1]:.1f}  B {times['B'][-1]:.1f}")
    median_a = statistics.median(times["A"])
    median_b = statistics.median(times["B"])
    print(f"median: A {median_a:.1f}  B {median_b:.1f}  "
          f"B/A {median_b / median_a:.4f}")
    wins_a = sum(a < b for a, b in zip(times["A"], times["B"]))
    wins_b = sum(b < a for a, b in zip(times["A"], times["B"]))
    print(f"faster in: A {wins_a}  B {wins_b} of {args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
