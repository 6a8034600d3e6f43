"""ngmlimit benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Each workload is a closed loop driven by one client: one process, one
thread, the next operation sent only after the previous one returned.
With ``--trace 0`` the run starts ``SETUPS`` fresh worker processes, times
each from spawn to the end of its warm-up operation (``setup_s`` is their
median), and lets the middle one run the timed loop for ``--seconds``. With
``--trace 1`` one worker runs the traced pass and the layer probes instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable summary. Every run also writes
``perfbench/results/<workload>-seed<N>-trace<T>.json`` with the environment
record. See perfbench/README.md for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RESULTS = BENCH / "results"
WORKLOADS = ("verify_suite", "r0_screen", "ladder_long")
# fresh processes timed for setup_s; fewer where the warm-up is a 4 s pass
SETUPS = {"verify_suite": 3, "r0_screen": 5, "ladder_long": 5}
DEADLINE_S = 170.0
# forced to 1 in every worker before NumPy loads
PINNED_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The timings are rescaled to the reference speed (perfbench/reference.py),
# which takes the host's speed drift out of them; the summary and the
# result file also give them in plain wall time.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s_at_ref": "1/s",
    "op_p50_ms_at_ref": "ms",
    "op_p90_ms_at_ref": "ms",
    "peak_rss_mb": "MiB",
}
WALL = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}


class BenchError(RuntimeError):
    pass


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "scipy": _version("scipy"),
        "commit": _git_commit(),
        "seed": seed,
        "pinned_env": {var: "1" for var in PINNED_ENV},
    }


def spawn(mode: str, workload: str, seed: int, seconds: float,
          deadline: float) -> tuple[float, "dict | None"]:
    """Run one worker; returns (seconds from spawn to READY, its result)."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, workload,
           str(seed), repr(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited with code "
                         f"{proc.returncode}")
    if mode == "setup":
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        from layers import per_layer_spec

        _, raw = spawn("trace", workload, seed, seconds, deadline)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        values = {name: raw[name] for name in units}
    else:
        # set-up processes run before and after the timed one, so their
        # median spans the whole run's drift in machine speed
        extra = SETUPS[workload] - 1
        setups = [spawn("setup", workload, seed, seconds, deadline)[0]
                  for _ in range(extra // 2)]
        timed_setup, raw = spawn("timed", workload, seed, seconds, deadline)
        setups.append(timed_setup)
        setups += [spawn("setup", workload, seed, seconds, deadline)[0]
                   for _ in range(extra - extra // 2)]
        raw["setup_s"] = statistics.median(setups)
        raw["setup_runs_s"] = setups
        units = END_TO_END
        values = {name: raw[name] for name in units}
    line = {
        "correct": raw["failed"] == 0 and raw["warmup_failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    env = environment(seed)
    record = {"workload": workload, "seconds": seconds, "trace": trace,
              "environment": env, "result": line, "raw": raw}
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    summarize(workload, seed, trace, line, raw, env, out)
    return line


def summarize(workload: str, seed: int, trace: bool, line: dict, raw: dict,
              env: dict, out: Path) -> None:
    print(f"== {workload}  seed={seed}  trace={int(trace)}  "
          f"correct={line['correct']}")
    rows = [(name, m["value"], m["unit"]) for name, m in
            line["metrics"].items()]
    if not trace:
        rows += [(name, raw[name], unit) for name, unit in WALL.items()]
    for name, value, unit in rows:
        note = ""
        if name == "setup_s":
            note = f"  median of {SETUPS[workload]} fresh processes"
        elif name.startswith("op_p90_ms"):
            beyond = int(raw["samples"] * 0.1)
            note = f"  {raw['samples']} samples, {beyond} beyond p90"
        elif name == "ops_per_s":
            note = "  wall time, not rescaled"
        print(f"  {name:<44} {value:>14.6g} {unit}{note}")
    if not trace:
        low, high = raw["slice_ms_p10_p90"]
        print(f"  reference slice: median {raw['slice_ms_p50']:.4g} ms, "
              f"p10-p90 {low:.4g}-{high:.4g} ms over {raw['slices']} "
              f"slices (rescaled to {raw['slice_ms_nominal']:g} ms)")
    attempted, failed = line["attempted"], line["failed"]
    print(f"  {'fail_ratio':<44} {failed / attempted:>14.6g} "
          f"({failed} failed / {attempted} attempted)")
    if raw.get("report_sha256"):
        print(f"  verify report sha256: {raw['report_sha256']}")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in env.items()
                                 if k != "pinned_env")
          + ", pinned " + " ".join(f"{k}=1" for k in env["pinned_env"]))
    print(f"  results: {out.relative_to(ROOT)}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ngmlimit" / "__init__.py").is_file():
        print(f"no ngmlimit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            lines[name] = run_one(name, args.seed, args.seconds,
                                  bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(lines) == 1:
        final = lines[names[0]]
    else:
        final = {
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}.{m}": v for w, l in lines.items()
                        for m, v in l["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
