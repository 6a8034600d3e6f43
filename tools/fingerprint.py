"""Print every benchmark op result as one keyed line, floats in hex.

Runs each ``r0_screen`` and ``ladder_long`` operation of the pools that
``perfbench/workloads.py`` draws at seeds 42 and 7, once each, against
the ``ngmlimit`` package under ``--src``, and prints one line per result:
the workload, seed and op index, then every field of the result by name,
each float as ``float.hex()``. Two trees that print the same bytes give
the same result, bit for bit, on every benchmark input::

    python tools/fingerprint.py --src src > head.txt
    python tools/fingerprint.py --src ../base/src > base.txt
    cmp base.txt head.txt

``perfbench/workloads.py`` is read from the checkout this script sits
in, whichever ``--src`` is given, so both runs make the same ops.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("r0_screen", "ladder_long")
SEEDS = (42, 7)


def fields(name: str, value):
    """``(key, text)`` for every scalar inside ``value``: floats in hex,
    dataclasses by field name, sequences by position."""
    if isinstance(value, float):
        yield name, value.hex()
    elif isinstance(value, (bool, int, str)) or value is None:
        yield name, repr(value)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from fields(f"{name}.{f.name}", getattr(value, f.name))
    elif isinstance(value, (tuple, list)):
        for k, item in enumerate(value):
            yield from fields(f"{name}[{k}]", item)
    else:
        raise TypeError(f"{name}: cannot fingerprint {type(value).__name__}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory holding the ngmlimit package")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "ngmlimit" / "__init__.py").is_file():
        parser.error(f"no ngmlimit package under {src}")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    loaded = Path(importlib.import_module("ngmlimit").__file__).resolve()
    if src not in loaded.parents:
        parser.error(f"ngmlimit was imported from {loaded}, not from {src}")
    workloads = importlib.import_module("workloads")
    for name in WORKLOADS:
        for seed in SEEDS:
            workload = workloads.WORKLOADS[name](seed)
            for k in range(len(workload.cases)):
                result = workload.op(k)
                check = "ok" if workload.check(k, result) is None else "failed"
                print(f"{name} seed={seed} op={k} check={check}",
                      *(f"{key}={text}"
                        for key, text in fields("result", result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
