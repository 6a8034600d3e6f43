"""Print every checked result as keyed lines, floats in hex; compare two
such prints against the keys a change declares it moves.

Runs, against the ``ngmlimit`` package under ``--src``, every record that
a change must leave bit for bit, and prints one line per field of each
record: a key that names the record and the field, a tab, then the
field's value. Keys are unique, and a field that holds a sequence of
floats (a report's errors, a matrix's entries) is one line. The
sections, in order:

* the ``r0_screen`` and ``ladder_long`` op results of the pools that
  ``perfbench/workloads.py`` draws at seeds 42 and 7 (:func:`op_results`);
* the relapse builder's F, V, ``V_inv`` and labels on those pools
  (:func:`builder_blocks`);
* the ``verify --seed 42`` report (:func:`verify_report`);
* the stdout of seventeen ``r0``, ``ngm`` and ``sweep`` runs
  (:func:`cli_outputs`);
* spectra, inverses, removal ladders and last-stage kernels that no
  command prints (:func:`spectra`).

Everything runs in this process. Two trees that print the same bytes give
the same result, bit for bit, on every one of these inputs; where they
differ, the diff names the records that moved::

    python tools/fingerprint.py --src src > head.txt
    python tools/fingerprint.py --src ../base/src > base.txt
    diff base.txt head.txt

``perfbench/workloads.py`` is read from the checkout this script sits
in, whichever ``--src`` is given, so both runs make the same ops.

``--compare BASE HEAD --moves FILE`` reads two such prints and the keys a
change declares it moves: FILE holds one glob per line, then ``#`` and
the reason (``*`` matches any run of characters, ``?`` any one, and
everything else itself; blank lines and lines starting with ``#`` are
skipped). It prints the moved keys (a changed value, or a key in one
print only) grouped by the glob that matches them, and exits 1 where a
moved key matches no glob or a glob matches no moved key::

    python tools/fingerprint.py --compare base.txt head.txt \
        --moves tools/fingerprint-moves.txt
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("r0_screen", "ladder_long")
SEEDS = (42, 7)

UNCOUPLED = {
    "model": {
        "kind": "uncoupled",
        "host": {"c": 1.0, "s_bar": 1.0, "alpha": [2.0, 1.0], "mu": [1.0]},
        "vector": {"f": 1.0, "c_v": 1.0, "s_v_bar": 1.0, "mu_tilde": 1.0},
    },
    "remove_stage": 1,
}
COUPLED = {
    "model": {
        "kind": "coupled",
        "host1": {"c": 1.1, "s_bar": 0.8, "alpha": [1.5, 2.0, 0.3],
                  "mu": [0.6, 1.2]},
        "host2": {"c": 0.7, "s_bar": 1.3, "alpha": [2.0, 1.1, 0.7, 0.9],
                  "mu": [0.9, 0.4, 0.5]},
        "vector": {"f": 1.3, "c_v": 0.8, "s_v_bar": 1.5, "mu_tilde": 0.7},
    },
    "remove_stage": 2,
}
LOWER_SINK = {"matrix": [[3, 0, 0, 0], [-1, 2, 0, 0], [0, -1, 4, 0],
                         [0, 0, -2, 5]],
              "index": 4}
LOWER_MIDDLE = {**LOWER_SINK, "index": 2}
CONFIGS = {
    "uncoupled": UNCOUPLED,
    "coupled": COUPLED,
    "coupled-stage1": {**COUPLED, "remove_stage": 1},
    "coupled-stage4": {**COUPLED, "remove_stage": 4},
    "coupled-stage5": {**COUPLED, "remove_stage": 5},
    "coupled-stage4-one": {**COUPLED, "remove_stage": 4,
                           "schedule": [1000]},
    "lower-sink": LOWER_SINK,
    "lower-middle": LOWER_MIDDLE,
    "lower-middle-one": {**LOWER_MIDDLE, "schedule": [1000]},
    "lower-swap": {"matrix": [[1, 0, 0], [3, 2, 0], [0, 1, 4]], "index": 3},
    "raw": {"ngm": {"f": [[0, 1.5, 0.2], [0.4, 0, 0], [0.3, 0.1, 0]],
                    "v": [[2, -0.5, 0], [-1, 3, -0.2], [0, -0.4, 1.5]],
                    "labels": ["E", "I", "A"]}},
    "coupled-wide": {"model": {
        "kind": "coupled",
        "host1": {"c": 1.1, "s_bar": 0.8,
                  "alpha": [0.002, 350.0, 0.04, 12.0, 0.0015, 800.0, 0.3],
                  "mu": [25.0, 0.001, 4.5, 0.07, 600.0, 0.9]},
        "host2": {"c": 0.7, "s_bar": 1.3,
                  "alpha": [90.0, 0.005, 1.7, 0.0025, 240.0, 0.6, 30.0],
                  "mu": [0.003, 75.0, 0.02, 950.0, 0.11, 6.0]},
        "vector": {"f": 2.5, "c_v": 0.8, "s_v_bar": 1.5, "mu_tilde": 0.05},
    }},
}
CLI_RUNS = (
    "uncoupled:r0", "uncoupled:ngm", "uncoupled:sweep",
    "coupled:r0", "coupled:ngm", "coupled:sweep",
    "coupled-stage1:sweep", "coupled-stage4:sweep", "coupled-stage5:sweep",
    "lower-sink:sweep", "lower-middle:sweep", "lower-swap:sweep",
    "coupled-stage4-one:sweep", "lower-middle-one:sweep",
    "raw:r0", "coupled-wide:r0", "coupled-wide:ngm",
)


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


def _hexes(values) -> str:
    return " ".join(v.hex() for v in values)


def _pools():
    """``(name, seed, workload)`` for each benchmark pool."""
    workloads = importlib.import_module("workloads")
    for name in WORKLOADS:
        for seed in SEEDS:
            yield name, seed, workloads.WORKLOADS[name](seed)


def op_results():
    """Each pool op's check, then every field of its result by name."""
    for name, seed, workload in _pools():
        for k in range(len(workload.cases)):
            op = f"{name} seed={seed} op={k}"
            result = workload.op(k)
            yield (f"{op} check",
                   "ok" if workload.check(k, result) is None else "failed")
            for key, text in fields("result", result):
                yield f"{op} {key}", text


def _pool_pairs(name: str, workload):
    """The relapse pair that each case of the pool builds."""
    import ngmlimit as nl
    if name == "r0_screen":
        for case in workload.cases:
            if len(case.hosts) == 2:
                h1, h2 = case.hosts
                yield nl.build_coupled_ngm(h1, h2, case.vec,
                                           h1.stages, h2.stages)
            else:
                (h,) = case.hosts
                yield nl.build_uncoupled_ngm(h, case.vec, h.stages)
    else:
        for c in workload.cases:
            yield nl.build_coupled_ngm(c.host1, c.host2, c.vec, c.j, c.j)


def builder_blocks():
    """Labels and one SHA-256 of the bytes of each of F, V and ``V_inv``
    for every pool pair, so a moved sign of a zero shows too."""
    for name, seed, workload in _pools():
        for k, pair in enumerate(_pool_pairs(name, workload)):
            key = f"builder {name} seed={seed} pair={k}"
            yield f"{key} labels", ",".join(pair.labels)
            for block in ("F", "V", "V_inv"):
                yield f"{key} {block}", hashlib.sha256(
                    getattr(pair, block).to_numpy().tobytes()).hexdigest()


# a JSON member's line in an indented dump: its name
_MEMBER = re.compile(r'\s*"([^"]*)":')


def _stdout_lines(key: str, argv: list[str], stdin: str = ""):
    """Run ``ngmlimit ARGV``, dropping stderr; its exit code, then each
    stdout line, keyed by its number and, on a JSON member's line, by the
    member's name. The last line, after the final newline, is empty, so
    the lines joined by newlines are stdout."""
    from ngmlimit import cli
    out = io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdin = saved
    yield f"{key} exit", str(code)
    for k, line in enumerate(out.getvalue().split("\n")):
        member = _MEMBER.match(line)
        yield (f"{key} stdout[{k}]" + (f" {member[1]}" if member else ""),
               line)


def verify_report():
    """The ``verify --seed 42`` report. BLAS kernels differ by CPU, so two
    trees are compared on one machine, not against a fixed SHA-256."""
    yield from _stdout_lines("verify", ["verify", "--seed", "42"])


def cli_outputs():
    """``r0``, ``ngm`` and ``sweep`` on the README's uncoupled config and on
    a coupled config with unequal stage counts (``r0`` and ``ngm`` ignore
    ``remove_stage``).

    The coupled sweep also removes stages 1, 4 and 5: a chain's first or
    last stage deletes a row and column of V^-1 exactly, while stage 4,
    the middle of host2's chain, factors the minor. At a
    chain's last stage (uncoupled; coupled at 2 and 5) the schedule is
    factored as V(t)^-1 = D(t)^-1 L^-1; stages 1 and 4 stack the inverses.
    On lower-triangular raw matrices, ``lower-sink`` is factored, column 2
    of ``lower-middle`` stacks, and ``lower-swap`` needs a row swap. The
    one-point schedules invert one member whose varying column is nonzero
    below its diagonal. ``raw`` has NGMPair factor a V that is not
    triangular; ``coupled-wide`` spreads rates over 1e-3..1e3.
    """
    for run in CLI_RUNS:
        model, command = run.split(":")
        yield from _stdout_lines(f"cli {run}", [command, "--config", "-"],
                                 json.dumps(CONFIGS[model]))


def _report_fields(key: str, report):
    """A ConvergenceReport's errors, extrapolated errors, fitted rate and
    flags, one field each."""
    rate = report.fitted_rate
    yield f"{key}.errors", _hexes(report.errors)
    yield f"{key}.extrapolated_errors", _hexes(report.extrapolated_errors)
    yield f"{key}.fitted_rate", "None" if rate is None else rate.hex()
    yield f"{key}.flagged", " ".join(map(str, report.flagged))


def _random_hosts(rng, j: int):
    from ngmlimit import HostParams
    return [HostParams(1.0, 1.0,
                       tuple(rng.uniform(0.1, 3.0, j + 1).tolist()),
                       tuple(rng.uniform(0.1, 3.0, j).tolist()))
            for _ in range(2)]


def _relapse_checks(rng):
    """r0 and the threshold check's r0, abscissa and flags on 500 relapse
    pairs with the check called first, with ``inverse(V)`` from the general
    LU kernel, and on 500 more with r0 first, as the r0 screen calls them:
    a pair keeps its radius, and the check makes one eigenvalue call."""
    from ngmlimit import dfe_threshold_check, inverse, r0
    from ngmlimit.verify import random_relapse_pair
    for k in range(500):
        pair = random_relapse_pair(rng)[0]
        report = dfe_threshold_check(pair)
        yield f"check_first[{k}].r0", r0(pair).hex()
        yield from fields(f"check_first[{k}].check", report)
        yield f"check_first[{k}].inverse", _hexes(inverse(pair.V).data)
    for k in range(500):
        pair = random_relapse_pair(rng)[0]
        value = r0(pair)
        report = dfe_threshold_check(pair)
        yield f"r0_first[{k}].r0", value.hex()
        yield from fields(f"r0_first[{k}].check", report)


def _dense_spectra(rng):
    """Radius, abscissa and every eigenvalue of 500 seeded dense matrices,
    a third symmetric, and of 100 half-integer ones, a third skew with
    zeros of either sign on the diagonal and half with a zeroed first row
    and column, whose abscissa is often a signed zero; then the stacked
    radii of (9, n, n) stacks that mix symmetric and nonsymmetric members."""
    from ngmlimit import (Matrix, eigenvalues, spectral_abscissa,
                          spectral_radius)
    from ngmlimit.eigen import _eigvals, _max_modulus
    dense = []
    for k in range(500):
        a = rng.uniform(-1.0, 1.0, (1 + k % 12, 1 + k % 12))
        if k % 3 == 0:
            a = a + a.T
        dense.append(a)
    for k in range(100):
        n = 2 + k % 5
        a = np.round(rng.uniform(-1.0, 1.0, (n, n)) * 2.0) / 2.0
        if k % 3 == 0:
            a = a - a.T
            np.fill_diagonal(a, rng.choice([-0.0, 0.0], n))
        if k % 2:
            a[0] = a[:, 0] = 0.0
        dense.append(a)
    for k, a in enumerate(dense):
        m = Matrix(a.tolist())
        yield f"dense[{k}].radius", spectral_radius(m).hex()
        yield f"dense[{k}].abscissa", spectral_abscissa(m).hex()
        yield f"dense[{k}].eigenvalues", " ".join(
            f"{v.real.hex()},{v.imag.hex()}" for v in eigenvalues(m))
    for n in range(1, 13):
        stack = rng.uniform(-1.0, 1.0, (9, n, n))
        stack[::3] += stack[::3].transpose(0, 2, 1)
        yield (f"stacked[{n}].radii",
               _hexes(_max_modulus(_eigvals(stack)).tolist()))


def _inverses(rng):
    """``inverse(V)`` beside the builder's own V^-1 and F of coupled (j, j)
    pairs at j = 10, 20 and 40; ``inverse`` of 64 lower- and
    upper-triangular matrices, half with -0.0 for their zeros, where a
    skipped update or substitution row could move the sign of a zero."""
    from ngmlimit import Matrix, VectorParams, build_coupled_ngm, inverse
    vec = VectorParams(f=1.0, c_v=1.0, s_v_bar=1.0, mu_tilde=0.7)
    for j in (10, 20, 40):
        pair = build_coupled_ngm(*_random_hosts(rng, j), vec, j, j)
        yield f"coupled[{j}].inverse", _hexes(inverse(pair.V).data)
        yield f"coupled[{j}].V_inv", _hexes(pair.V_inv.data)
        yield f"coupled[{j}].F", _hexes(pair.F.data)
    for k in range(64):
        n = 2 + k % 8
        a = rng.uniform(-1.0, 1.0, (n, n)) + 3.0 * np.eye(n)
        zeros = (np.triu_indices(n, 1) if k % 4 < 2
                 else np.tril_indices(n, -1))
        a[zeros] = -0.0 if k % 2 else 0.0
        yield (f"triangular[{k}].inverse",
               _hexes(inverse(Matrix(a.tolist())).data))


def _ladders(rng):
    """On coupled (j, j) pairs at j = 2, 10, 20 and 40: every step of a
    removal ladder down to one species-1 stage (errors, extrapolated
    errors, fitted rate, flags), each a deletion from V^-1 and a rate fit;
    ``spectral_limit`` with no target at each species' last stage and at
    a middle species-1 stage, where the stacked kernel inverts a sparse
    V(t); and the reduced V^-1 of removing the first, a middle (factored)
    and the last species-1 stage."""
    from ngmlimit import (DiagonalRay, VectorParams, build_coupled_ngm,
                          relapse_limit_experiment, remove_compartment,
                          spectral_limit)
    vec = VectorParams(f=1.0, c_v=1.0, s_v_bar=1.0, mu_tilde=0.7)
    for j in (2, 10, 20, 40):
        hosts = _random_hosts(rng, j)
        steps = relapse_limit_experiment(*hosts, vec, j, k_final=1)
        for m, step in enumerate(steps):
            key = f"ladder[{j}].step[{m}]"
            yield f"{key}.stage", str(step.stage)
            yield f"{key}.target", step.target.hex()
            yield from _report_fields(f"{key}.report", step.report)
        pair = build_coupled_ngm(*hosts, vec, j, j)
        for i in sorted({j // 2 + 1, j, 2 * j}):
            estimate, report = spectral_limit(pair.F, DiagonalRay(pair.V, i))
            yield f"ladder[{j}].limit[{i}].estimate", estimate.hex()
            yield from _report_fields(f"ladder[{j}].limit[{i}].report", report)
        for stage in sorted({1, j // 2 + 1, j}):
            reduced = remove_compartment(pair, stage)
            yield (f"ladder[{j}].removal[{stage}].V_inv",
                   _hexes(reduced.V_inv.data))


def _boundary_rays(rng):
    """The last-stage kernel's usable points, flags, kept rows and row i,
    and ``spectral_limit``'s errors, on 30 swap-free bidiagonal rays with
    pivots of both signs (i = 1 for a third) over t = 1e-320..1e300, every
    half decade from 1e-16 to 1e16: the sums over the ray cross the
    singularity floor at the low end and pass a fixed pivot at the high
    end."""
    from ngmlimit import DiagonalRay, Matrix, spectral_limit
    from ngmlimit.minorlimit import _last_stage_schedule, exact_minor_inverse
    ts = tuple(np.unique(10.0 ** np.concatenate((
        np.arange(-320.0, 301.0, 20.0), np.arange(-16.0, 16.5, 0.5)))
                         ).tolist())
    for k in range(30):
        n = 2 + k % 7
        c = 0 if k % 3 == 0 else int(rng.integers(0, n))
        pivots = (rng.choice([-1.0, 1.0], n)
                  * 10.0 ** rng.uniform(-4.0, 4.0, n))
        below = pivots[:-1] * rng.uniform(-1.0, 1.0, n - 1)
        below[c:c + 1] = 0.0
        ray = DiagonalRay(Matrix(np.diag(pivots).tolist())
                          + Matrix(np.diag(below, -1).tolist()), c + 1)
        kept, last, usable, flags = _last_stage_schedule(
            ray, ts, exact_minor_inverse(ray))
        key = f"boundary[{k}].kernel"
        yield f"{key}.i", str(c + 1)
        yield f"{key}.usable", "".join(str(int(u)) for u in usable)
        yield f"{key}.flags", "".join(str(int(f)) for f in flags)
        yield f"{key}.kept", _hexes(kept.ravel().tolist())
        yield f"{key}.last", _hexes(last.ravel().tolist())
        f = Matrix(rng.uniform(0.0, 1.0, (n, n)).tolist())
        estimate, report = spectral_limit(f, ray, ts)
        yield f"boundary[{k}].limit.estimate", estimate.hex()
        yield from _report_fields(f"boundary[{k}].limit.report", report)


def spectra():
    """Records that no command prints, drawn in turn from one generator
    seeded 42, each key prefixed with ``spectra``."""
    rng = np.random.default_rng(42)
    for part in (_relapse_checks, _dense_spectra, _inverses, _ladders,
                 _boundary_rays):
        for key, text in part(rng):
            yield f"spectra {key}", text


# Each section imports ngmlimit as it runs, after main has put --src first
# on sys.path.
SECTIONS = (op_results, builder_blocks, verify_report, cli_outputs, spectra)


def read_print(path: Path) -> dict[str, str]:
    """KEY -> VALUE of every line of a print, in its order."""
    records = {}
    for n, line in enumerate(path.read_text().splitlines(), 1):
        key, tab, value = line.partition("\t")
        if not tab or key in records:
            raise ValueError(f"{path}:{n}: not a line with a new key")
        records[key] = value
    return records


def read_moves(path: Path) -> list[tuple[str, str]]:
    """``(glob, reason)`` for each declared line of a moves file."""
    moves = []
    for n, line in enumerate(path.read_text().splitlines(), 1):
        glob, _, reason = line.partition("#")
        if not glob.strip():
            continue
        if not reason.strip():
            raise ValueError(f"{path}:{n}: a glob needs a '#' reason")
        moves.append((glob.strip(), reason.strip()))
    return moves


def _matcher(glob: str):
    """Full match of ``glob``: ``*`` any run, ``?`` any one character."""
    return re.compile("".join(
        ".*" if ch == "*" else "." if ch == "?" else re.escape(ch)
        for ch in glob), re.S).fullmatch


# moved keys listed per group; the count is always given
SHOWN = 200


def compare(base: dict[str, str], head: dict[str, str],
            moves: list[tuple[str, str]]):
    """The report lines and the verdict of two prints against the
    declared moves: every moved key, at most SHOWN per group, under the
    first glob that matches it; False where a moved key matches no glob
    or a glob matches no moved key."""
    moved = [key for key in base if head.get(key) != base[key]]
    moved += [key for key in head if key not in base]
    matchers = [_matcher(glob) for glob, _ in moves]
    groups = {glob: [] for glob, _ in moves}
    used, unmatched = set(), []
    for key in moved:
        hits = [glob for (glob, _), match in zip(moves, matchers)
                if match(key)]
        used.update(hits)
        (groups[hits[0]] if hits else unmatched).append(key)
    lines = [f"{len(moved)} moved keys, {len(moves)} declared globs"]
    for glob, reason in moves:
        lines.append(f"{glob}  # {reason}: {len(groups[glob])} keys")
        lines += [f"  {key}" for key in groups[glob][:SHOWN]]
    if unmatched:
        lines.append(f"FAILED: {len(unmatched)} moved keys match no glob")
        lines += [f"  {key}" for key in unmatched[:SHOWN]]
    unused = [glob for glob, _ in moves if glob not in used]
    for glob in unused:
        lines.append(f"FAILED: glob {glob!r} matches no moved key")
    if max(map(len, (*groups.values(), unmatched))) > SHOWN:
        lines.append(f"(each group lists its first {SHOWN} keys)")
    return lines, not unmatched and not unused


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--src", type=Path,
                      help="directory holding the ngmlimit package")
    mode.add_argument("--compare", nargs=2, type=Path,
                      metavar=("BASE", "HEAD"), help="two prints to compare")
    parser.add_argument("--moves", type=Path,
                        help="with --compare: the declared moves")
    args = parser.parse_args(argv)
    if args.compare:
        moves = read_moves(args.moves) if args.moves else []
        lines, ok = compare(*map(read_print, args.compare), moves)
        print("\n".join(lines))
        return 0 if ok else 1
    src = args.src.resolve()
    if not (src / "ngmlimit" / "__init__.py").is_file():
        parser.error(f"no ngmlimit package under {src}")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    loaded = Path(importlib.import_module("ngmlimit").__file__).resolve()
    if src not in loaded.parents:
        parser.error(f"ngmlimit was imported from {loaded}, not from {src}")
    for section in SECTIONS:
        for key, value in section():
            print(f"{key}\t{value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
