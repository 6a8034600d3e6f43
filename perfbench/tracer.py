"""Call-boundary tracing of ngmlimit from outside the library.

``Tracer.install()`` replaces every public function named in the
``__all__`` of each traced module, at every place the ``ngmlimit.*``
namespaces bind it (``minorlimit.inverse`` as well as
``densela.inverse``), with a wrapper that records one span per call.
It also wraps ``cli.render_json`` and ``NGMPair.__post_init__`` (the
latter reported as ``ngm.NGMPair``). ``uninstall()`` puts the originals
back. Nothing under ``src/`` is edited.

A span is (name, start, end, parent span, op id, matrix size where the
metrics need it, raised: 1 for SingularMatrixError, 2 for any other
exception), kept in flat arrays in memory and written out by ``save()``.
Self time is a span's duration less the durations of its direct children;
spans nest strictly because the wrappers run on one thread. A recursive call to the function already on
top of the span stack (``render_json`` recursing into its values) runs
unwrapped, so it counts towards the outer call.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ngmlimit.errors import SingularMatrixError

from layers import CRITERIA, TIMED_FNS

TRACED_MODULES = ("densela", "eigen", "minorlimit", "ngm", "relapse",
                  "verify")
ROOT_SPAN = "bench.op"

# the rate fit is expected to find the O(1/t) exponent 1
RATE_WINDOW = (0.8, 1.2)


def _rows(args) -> int:
    return args[0].rows


class Tracer:
    """Spans and result counters of one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.points = 0
        self.points_flagged = 0
        self.rate_fit_off = 0
        self.verify_cases: dict[str, int] = {}

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, size: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.size.append(size)
        self.raised.append(0)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, name: str, fn, size_of=None, on_result=None):
        nid = self._intern(name)
        stack, name_id = self._stack, self.name_id
        start, end, raised = self.start, self.end, self.raised
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = self._open(nid, size_of(args) if size_of else 0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised[idx] = 1 if isinstance(exc, SingularMatrixError) else 2
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    @contextmanager
    def span(self, name: str, op_id: int):
        """The benchmark's own root span around one operation."""
        self.op_id = op_id
        idx = self._open(self._intern(name), 0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()

    # -- result hooks ------------------------------------------------------

    def _on_limit(self, result) -> None:
        report = result[1]
        self.points += len(report.schedule)
        self.points_flagged += sum(report.flagged)
        rate = report.fitted_rate
        if rate is None or not RATE_WINDOW[0] <= rate <= RATE_WINDOW[1]:
            self.rate_fit_off += 1

    def _on_criterion(self, result) -> None:
        self.verify_cases[result.name] = (
            self.verify_cases.get(result.name, 0) + result.cases)

    # -- installing --------------------------------------------------------

    def _hooks(self, module: str, name: str):
        if (module, name) in (("densela", "inverse"),
                              ("eigen", "eigenvalues")):
            return _rows, None
        if module == "minorlimit" and name in ("limit_minor_inverse",
                                               "spectral_limit"):
            return None, self._on_limit
        if module == "verify" and name.startswith("check_"):
            return None, self._on_criterion
        return None, None

    def _rebind(self, original, wrapper) -> None:
        """Point every ngmlimit.* binding of ``original`` at ``wrapper``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ngmlimit"
                                   or mod_name.startswith("ngmlimit.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self) -> None:
        for module in TRACED_MODULES:
            mod = importlib.import_module(f"ngmlimit.{module}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn):
                    continue
                size_of, on_result = self._hooks(module, name)
                self._rebind(fn, self.wrap(f"{module}.{name}", fn,
                                           size_of, on_result))
        cli = importlib.import_module("ngmlimit.cli")
        self._rebind(cli.render_json,
                     self.wrap("cli.render_json", cli.render_json))
        pair = importlib.import_module("ngmlimit.ngm").NGMPair
        post_init = pair.__post_init__
        pair.__post_init__ = self.wrap("ngm.NGMPair", post_init)
        self._restore.append((pair, "__post_init__", post_init))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        fields = ("name_id", "parent", "op", "size", "raised", "start", "end")
        return {f: np.frombuffer(getattr(self, f),
                                 dtype=getattr(self, f).typecode).copy()
                for f in fields}

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, and the
        size-derived sums the metrics need."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        ids = a["name_id"]
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur, minlength=k)
        selfs = np.bincount(ids, weights=self_s, minlength=k)
        n = a["size"].astype(np.float64)
        sum_n = np.bincount(ids, weights=n, minlength=k)
        sum_n3 = np.bincount(ids, weights=n ** 3, minlength=k)
        singular = np.bincount(ids, weights=(a["raised"] == 1), minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(incl[i]),
                       "self_s": float(selfs[i]), "sum_n": float(sum_n[i]),
                       "sum_n3": float(sum_n3[i]),
                       "singular": int(singular[i])}
                for i, name in enumerate(self.names)}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            **self.arrays())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracers: list[Tracer], import_s: float,
                  overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric except the probes, over the given tracers."""
    spans: dict[str, dict] = {}
    for tracer in tracers:
        for name, summary in tracer.summary().items():
            acc = spans.setdefault(name, dict.fromkeys(summary, 0))
            for key, value in summary.items():
                acc[key] += value
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "sum_n": 0.0,
             "sum_n3": 0.0, "singular": 0}

    def span(name: str) -> dict:
        return spans.get(name, empty)

    points = sum(t.points for t in tracers)
    flagged = sum(t.points_flagged for t in tracers)
    out: dict[str, float] = {}
    for module, fns in TIMED_FNS.items():
        for fn in fns:
            s = span(f"{module}.{fn}")
            out[f"{module}.{fn}.calls"] = s["calls"]
            out[f"{module}.{fn}.self_s"] = s["self_s"]
    inv, eig = span("densela.inverse"), span("eigen.eigenvalues")
    out["densela.inverse.raised"] = _ratio(inv["singular"], inv["calls"])
    out["densela.inverse.flops"] = 8.0 / 3.0 * inv["sum_n3"]
    out["eigen.eigenvalues.mean_n"] = _ratio(eig["sum_n"], eig["calls"])
    out["minorlimit.points"] = points
    out["minorlimit.points_flagged"] = flagged
    out["minorlimit.clean_ratio"] = _ratio(points - flagged, points)
    out["minorlimit.rate_fit_off"] = sum(t.rate_fit_off for t in tracers)
    for criterion in CRITERIA:
        out[f"verify.{criterion}.s"] = span(f"verify.check_{criterion}")["s"]
        out[f"verify.{criterion}.cases"] = sum(
            t.verify_cases.get(criterion, 0) for t in tracers)
    root = span(ROOT_SPAN)
    out["cli.import_s"] = import_s
    out["cli.render_json.self_s"] = span("cli.render_json")["self_s"]
    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.unattributed_ratio"] = _ratio(root["self_s"], root["s"])
    return out
