"""The three seeded workloads: inputs, one operation, and its output gate.

Each workload draws its inputs from ``--seed`` when it is constructed (that
is set-up, not timed), then exposes

  * ``op(k)``: the k-th operation, the only code the timed loop measures;
  * ``check(k, result)``: ``None`` when the output is correct, else a
    one-line reason. Every reason counts one failed operation.

Operations cycle through a fixed pool of inputs, so a run of any length
sees the same input mix. The expected values the gates compare against
come from ``closed_form_r0`` below, written here with NumPy, not from the
library's own closed form.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

# Library calls go through the package namespace, looked up at call time,
# so the traced run's wrappers see them.
import ngmlimit as nl
from ngmlimit import HostParams, VectorParams, cli

R0_RTOL = 1e-10
LADDER_EXTRAPOLATION_RTOL = 1e-8


def species_sum(host: HostParams) -> float:
    """sum_k prod_{l<=k} alpha_{l-1} / (alpha_l + mu_l) for one chain."""
    alpha = np.asarray(host.alpha)
    mu = np.asarray(host.mu)
    return float(np.cumprod(alpha[:-1] / (alpha[1:] + mu)).sum())


def closed_form_r0(hosts: "tuple[HostParams, ...]",
                   vec: VectorParams) -> float:
    """r0 of one or two host chains sharing a vector (quadrature sum)."""
    squares = [vec.f ** 2 * h.c * vec.c_v * vec.s_v_bar
               / (vec.mu_tilde * h.s_bar) * species_sum(h) for h in hosts]
    return math.sqrt(math.fsum(squares))


def draw_host(rng: np.random.Generator, stages: int) -> HostParams:
    return HostParams(c=float(rng.uniform(0.1, 3.0)),
                      s_bar=float(rng.uniform(0.1, 3.0)),
                      alpha=tuple(rng.uniform(0.1, 3.0, stages + 1).tolist()),
                      mu=tuple(rng.uniform(0.1, 3.0, stages).tolist()))


def draw_vector(rng: np.random.Generator, f: float = 1.0) -> VectorParams:
    c_v, s_v_bar, mu_tilde = rng.uniform(0.1, 3.0, 3).tolist()
    return VectorParams(f=f, c_v=c_v, s_v_bar=s_v_bar, mu_tilde=mu_tilde)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class VerifySuite:
    """One ``ngmlimit verify --seed S`` pass through the click entry point."""

    name = "verify_suite"
    trace_ops = 1

    def __init__(self, seed: int):
        self.argv = ["verify", "--seed", str(seed)]
        self.reference: "bytes | None" = None

    def op(self, k: int) -> tuple[int, bytes]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(self.argv, standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue().encode()

    def check(self, k: int, result: tuple[int, bytes]) -> "str | None":
        code, report = result
        if code != 0:
            return f"verify exited with code {code}"
        if self.reference is None:
            self.reference = report
        elif report != self.reference:
            return "report is not byte-identical to the run's first pass"
        return None

    def digest(self) -> "str | None":
        return (None if self.reference is None
                else hashlib.sha256(self.reference).hexdigest())


@dataclass(frozen=True)
class ScreenCase:
    hosts: tuple[HostParams, ...]
    vec: VectorParams
    expected: float


class R0Screen:
    """Build a relapse pair, then r0, the DFE threshold check and the
    closed form. No limit schedule is involved."""

    name = "r0_screen"
    trace_ops = 4000
    pool_size = 2048
    near_share = 0.25

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cases = [self._draw(rng) for _ in range(self.pool_size)]

    def _draw(self, rng: np.random.Generator) -> ScreenCase:
        coupled = rng.random() < 0.5
        stages = rng.integers(1, 7, 2 if coupled else 1).tolist()
        hosts = tuple(draw_host(rng, int(s)) for s in stages)
        vec = draw_vector(rng)
        if rng.random() < self.near_share:
            sign = 1.0 if rng.random() < 0.5 else -1.0
            target = 1.0 + sign * 10.0 ** -rng.uniform(1.0, 6.0)
        else:
            target = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
        # r0 is linear in the biting rate f
        f = target / closed_form_r0(hosts, vec)
        vec = VectorParams(f=f, c_v=vec.c_v, s_v_bar=vec.s_v_bar,
                           mu_tilde=vec.mu_tilde)
        return ScreenCase(hosts, vec, closed_form_r0(hosts, vec))

    def op(self, k: int):
        case = self.cases[k % self.pool_size]
        if len(case.hosts) == 2:
            h1, h2 = case.hosts
            j, m = h1.stages, h2.stages
            pair = nl.build_coupled_ngm(h1, h2, case.vec, j, m)
            closed = nl.r0_coupled_closed(h1, h2, case.vec, j, m).value
        else:
            (h,) = case.hosts
            pair = nl.build_uncoupled_ngm(h, case.vec, h.stages)
            closed = nl.r0_uncoupled_closed(h, case.vec, h.stages).value
        return nl.r0(pair), nl.dfe_threshold_check(pair), closed

    def check(self, k: int, result) -> "str | None":
        value, threshold, closed = result
        expected = self.cases[k % self.pool_size].expected
        if _rel(value, expected) > R0_RTOL:
            return f"spectral r0 {value!r} vs expected {expected!r}"
        if _rel(closed, expected) > R0_RTOL:
            return f"closed-form r0 {closed!r} vs expected {expected!r}"
        if not threshold.consistent:
            return (f"threshold check inconsistent at r0 {threshold.r0!r}, "
                    f"abscissa {threshold.abscissa!r}")
        if (threshold.r0 > 1.0) != (expected > 1.0):
            return f"threshold r0 {threshold.r0!r} on the wrong side of 1"
        return None


@dataclass(frozen=True)
class LadderCase:
    host1: HostParams
    host2: HostParams
    vec: VectorParams
    j: int
    schedule: tuple[float, ...]
    expected: float


def coupled_v_norm(host1: HostParams, host2: HostParams,
                   vec: VectorParams) -> float:
    """inf_norm of the coupled pair's V: bidiagonal chain rows plus mu~."""
    rows = [vec.mu_tilde]
    for h in (host1, host2):
        alpha, mu = np.asarray(h.alpha), np.asarray(h.mu)
        sums = alpha[1:] + mu
        sums[1:] += alpha[1:-1]
        rows.append(float(sums.max()))
    return max(rows)


class LadderLong:
    """One stage-removal step on a long coupled (j, j) chain, swept over a
    29-point quarter-decade schedule, plus exact removal."""

    name = "ladder_long"
    trace_ops = 31
    j_range = range(10, 41)
    cycles = 2

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        js = [int(j) for _ in range(self.cycles)
              for j in rng.permutation(np.array(self.j_range))]
        self.cases = [self._draw(rng, j) for j in js]

    @staticmethod
    def _draw(rng: np.random.Generator, j: int) -> LadderCase:
        host1, host2 = draw_host(rng, j), draw_host(rng, j)
        vec = draw_vector(rng, f=float(rng.uniform(0.1, 3.0)))
        norm = coupled_v_norm(host1, host2, vec)
        schedule = tuple(norm * 10.0 ** (1.0 + q / 4.0) for q in range(29))
        expected = closed_form_r0((host1.truncated(j - 1), host2), vec)
        return LadderCase(host1, host2, vec, j, schedule, expected)

    def op(self, k: int):
        c = self.cases[k % len(self.cases)]
        (step,) = nl.relapse_limit_experiment(c.host1, c.host2, c.vec, c.j,
                                           schedule=c.schedule)
        pair = nl.build_coupled_ngm(c.host1, c.host2, c.vec, c.j, c.j)
        return step, nl.r0(nl.remove_compartment(pair, c.j))

    def check(self, k: int, result) -> "str | None":
        step, exact = result
        expected = self.cases[k % len(self.cases)].expected
        if _rel(step.target, expected) > R0_RTOL:
            return f"step target {step.target!r} vs expected {expected!r}"
        if not (step.final_extrapolated_error
                <= LADDER_EXTRAPOLATION_RTOL * expected):
            return (f"final extrapolated error "
                    f"{step.final_extrapolated_error!r} exceeds "
                    f"{LADDER_EXTRAPOLATION_RTOL} x {expected!r}")
        if _rel(exact, expected) > R0_RTOL:
            return f"exact removal r0 {exact!r} vs expected {expected!r}"
        return None


WORKLOADS = {w.name: w for w in (VerifySuite, R0Screen, LadderLong)}
