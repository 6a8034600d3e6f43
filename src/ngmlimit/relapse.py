"""Relapsing vector-borne disease models and their reproduction numbers.

A host species with j infected compartments (j - 1 relapses) progresses
through a chain I_1 -> ... -> I_j, leaving stage l at rate alpha_l and
being removed at rate mu_l; a single vector compartment I_v with
mortality mu_tilde closes the transmission loop. The reproduction number
of one such chain has the closed form

    r0 = f * sqrt( c * c_v * Sv / (mu_tilde * S)
                   * sum_{k=1..j} prod_{l=1..k} alpha_{l-1} / (alpha_l + mu_l) )

and two chains sharing one vector combine in quadrature:
``r0_coupled**2 = r0_1**2 + r0_2**2``. Dropping the last stage of a chain
equals driving its stage-exit rate to infinity, which this module
reproduces numerically through the spectral-radius limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .densela import Matrix, _check_positive, _check_rates
from .errors import ConfigError
from .minorlimit import ConvergenceReport, default_schedule
from .ngm import NGMPair, r0_removal_limit, remove_compartment

__all__ = [
    "HostParams",
    "VectorParams",
    "R0Result",
    "RemovalStep",
    "r0_uncoupled_closed",
    "build_uncoupled_ngm",
    "build_coupled_ngm",
    "r0_coupled_closed",
    "relapse_limit_experiment",
]

@dataclass(frozen=True)
class HostParams:
    """One host species' transmission parameters.

    Every field is stored as a float, or a tuple of floats, that is
    positive and finite; anything else raises ConfigError naming the
    field (``alpha[0]``, by position in the tuple).

    Attributes:
        c: Host competence / contact factor.
        s_bar: Equilibrium susceptible host density.
        alpha: Stage-exit rates alpha_0..alpha_j (length j + 1); alpha_0
            weights the inflow from the vector, alpha_l is the rate of
            leaving infected stage l.
        mu: Stage removal rates mu_1..mu_j (length j >= 1).
    """

    c: float
    s_bar: float
    alpha: tuple[float, ...]
    mu: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", _check_positive("c", self.c))
        object.__setattr__(self, "s_bar",
                           _check_positive("s_bar", self.s_bar))
        object.__setattr__(self, "alpha", _check_rates("alpha", self.alpha))
        object.__setattr__(self, "mu", _check_rates("mu", self.mu))
        if not self.mu:
            raise ConfigError("mu", "needs at least one stage")
        if len(self.alpha) != len(self.mu) + 1:
            raise ConfigError(
                "alpha", f"must hold one more rate than mu, got "
                         f"{len(self.alpha)} and {len(self.mu)}")

    @property
    def stages(self) -> int:
        """Number of infected compartments in the chain."""
        return len(self.mu)

    def truncated(self, j: int) -> "HostParams":
        """The same host restricted to its first j stages."""
        if not 1 <= j <= self.stages:
            raise ValueError(f"cannot truncate a {self.stages}-stage chain "
                             f"to {j} stages")
        return HostParams(self.c, self.s_bar,
                          self.alpha[:j + 1], self.mu[:j])


@dataclass(frozen=True)
class VectorParams:
    """The vector species' parameters: biting rate f, competence c_v,
    equilibrium susceptible density s_v_bar, mortality mu_tilde. Each
    is stored as a positive finite float, as in HostParams."""

    f: float
    c_v: float
    s_v_bar: float
    mu_tilde: float

    def __post_init__(self):
        for name in ("f", "c_v", "s_v_bar", "mu_tilde"):
            object.__setattr__(self, name,
                               _check_positive(name, getattr(self, name)))


@dataclass(frozen=True)
class R0Result:
    """A reproduction number from its closed form."""

    value: float
    method: ClassVar[str] = "closed_form"

    def __post_init__(self):
        if not self.value >= 0.0:
            raise ValueError(f"r0 must be nonnegative, got {self.value}")


def _require_stage_count(host: HostParams, j: int, who: str) -> None:
    if host.stages != j:
        raise ValueError(
            f"{who} has {host.stages} stages in its parameters but "
            f"j={j} was requested")


def r0_uncoupled_closed(host: HostParams, vec: VectorParams,
                        j: int) -> R0Result:
    """Closed-form reproduction number of one host chain plus vector.

    The sum telescopes over stages: each stage k contributes the product
    of its upstream pass-through probabilities
    ``alpha_{l-1} / (alpha_l + mu_l)``.
    """
    _require_stage_count(host, j, "host")
    total = 0.0
    running = 1.0
    for l in range(1, j + 1):
        running *= host.alpha[l - 1] / (host.alpha[l] + host.mu[l - 1])
        total += running
    prefactor = (host.c * vec.c_v * vec.s_v_bar
                 / (vec.mu_tilde * host.s_bar))
    return R0Result(vec.f * math.sqrt(prefactor * total))


def _chain_blocks(host: HostParams, j: int) -> np.ndarray:
    """Lower-bidiagonal transfer block of one j-stage chain."""
    block = np.zeros((j, j))
    for l in range(j):
        block[l, l] = host.alpha[l + 1] + host.mu[l]
    for l in range(1, j):
        block[l, l - 1] = -host.alpha[l]
    return block


def build_uncoupled_ngm(host: HostParams, vec: VectorParams,
                        j: int) -> NGMPair:
    """Canonical (F, V) pair for one host chain and one vector.

    Compartments are ordered I_1..I_j, I_v. V chains the stages
    (diagonal ``alpha_l + mu_l`` with subdiagonal ``-alpha_{l-1}``) and
    carries the vector mortality last; F routes vector-to-host infection
    into stage 1 (weight ``f * c * alpha_0``) and host-to-vector
    infection out of every stage (weight ``f * c_v * s_v_bar / s_bar``).
    Its r0 reproduces the closed form exactly.
    """
    _require_stage_count(host, j, "host")
    n = j + 1
    v = np.zeros((n, n))
    v[:j, :j] = _chain_blocks(host, j)
    v[j, j] = vec.mu_tilde
    f = np.zeros((n, n))
    f[0, j] = vec.f * host.c * host.alpha[0]
    f[j, :j] = vec.f * vec.c_v * vec.s_v_bar / host.s_bar
    labels = tuple(f"I{l}" for l in range(1, j + 1)) + ("Iv",)
    return NGMPair(Matrix._wrap(f), Matrix._wrap(v), labels)


def build_coupled_ngm(host1: HostParams, host2: HostParams,
                      vec: VectorParams, j: int, k: int) -> NGMPair:
    """Canonical (F, V) pair for two host chains sharing one vector.

    Compartments are ordered species-1 stages, species-2 stages, vector
    last. V is block diagonal (two chains plus the vector mortality);
    F's only coupling is the shared vector row and column.
    """
    _require_stage_count(host1, j, "host1")
    _require_stage_count(host2, k, "host2")
    n = j + k + 1
    v = np.zeros((n, n))
    v[:j, :j] = _chain_blocks(host1, j)
    v[j:j + k, j:j + k] = _chain_blocks(host2, k)
    v[n - 1, n - 1] = vec.mu_tilde
    f = np.zeros((n, n))
    f[0, n - 1] = vec.f * host1.c * host1.alpha[0]
    f[j, n - 1] = vec.f * host2.c * host2.alpha[0]
    f[n - 1, :j] = vec.f * vec.c_v * vec.s_v_bar / host1.s_bar
    f[n - 1, j:j + k] = vec.f * vec.c_v * vec.s_v_bar / host2.s_bar
    labels = (tuple(f"I1.{l}" for l in range(1, j + 1))
              + tuple(f"I2.{l}" for l in range(1, k + 1)) + ("Iv",))
    return NGMPair(Matrix._wrap(f), Matrix._wrap(v), labels)


def r0_coupled_closed(host1: HostParams, host2: HostParams,
                      vec: VectorParams, k: int, j: int) -> R0Result:
    """Closed-form coupled reproduction number, combined in quadrature.

    Species 1 contributes its k-stage value and species 2 its j-stage
    value; parameter chains longer than requested are truncated.
    """
    part1 = r0_uncoupled_closed(host1.truncated(k), vec, k).value
    part2 = r0_uncoupled_closed(host2.truncated(j), vec, j).value
    return R0Result(math.hypot(part1, part2))


@dataclass(frozen=True)
class RemovalStep:
    """One stage removal reproduced as a limit.

    Attributes:
        stage: Species-1 stage whose exit rate was driven to infinity.
        target: Closed-form r0 of the system with that stage removed.
        report: Limit errors measured against ``target``.
        final_error: Last finite raw error.
        final_extrapolated_error: Last finite extrapolated error.
    """

    stage: int
    target: float
    report: ConvergenceReport
    final_error: float
    final_extrapolated_error: float


def _last_finite(values: Sequence[float]) -> float:
    for v in reversed(values):
        if math.isfinite(v):
            return v
    return math.nan


def relapse_limit_experiment(
    host1: HostParams,
    host2: HostParams,
    vec: VectorParams,
    j: int,
    schedule: "Sequence[float] | None" = None,
    k_final: "int | None" = None,
) -> tuple[RemovalStep, ...]:
    """Remove species-1 stages from the (j, j) coupled system by limits.

    Starting from the coupled pair with j stages per species, each step
    drives the transfer-block diagonal of species 1's last stage to
    infinity (the stage-exit rate dominates ``alpha + mu`` there), checks
    the limit against the closed-form r0 of the reduced system, then
    removes the compartment and repeats down to ``k_final`` stages
    (default ``j - 1``, a single step). Requires j >= 2: removal must
    leave at least one species-1 stage.
    """
    if j < 2:
        raise ValueError("the removal experiment needs j >= 2 so a stage "
                         "can be removed")
    if k_final is None:
        k_final = j - 1
    if not 1 <= k_final <= j - 1:
        raise ValueError(f"k_final must be in 1..{j - 1}, got {k_final}")

    pair = build_coupled_ngm(host1.truncated(j), host2.truncated(j),
                             vec, j, j)
    steps = []
    for stage in range(j, k_final, -1):
        target = r0_coupled_closed(host1, host2, vec, stage - 1, j).value
        step_schedule = (schedule if schedule is not None
                         else default_schedule(pair.V))
        report = r0_removal_limit(pair, stage, schedule=step_schedule,
                                  target=target)
        steps.append(RemovalStep(
            stage=stage,
            target=target,
            report=report,
            final_error=_last_finite(report.errors),
            final_extrapolated_error=_last_finite(
                report.extrapolated_errors),
        ))
        if stage - 1 > k_final:
            pair = remove_compartment(pair, stage)
    return tuple(steps)
