"""Relapsing vector-borne disease models and their reproduction numbers.

A host species with j infected compartments (j - 1 relapses) progresses
through a chain I_1 -> ... -> I_j, leaving stage l at rate alpha_l and
being removed at rate mu_l; a single vector compartment I_v with
mortality mu_tilde closes the transmission loop. The reproduction number
of one such chain has the closed form

    r0 = f * sqrt( c * c_v * Sv / (mu_tilde * S)
                   * sum_{k=1..j} prod_{l=1..k} alpha_{l-1} / (alpha_l + mu_l) )

and host chains sharing one vector combine in quadrature:
``r0**2 = sum_h r0_h**2``. Dropping the last stage of a chain
equals driving its stage-exit rate to infinity, which this module
reproduces numerically through the spectral-radius limit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .densela import (SINGULARITY_RTOL, Matrix, _bidiagonal_inverse,
                      _check_integer, _check_positive, _check_rates,
                      _require_finite)
from .errors import ConfigError, NonFiniteError
from .minorlimit import ConvergenceReport, default_schedule
from .ngm import (NGMPair, _with_inverse, r0_removal_limit,
                  remove_compartment)

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
        """The same host restricted to its first j stages.

        The slices of checked rates need no second check, so the copy
        skips ``__post_init__``.
        """
        _check_integer("j", j)
        if not 1 <= j <= self.stages:
            raise ValueError(f"cannot truncate a {self.stages}-stage chain "
                             f"to {j} stages")
        host = object.__new__(type(self))
        vars(host).update(vars(self), alpha=self.alpha[:j + 1],
                          mu=self.mu[:j])
        return host


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


def _require_stage_count(host: HostParams, j: int, who: str,
                         name: str = "j") -> None:
    """``j``, the argument called ``name``, must be an integer equal to
    the stage count of ``host``, the argument called ``who``."""
    _check_integer(name, j)
    if host.stages != j:
        raise ValueError(
            f"{who} has {host.stages} stages in its parameters but "
            f"{name}={j} was requested")


def _r0_closed(hosts: Sequence[HostParams], vec: VectorParams) -> R0Result:
    """Closed-form reproduction number of host chains sharing one vector.

    Each chain's sum telescopes over its stages: stage k contributes the
    product of its upstream pass-through probabilities
    ``alpha_{l-1} / (alpha_l + mu_l)``. The chains' values combine in
    quadrature; for one chain that is its own value, bit for bit. A
    prefactor or value that over- or underflows raises NonFiniteError.
    """
    parts = []
    for host in hosts:
        total = 0.0
        running = 1.0
        for upstream, alpha, mu in zip(host.alpha, host.alpha[1:], host.mu):
            running *= upstream / (alpha + mu)
            total += running
        denominator = vec.mu_tilde * host.s_bar
        prefactor = (host.c * vec.c_v * vec.s_v_bar / denominator
                     if denominator else math.inf)
        if not 0.0 < prefactor < math.inf:
            raise NonFiniteError(f"closed-form r0: prefactor {prefactor!r} "
                                 f"is not a positive finite float")
        parts.append(vec.f * math.sqrt(prefactor * total))
    value = math.hypot(*parts)
    if not 0.0 < value < math.inf:
        raise NonFiniteError(f"closed-form r0 {value!r} is not a positive "
                             f"finite float")
    return R0Result(value)


_kept_labels: dict[str, tuple[str, ...]] = {}


def _stage_labels(prefix: str, j: int) -> tuple[str, ...]:
    """``prefix`` + 1..j, sliced from one tuple kept per prefix at the
    longest chain met so far; a longer chain replaces it, so tuples
    handed out before stay as they were. Formatting them is a sizeable
    share of a small build."""
    kept = _kept_labels.get(prefix, ())
    if len(kept) < j:
        kept = _kept_labels[prefix] = tuple(
            f"{prefix}{l}" for l in range(1, j + 1))
    return kept[:j]


def _build_ngm(hosts: Sequence[HostParams], vec: VectorParams) -> NGMPair:
    """Canonical (F, V) pair for host chains sharing one vector.

    Compartments run chain by chain, vector last: ``I1..Ij, Iv`` for one
    chain, ``I<species>.<stage>`` for more. V is block diagonal: chains
    with diagonal ``alpha_l + mu_l`` and subdiagonal ``-alpha_{l-1}``,
    then the vector mortality. F is the vector's column, into each
    chain's first stage (``f * c * alpha_0``), and its row, out of every
    stage (``f * c_v * s_v_bar / s_bar``).
    """
    n = sum(host.stages for host in hosts) + 1
    # F, V and V^-1 in one buffer, checked finite once
    blocks = np.zeros((3, n, n))
    f, flat_v = blocks[0], blocks[1].reshape(-1)
    # V's diagonal and, row by row, its entry left of the diagonal (0 at
    # a chain's first stage and at the first row)
    diagonal, lower = [], []
    labels = []
    start = 0
    for species, host in enumerate(hosts, 1):
        j = host.stages
        diagonal += [a + m for a, m in zip(host.alpha[1:], host.mu)]
        lower += [0.0] + [-a for a in host.alpha[1:j]]
        f[start, n - 1] = vec.f * host.c * host.alpha[0]
        f[n - 1, start:start + j] = vec.f * vec.c_v * vec.s_v_bar / host.s_bar
        prefix = "I" if len(hosts) == 1 else f"I{species}."
        labels += _stage_labels(prefix, j)
        start += j
    diagonal.append(vec.mu_tilde)
    lower.append(0.0)
    flat_v[::n + 1] = diagonal
    flat_v[n::n + 1] = lower[1:]
    # inverse(V), bit for bit: V is lower bidiagonal and each pivot
    # alpha_l + mu_l is at least the alpha_l below it, so the general
    # kernel swaps no row and its updates change no entry; its forward
    # substitution forms _bidiagonal_inverse of these multipliers, and it
    # ends in this division. A row of |V| has at most two nonzeros, so
    # its sum is one addition, as NumPy's row sum in inf_norm makes it
    # (in Python floats, which do not warn on overflow). Below the pivot
    # floor V^-1's block stays zero and no V_inv is preset; NGMPair
    # factors V and raises.
    invertible = (min(diagonal) >= SINGULARITY_RTOL
                  * max(map(operator.sub, diagonal, lower)))
    if invertible:
        with np.errstate(all="ignore"):
            _bidiagonal_inverse(flat_v[n::n + 1] / flat_v[:-n:n + 1],
                                out=blocks[2])
            blocks[2] /= flat_v[::n + 1, None]
    _require_finite(blocks)
    blocks.setflags(write=False)
    return _with_inverse(Matrix._view(blocks[0]), Matrix._view(blocks[1]),
                         (*labels, "Iv"),
                         Matrix._view(blocks[2]) if invertible else None)


def r0_uncoupled_closed(host: HostParams, vec: VectorParams,
                        j: int) -> R0Result:
    """Closed-form r0 of one j-stage host chain and the vector."""
    _require_stage_count(host, j, "host")
    return _r0_closed((host,), vec)


def build_uncoupled_ngm(host: HostParams, vec: VectorParams,
                        j: int) -> NGMPair:
    """(F, V) pair of one j-stage host chain and the vector."""
    _require_stage_count(host, j, "host")
    return _build_ngm((host,), vec)


def build_coupled_ngm(host1: HostParams, host2: HostParams,
                      vec: VectorParams, j: int, k: int) -> NGMPair:
    """(F, V) pair of a j- and a k-stage host chain sharing the vector."""
    _require_stage_count(host1, j, "host1")
    _require_stage_count(host2, k, "host2", "k")
    return _build_ngm((host1, host2), vec)


def r0_coupled_closed(host1: HostParams, host2: HostParams,
                      vec: VectorParams, j: int, k: int) -> R0Result:
    """Closed-form r0 of host1's first j stages and host2's first k
    stages sharing the vector; longer parameter chains are truncated."""
    first = host1.truncated(j)
    # truncated calls its argument j
    _check_integer("k", k)
    return _r0_closed((first, host2.truncated(k)), vec)


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
    leave at least one species-1 stage. A given ``schedule`` serves every
    step, and each step's :func:`~ngmlimit.ngm.r0_removal_limit` checks
    it, after that step's closed-form target; without one, each step
    takes :func:`~ngmlimit.minorlimit.default_schedule` of its pair's V.
    """
    _check_integer("j", j)
    if j < 2:
        raise ValueError("the removal experiment needs j >= 2 so a stage "
                         "can be removed")
    if k_final is None:
        k_final = j - 1
    _check_integer("k_final", k_final)
    if not 1 <= k_final <= j - 1:
        raise ValueError(f"k_final must be in 1..{j - 1}, got {k_final}")

    pair = build_coupled_ngm(host1.truncated(j), host2.truncated(j),
                             vec, j, j)
    # a tuple, so that a one-shot iterable serves every step
    if schedule is not None:
        schedule = tuple(schedule)
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
