"""Seeded property corpora and the acceptance checks run by the CLI.

Every check draws its own corpus from a fresh generator seeded by the
caller, so reports are deterministic and independent of check ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .densela import Matrix, inf_norm
from .eigen import eigenvalues
from .errors import SingularMatrixError
from .minorlimit import (DiagonalRay, assemble_limit_inverse,
                         default_schedule, det_affine_coeffs,
                         exact_minor_inverse, limit_minor_inverse,
                         _row_col_maxima, spectral_limit)
from .ngm import NGMPair, dfe_threshold_check, r0, remove_compartment
from .relapse import (HostParams, VectorParams, _build_ngm, _r0_closed,
                      build_coupled_ngm, build_uncoupled_ngm,
                      r0_coupled_closed, r0_uncoupled_closed,
                      relapse_limit_experiment)
from . import densela, ngm

__all__ = [
    "MINOR_INVERSE_NORM_BOUND",
    "CriterionResult",
    "check_affine_determinant",
    "check_minor_inverse_limit",
    "check_row_col_decay",
    "check_spectral_radius_limit",
    "check_uncoupled_closed_form",
    "check_coupling_identities",
    "check_removal_limit_chain",
    "check_threshold_consistency",
    "run_all",
]

# Limit-corpus filter: keep rays whose minor inverse is no larger than
# this multiple of the base norm. A formally nonsingular but barely
# conditioned minor pushes the O(1/t) constant beyond what float64 can
# resolve at the final schedule point.
MINOR_INVERSE_NORM_BOUND = 8.0


@dataclass
class CriterionResult:
    """Outcome of one acceptance check."""

    name: str
    description: str
    passed: bool
    worst_error: float
    tolerance: float
    cases: int
    details: dict = field(default_factory=dict)

    def summary_line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return (f"{mark} {self.name}: worst error {self.worst_error:.3e} "
                f"(tolerance {self.tolerance:.1e}, {self.cases} cases)")


# ---------------------------------------------------------------------------
# corpus generators

def random_square(rng: np.random.Generator, n: int) -> Matrix:
    """n x n matrix with entries uniform in [-1, 1]."""
    return Matrix._wrap(rng.uniform(-1.0, 1.0, (n, n)))


def random_matrices(rng: np.random.Generator) -> list[Matrix]:
    """200 random squares of orders 2 to 6."""
    return [random_square(rng, int(rng.integers(2, 7)))
            for _ in range(200)]


def limit_corpus(rng: np.random.Generator):
    """(matrix, i, exact minor inverse) rays with usable conditioning."""
    cases = []
    for m in random_matrices(rng):
        for i in range(1, m.rows + 1):
            try:
                exact = exact_minor_inverse(DiagonalRay(m, i))
            except SingularMatrixError:
                continue
            if inf_norm(exact) > MINOR_INVERSE_NORM_BOUND * inf_norm(m):
                continue
            cases.append((m, i, exact))
    return cases


def random_mmatrix_pair(rng: np.random.Generator, n: int) -> NGMPair:
    """Nonnegative F with a strictly diagonally dominant M-matrix V."""
    off = rng.uniform(0.0, 1.0, (n, n))
    np.fill_diagonal(off, 0.0)
    v = -off
    np.fill_diagonal(v, off.sum(axis=1) + rng.uniform(0.2, 2.0, n))
    f = rng.uniform(0.0, 1.0, (n, n))
    labels = tuple(f"C{k}" for k in range(1, n + 1))
    return NGMPair(Matrix._wrap(f), Matrix._wrap(v), labels)


def random_host(rng: np.random.Generator, stages: int) -> HostParams:
    return HostParams(
        c=float(rng.uniform(0.1, 3.0)),
        s_bar=float(rng.uniform(0.1, 3.0)),
        alpha=tuple(rng.uniform(0.1, 3.0, stages + 1).tolist()),
        mu=tuple(rng.uniform(0.1, 3.0, stages).tolist()),
    )


def random_vector(rng: np.random.Generator, f: float = 1.0) -> VectorParams:
    return VectorParams(
        f=f,
        c_v=float(rng.uniform(0.1, 3.0)),
        s_v_bar=float(rng.uniform(0.1, 3.0)),
        mu_tilde=float(rng.uniform(0.1, 3.0)),
    )


def random_relapse_pair(rng: np.random.Generator) -> tuple[NGMPair, float]:
    """A one- or two-chain relapse pair rescaled to a target r0 in (0.2, 5).

    r0 is linear in the biting rate, so the target is hit by scaling f.
    """
    target = float(rng.uniform(0.2, 5.0))
    species = 1 + int(rng.integers(0, 2))
    vec = random_vector(rng)
    stages = [int(rng.integers(1, 5)) for _ in range(species)]
    hosts = tuple(random_host(rng, j) for j in stages)
    vec = replace(vec, f=target / _r0_closed(hosts, vec).value)
    return _build_ngm(hosts, vec), target


# ---------------------------------------------------------------------------
# acceptance checks

def check_affine_determinant(seed: int = 42) -> CriterionResult:
    """det A(t) is affine in the diagonal entry with the minor's slope."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_slope = 0.0
    cases = 0
    checked = (-10.0, 0.0, 7.0, 1.0e3)
    for m in random_matrices(rng):
        for i in range(1, m.rows + 1):
            cases += 1
            ray = DiagonalRay(m, i)
            slope, intercept = det_affine_coeffs(ray)
            # one stack: the checked points, then t = 1 and t = 0 again
            dets = densela._determinant_stack(
                ray.at_many(checked + (1.0, 0.0)))
            for t, actual in zip(checked, dets):
                scale = 1.0 + abs(slope * t) + abs(intercept)
                worst = max(worst,
                            abs(actual - (slope * t + intercept)) / scale)
            # independent slope: exact difference quotient of an affine map
            slope_fd = dets[4] - dets[5]
            worst_slope = max(worst_slope, abs(slope_fd - slope)
                              / max(1.0, abs(slope)))
    passed = worst <= 1e-8 and worst_slope <= 1e-10
    return CriterionResult(
        name="affine_determinant",
        description="determinant is affine in a diagonal entry, slope = "
                    "minor determinant",
        passed=passed,
        worst_error=worst,
        tolerance=1e-8,
        cases=cases,
        details={"worst_slope_error": worst_slope,
                 "slope_tolerance": 1e-10},
    )


def check_minor_inverse_limit(seed: int = 42) -> CriterionResult:
    """The (i,i) minor of A(t)^-1 converges to the minor's inverse."""
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    ratios: list[float] = []
    gains: list[float] = []
    cases = 0
    for m, i, exact in limit_corpus(rng):
        cases += 1
        schedule = default_schedule(m, 2, 8)
        _, report = limit_minor_inverse(DiagonalRay(m, i), schedule)
        errors = report.errors
        scale = float(np.abs(exact._a).max())
        worst_rel = max(worst_rel, errors[-1] / scale)
        # An exact iterate (error 0) has no decay to measure, and a
        # skipped point (NaN) none either; an exact extrapolant has no
        # finite gain and needs none.
        ratios += [b / a for a, b in zip(errors, errors[1:])
                   if a > 0.0 and b >= 0.0]
        final_ext = report.extrapolated_errors[-1]
        if errors[-1] > 0.0 and final_ext > 0.0:
            gains.append(errors[-1] / final_ext)
    # with no qualifying ratio or gain the statistic is reported as null
    ratio_low = min(ratios, default=None)
    ratio_high = max(ratios, default=None)
    worst_gain = min(gains, default=None)
    passed = (worst_rel <= 1e-6
              and all(0.05 <= r <= 0.2 for r in ratios)
              and all(g >= 10.0 for g in gains))
    return CriterionResult(
        name="minor_inverse_limit",
        description="minor of A(t)^-1 converges to the minor inverse at "
                    "rate O(1/t)",
        passed=passed,
        worst_error=worst_rel,
        tolerance=1e-6,
        cases=cases,
        details={"decade_ratio_low": ratio_low,
                 "decade_ratio_high": ratio_high,
                 "ratio_window_low": 0.05,
                 "ratio_window_high": 0.2,
                 "worst_extrapolation_gain": worst_gain,
                 "required_gain": 10.0},
    )


def check_row_col_decay(seed: int = 42) -> CriterionResult:
    """Row i and column i of A(t)^-1 stay below a fitted C/t envelope."""
    rng = np.random.default_rng(seed)
    worst = 0.0  # max of observed * t / (2 C); <= 1 passes
    cases = 0
    for m, i, _exact in limit_corpus(rng):
        cases += 1
        ts = (100.0 * inf_norm(m),) + default_schedule(m, 3, 8)
        (row0, col0), *later = _row_col_maxima(DiagonalRay(m, i), ts)
        c_row, c_col = row0 * ts[0], col0 * ts[0]
        for t, (row_max, col_max) in zip(ts[1:], later):
            worst = max(worst, row_max * t / (2.0 * c_row),
                        col_max * t / (2.0 * c_col))
    return CriterionResult(
        name="row_col_decay",
        description="row/column i of A(t)^-1 decay within twice the C/t "
                    "envelope fitted at t = 100 * norm",
        passed=worst <= 1.0,
        worst_error=worst,
        tolerance=1.0,
        cases=cases,
        details={"envelope_factor": 2.0},
    )


def check_spectral_radius_limit(seed: int = 42) -> CriterionResult:
    """rho(F V(t)^-1) converges to the reduced product's radius."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_spectrum = 0.0
    cases = 0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        pair = random_mmatrix_pair(rng, n)
        i = int(rng.integers(1, n + 1))
        cases += 1
        ray = DiagonalRay(pair.V, i)
        schedule = default_schedule(pair.V, 1, 8)
        _, report = spectral_limit(pair.F, ray, schedule)
        worst = max(worst, report.errors[-1])

        # spectrum identity: F * (limit of V(t)^-1) adds one zero
        # eigenvalue to the reduced product's spectrum
        assembled = densela.matmul(pair.F, assemble_limit_inverse(ray))
        reduced = densela.matmul(densela.minor(pair.F, i, i),
                                 exact_minor_inverse(ray))
        full_spec = sorted(eigenvalues(assembled).values,
                           key=lambda v: (v.real, v.imag))
        reduced_spec = sorted(list(eigenvalues(reduced).values) + [0.0 + 0.0j],
                              key=lambda v: (v.real, v.imag))
        gap = max(abs(a - b) for a, b in zip(full_spec, reduced_spec))
        worst_spectrum = max(worst_spectrum, gap)
    passed = worst <= 1e-6 and worst_spectrum <= 1e-6
    return CriterionResult(
        name="spectral_radius_limit",
        description="driving one V diagonal to infinity reproduces the "
                    "removed-compartment spectral radius and spectrum",
        passed=passed,
        worst_error=max(worst, worst_spectrum),
        tolerance=1e-6,
        cases=cases,
        details={"worst_radius_error": worst,
                 "worst_spectrum_gap": worst_spectrum},
    )


def check_uncoupled_closed_form(seed: int = 42) -> CriterionResult:
    """Built single-chain pairs reproduce the closed-form r0."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    cases = 0
    for _ in range(500):
        host = random_host(rng, 6)
        vec = random_vector(rng, f=float(rng.uniform(0.1, 3.0)))
        for j in range(1, 7):
            cases += 1
            truncated = host.truncated(j)
            closed = r0_uncoupled_closed(truncated, vec, j).value
            spectral = r0(build_uncoupled_ngm(truncated, vec, j))
            worst = max(worst, abs(spectral - closed) / closed)
    return CriterionResult(
        name="uncoupled_closed_form",
        description="spectral r0 of the built chain pair matches the "
                    "closed form",
        passed=worst <= 1e-10,
        worst_error=worst,
        tolerance=1e-10,
        cases=cases,
        details={"stage_range_high": 6},
    )


def check_coupling_identities(seed: int = 42,
                              builder_fault: float = 0.0) -> CriterionResult:
    """Coupled r0 combines the two chains' values in quadrature.

    ``builder_fault`` perturbs the built F block multiplicatively; it
    exists so the fault-injection harness can prove this check has teeth.
    """
    rng = np.random.default_rng(seed)
    worst_equal = 0.0
    worst_mixed = 0.0
    cases = 0
    for draw in range(100):
        vec = random_vector(rng, f=float(rng.uniform(0.1, 3.0)))
        if draw % 2 == 0:
            j = k = int(rng.integers(1, 6))
        else:
            j = int(rng.integers(1, 6))
            k = int(rng.integers(1, 6))
        host1, host2 = random_host(rng, j), random_host(rng, k)
        pair = build_coupled_ngm(host1, host2, vec, j, k)
        if builder_fault:
            pair = NGMPair(pair.F * (1.0 + builder_fault), pair.V,
                           pair.labels)
        closed = r0_coupled_closed(host1, host2, vec, j, k).value
        rel = abs(r0(pair) - closed) / closed
        cases += 1
        if j == k:
            worst_equal = max(worst_equal, rel)
        else:
            worst_mixed = max(worst_mixed, rel)
    worst = max(worst_equal, worst_mixed)
    return CriterionResult(
        name="coupling_identities",
        description="coupled r0 equals the quadrature sum of per-species "
                    "values (equal and mixed stage counts)",
        passed=worst <= 1e-10,
        worst_error=worst,
        tolerance=1e-10,
        cases=cases,
        details={"worst_equal_stages": worst_equal,
                 "worst_mixed_stages": worst_mixed,
                 "builder_fault": builder_fault},
    )


def check_removal_limit_chain(seed: int = 42) -> CriterionResult:
    """Iterated stage removal via limits reproduces every closed form."""
    rng = np.random.default_rng(seed)
    worst_ext = 0.0
    worst_raw = 0.0
    worst_rate_gap = 0.0
    worst_target_gap = 0.0
    cases = 0
    for j in range(2, 5):
        for _ in range(5):
            vec = random_vector(rng, f=float(rng.uniform(0.1, 3.0)))
            host1, host2 = random_host(rng, j), random_host(rng, j)
            steps = relapse_limit_experiment(host1, host2, vec, j,
                                             k_final=1)
            pair = build_coupled_ngm(host1, host2, vec, j, j)
            for step in steps:
                cases += 1
                worst_ext = max(worst_ext, step.final_extrapolated_error)
                worst_raw = max(worst_raw, step.final_error)
                if step.report.fitted_rate is not None:
                    worst_rate_gap = max(
                        worst_rate_gap, abs(step.report.fitted_rate - 1.0))
                # the exact-removal route must agree with the closed form
                pair = remove_compartment(pair, step.stage)
                worst_target_gap = max(
                    worst_target_gap,
                    abs(r0(pair) - step.target) / step.target)
    passed = (worst_ext <= 1e-8 and worst_raw <= 1e-6
              and worst_rate_gap <= 0.2 and worst_target_gap <= 1e-10)
    return CriterionResult(
        name="removal_limit_chain",
        description="repeatedly driving the last species-1 stage to "
                    "infinity walks the closed-form r0 ladder",
        passed=passed,
        worst_error=worst_ext,
        tolerance=1e-8,
        cases=cases,
        details={"worst_raw_error": worst_raw,
                 "raw_tolerance": 1e-6,
                 "worst_rate_gap": worst_rate_gap,
                 "worst_exact_removal_gap": worst_target_gap},
    )


def check_threshold_consistency(seed: int = 42) -> CriterionResult:
    """sign(r0 - 1) matches the DFE linearization on relapse models."""
    rng = np.random.default_rng(seed)
    inconsistent = 0
    r0_low, r0_high = math.inf, 0.0
    cases = 0
    for _ in range(200):
        pair, _target = random_relapse_pair(rng)
        report = dfe_threshold_check(pair)
        cases += 1
        r0_low = min(r0_low, report.r0)
        r0_high = max(r0_high, report.r0)
        if not report.consistent:
            inconsistent += 1
    return CriterionResult(
        name="threshold_consistency",
        description="r0 vs 1 agrees with the sign of the DFE "
                    "linearization's spectral abscissa",
        passed=inconsistent == 0,
        worst_error=float(inconsistent),
        tolerance=0.0,
        cases=cases,
        details={"r0_low": r0_low, "r0_high": r0_high,
                 "threshold_tolerance": ngm.THRESHOLD_TOL},
    )


def run_all(seed: int = 42,
            builder_fault: float = 0.0) -> list[CriterionResult]:
    """Run every acceptance check with a shared base seed."""
    return [
        check_affine_determinant(seed),
        check_minor_inverse_limit(seed),
        check_row_col_decay(seed),
        check_spectral_radius_limit(seed),
        check_uncoupled_closed_form(seed),
        check_coupling_identities(seed, builder_fault=builder_fault),
        check_removal_limit_chain(seed),
        check_threshold_consistency(seed),
    ]
