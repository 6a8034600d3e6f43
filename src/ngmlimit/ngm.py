"""Next-generation matrices: reproduction numbers and compartment removal.

An NGMPair holds the new-infection block F and the transfer block V of a
compartmental model linearized at its disease-free equilibrium. The basic
reproduction number is the spectral radius of ``F V^-1``; removing an
infected compartment corresponds to taking the (i, i) minor of both
blocks, and driving the i-th diagonal of V to infinity reproduces that
removal as a limit.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .densela import Matrix, _check_index, _require_finite, inverse, minor
from .eigen import _abscissa, _eigvals, _max_modulus
from .minorlimit import (ConvergenceReport, DiagonalRay,
                         _downdated_minor_inverse, _spectral_limit,
                         exact_minor_inverse)

__all__ = [
    "MMATRIX_TOL",
    "THRESHOLD_TOL",
    "MMatrixWarning",
    "NGMPair",
    "ThresholdReport",
    "r0",
    "remove_compartment",
    "dfe_threshold_check",
    "r0_removal_limit",
]

# V^-1 entries below -MMATRIX_TOL break the expected M-matrix structure.
MMATRIX_TOL = 1e-10

# |r0 - 1| and |abscissa| below this are treated as sitting on the
# threshold.
THRESHOLD_TOL = 1e-8


class MMatrixWarning(UserWarning):
    """The transfer block V is not an M-matrix (V^-1 has negative entries).

    The spectral-radius limit itself holds for general matrices; only the
    epidemiological reading of F V^-1 needs the sign structure, so this
    is a warning rather than an error.
    """


@dataclass(frozen=True)
class NGMPair:
    """New-infection block F, transfer block V, and compartment labels.

    F and V must be square with matching dimension and one label per
    compartment. F must be entrywise nonnegative and V nonsingular; a
    non-M-matrix V triggers an MMatrixWarning. ``V_inv`` keeps the
    inverse of V computed by that check; it is not a constructor
    argument and takes no part in ``repr`` or equality.
    :func:`remove_compartment` presets it, downdated from the larger
    pair's, through :func:`_with_inverse`, and so do the relapse builders,
    with ``inverse(V)`` formed without its triage. V is factored unless a
    ``V_inv`` is found in place with no entry below ``-MMATRIX_TOL``, so
    a warning is always decided on a factored inverse. The spectral
    radius of ``F V^-1`` is kept too, outside ``repr`` and equality, once
    it is taken; a product that overflows is not kept, so it raises again.
    """

    F: Matrix
    V: Matrix
    labels: tuple[str, ...]
    V_inv: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(map(str, self.labels)))
        if self.F.rows != self.F.cols:
            raise ValueError(f"F must be square, got {self.F.shape}")
        if self.V.shape != self.F.shape:
            raise ValueError(f"F and V must share a shape, got "
                             f"{self.F.shape} and {self.V.shape}")
        if len(self.labels) != self.F.rows:
            raise ValueError(f"need {self.F.rows} labels, "
                             f"got {len(self.labels)}")
        if (self.F._a < 0.0).any():
            raise ValueError("F must be entrywise nonnegative")
        v_inv = self.__dict__.get("V_inv")
        if v_inv is None or (v_inv._a < -MMATRIX_TOL).any():
            v_inv = inverse(self.V)  # raises SingularMatrixError if singular
            object.__setattr__(self, "V_inv", v_inv)
            if (v_inv._a < -MMATRIX_TOL).any():
                warnings.warn(
                    "V^-1 has negative entries; V is not an M-matrix and "
                    "the epidemiological reading of r0 may not apply",
                    MMatrixWarning, stacklevel=3)

    @property
    def dim(self) -> int:
        return self.F.rows

    @functools.cached_property
    def _radius(self) -> float:
        k = self.F._a @ self.V_inv._a
        _require_finite(k)
        return float(_max_modulus(_eigvals(k)))


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of the stability threshold consistency check.

    ``consistent`` is true when sign(r0 - 1) agrees with the sign of the
    spectral abscissa of F - V; ``critical`` marks the case where both
    sit on their thresholds to tolerance.
    """

    r0: float
    abscissa: float
    consistent: bool
    critical: bool


def _with_inverse(F: Matrix, V: Matrix, labels: Sequence[str],
                  V_inv: "Matrix | None") -> NGMPair:
    """``NGMPair(F, V, labels)`` with ``V_inv`` preset to a candidate
    inverse of V; ``__init__`` keeps it or, where it is None or has an
    entry below ``-MMATRIX_TOL``, factors V."""
    pair = NGMPair.__new__(NGMPair)
    object.__setattr__(pair, "V_inv", V_inv)
    pair.__init__(F, V, labels)
    return pair


def r0(pair: NGMPair) -> float:
    """Basic reproduction number: spectral radius of ``F V^-1``, taken
    once per pair. The product is checked finite as ``matmul`` checks it,
    and its radius is :func:`~ngmlimit.eigen.spectral_radius`'s, bit for
    bit."""
    return pair._radius


def remove_compartment(pair: NGMPair, i: int) -> NGMPair:
    """Drop compartment i (1-based): take (i, i) minors of F and V.

    The new pair's ``V_inv`` is downdated from ``pair.V_inv`` in O(n^2)
    where that is safe (``minorlimit._downdated_minor_inverse``) and
    factored where it is not; a singular minor raises SingularMatrixError.
    """
    if pair.dim < 2:
        raise ValueError("cannot remove the only compartment")
    _check_index("i", i, pair.dim)
    v_inv = _downdated_minor_inverse(DiagonalRay(pair.V, i), pair.V_inv)
    return _with_inverse(minor(pair.F, i, i), minor(pair.V, i, i),
                         pair.labels[:i - 1] + pair.labels[i:], v_inv)


def _threshold_sign(x: float) -> int:
    if abs(x) < THRESHOLD_TOL:
        return 0
    return 1 if x > 0.0 else -1


def dfe_threshold_check(pair: NGMPair) -> ThresholdReport:
    """Check that r0 and the linearization agree on DFE stability.

    The disease-free equilibrium is stable exactly when the spectral
    abscissa of F - V is negative, which should happen exactly when
    r0 < 1. r0 is the pair's kept radius, taken first, so an overflow in
    ``F V^-1`` raises before ``F - V`` is formed; ``F - V`` is checked
    finite as ``Matrix.__sub__`` checks it, and its abscissa is
    :func:`~ngmlimit.eigen.spectral_abscissa`'s, bit for bit.
    """
    value = pair._radius
    jacobian = pair.F._a - pair.V._a
    _require_finite(jacobian)
    abscissa = _abscissa(_eigvals(jacobian))
    s_r0 = _threshold_sign(value - 1.0)
    s_ab = _threshold_sign(abscissa)
    return ThresholdReport(
        r0=value,
        abscissa=abscissa,
        consistent=s_r0 == s_ab,
        critical=s_r0 == 0 and s_ab == 0,
    )


def r0_removal_limit(
    pair: NGMPair,
    i: int,
    schedule: "Sequence[float] | None" = None,
    target: "float | None" = None,
) -> ConvergenceReport:
    """Reproduce compartment removal by driving V's (i, i) entry upward.

    Evaluates ``rho(F V(t)^-1)`` along the schedule with F held fixed, as
    :func:`~ngmlimit.minorlimit.spectral_limit` does, and measures each
    point against the removed-compartment r0 (or an explicit ``target``,
    e.g. a closed form). The (i, i) minor's inverse, for that r0 and for
    failing fast on a singular minor, is downdated from ``pair.V_inv``
    where that is safe and factored where it is not.
    """
    ray = DiagonalRay(pair.V, i)
    minor_inverse = _downdated_minor_inverse(ray, pair.V_inv)
    if minor_inverse is None:
        minor_inverse = exact_minor_inverse(ray)
    _, report = _spectral_limit(pair.F, ray, minor_inverse, schedule, target)
    return report
