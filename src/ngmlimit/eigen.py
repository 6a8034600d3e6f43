"""Eigenvalues of small dense real matrices; spectral radius and abscissa."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _geev

from .densela import Matrix, _require_square
from .errors import ConvergenceError

__all__ = [
    "PAIRING_TOL",
    "Spectrum",
    "eigenvalues",
    "spectral_radius",
    "spectral_abscissa",
]

# Eigenvalues with |imag| below PAIRING_TOL * modulus are classified real.
PAIRING_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of a real matrix, in deterministic order.

    Values are sorted by (real part, imaginary part). For real input
    matrices the set is closed under conjugation; near-real values are
    snapped onto the real axis using ``PAIRING_TOL``.
    """

    values: tuple[complex, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def _canonical_values(raw: np.ndarray) -> tuple[complex, ...]:
    if raw.dtype.kind == "f":
        # every value is real: ordering by (real, 0.0) is a stable sort,
        # which keeps -0.0 and +0.0 in the order they came in
        return tuple(map(complex, sorted(raw.tolist())))
    # classification is scale-invariant: snap relative to each modulus
    vals = [complex(v.real, 0.0) if abs(v.imag) <= PAIRING_TOL * abs(v)
            else v for v in raw.tolist()]
    return tuple(sorted(vals, key=lambda v: (v.real, v.imag)))


def eigenvalues(a: Matrix) -> Spectrum:
    """All eigenvalues of a square matrix.

    Raises ConvergenceError if the underlying QR iteration fails to
    converge within its sweep cap.
    """
    _require_square(a, "eigenvalues")
    return Spectrum(_canonical_values(_eigvals(a._a)))


def _raise_nonconvergence(err, flag):
    raise ConvergenceError(
        "eigenvalue iteration did not converge: Eigenvalues did not converge")


def _eigvals(a: np.ndarray) -> np.ndarray:
    """Raw eigenvalues of a finite float64 (..., n, n) array.

    This is ``np.linalg.eigvals`` without its per-call checks, which
    every caller meets already: ``Matrix`` entries are finite float64,
    and stacks are checked finite where they are formed. NumPy's own
    LAPACK ``geev`` gufunc runs under the wrapper's errstate, so a
    failed iteration raises ConvergenceError with the wrapper's message,
    and, as the wrapper does, values come back real when no imaginary
    part in the whole input is nonzero.
    """
    with np.errstate(call=_raise_nonconvergence, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        raw = _geev(a, signature="d->D")
    return raw if raw.imag.any() else raw.real


def _max_modulus(raw: np.ndarray):
    """Largest modulus of raw eigenvalues along the last axis: a scalar
    for one matrix's values, one per member for a stack's.

    It is the maximum of ``abs`` over :func:`eigenvalues` bit for bit:
    ``np.hypot`` is what ``abs`` of a Python complex computes (``np.abs``
    of a complex array may differ from it in the last bit), snapping a
    value with ``|imag| <= PAIRING_TOL * |v|`` to the real axis moves its
    modulus by less than half an ulp, and ``hypot(x, 0)`` is ``|x|``.
    """
    return np.hypot(raw.real, raw.imag).max(axis=-1)


def _abscissa(raw: np.ndarray) -> float:
    """Largest real part of one matrix's raw eigenvalues, the maximum
    over :func:`eigenvalues` bit for bit.

    Snapping moves no real part, so a nonzero top is one bit pattern.
    A top of 0.0 may tie -0.0 with +0.0, and LAPACK may list a complex
    pair as ``-0+0.5j, +0-0.5j``, so ``argmax`` alone could give the
    other sign; such a top is taken from the ``Spectrum`` order.
    """
    real = raw.real
    top = float(real[real.argmax()])
    if top == 0.0:
        return max(v.real for v in _canonical_values(raw))
    return top


def spectral_radius(a: Matrix) -> float:
    """Maximum eigenvalue modulus; 0 for the zero matrix. The maximum
    over :func:`eigenvalues` bit for bit, taken from LAPACK's values."""
    _require_square(a, "eigenvalues")
    return float(_max_modulus(_eigvals(a._a)))


def spectral_abscissa(a: Matrix) -> float:
    """Maximum eigenvalue real part, the maximum over :func:`eigenvalues`
    bit for bit."""
    _require_square(a, "eigenvalues")
    return _abscissa(_eigvals(a._a))
