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

# Eigenvalues with |imag| below PAIRING_TOL * scale are classified real;
# the same tolerance pairs complex conjugates.
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
    vals = [complex(v) for v in raw]
    # classification is scale-invariant: snap relative to each modulus
    vals = [complex(v.real, 0.0) if abs(v.imag) <= PAIRING_TOL * abs(v)
            else v for v in vals]

    pair_tol = 2.0 * PAIRING_TOL * max(abs(v) for v in vals)
    uppers = [v for v in vals if v.imag > 0.0]
    lowers = [v for v in vals if v.imag < 0.0]
    for v in uppers:
        match = min(lowers, key=lambda w: abs(w - v.conjugate()), default=None)
        if match is None or abs(match - v.conjugate()) > pair_tol:
            raise ConvergenceError(
                f"spectrum is not closed under conjugation: no partner "
                f"for eigenvalue {v!r}")
        lowers.remove(match)
    if lowers:
        raise ConvergenceError(
            f"spectrum is not closed under conjugation: unmatched "
            f"eigenvalues {lowers!r}")

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


def _each_member(stack: np.ndarray) -> list[np.ndarray]:
    """Raw eigenvalues of each member of a (B, n, n) stack, from one call,
    as a call on that member alone returns them: LAPACK runs on each
    member as on a lone matrix, but only a stack whose values are all
    real comes back real, so a member with no nonzero imaginary part is
    taken as its real parts.
    """
    raw = _eigvals(stack)
    if raw.dtype.kind == "f":
        return list(raw)
    complex_members = raw.imag.any(axis=1).tolist()
    return [member if is_complex else member.real
            for member, is_complex in zip(raw, complex_members)]


def _radius(raw: np.ndarray) -> float:
    """:func:`spectral_radius` of raw eigenvalues."""
    if raw.dtype.kind == "f":
        return float(np.abs(raw).max())
    return max(abs(v) for v in _canonical_values(raw))


def _abscissa(raw: np.ndarray) -> float:
    """:func:`spectral_abscissa` of raw eigenvalues.

    Snapping and pairing move no real part, so a complex spectrum whose
    upper half-plane values are exactly the conjugates of its lower ones,
    in LAPACK's order, which the pairing accepts, gives its largest real
    part if that is nonzero (one bit pattern) and not NaN. Any other is
    paired, which raises as :func:`eigenvalues` does and keeps the first
    of tied -0.0 and +0.0.
    """
    if raw.dtype.kind == "f":
        return float(raw[raw.argmax()])
    top = raw.real.max()
    if abs(top) > 0.0:
        imag = raw.imag
        if np.array_equal(raw[imag > 0.0], raw[imag < 0.0].conj()):
            return float(top)
    return max(v.real for v in _canonical_values(raw))


def spectral_radius(a: Matrix) -> float:
    """Maximum eigenvalue modulus; 0 for the zero matrix.

    The maximum over :func:`eigenvalues`, bit for bit. A real spectrum is
    read as LAPACK returns it, since it needs no pairing; a complex one
    is paired as :func:`eigenvalues` pairs it.
    """
    _require_square(a, "eigenvalues")
    return _radius(_eigvals(a._a))


def _spectral_radii(stack: np.ndarray) -> list[float]:
    """:func:`spectral_radius` of every member of a finite (B, n, n)
    stack, from one eigenvalue call.

    The values are snapped to the real axis as :func:`eigenvalues` snaps
    them, for the whole stack at once. A member whose upper half-plane
    values are exactly the conjugates of its lower ones, as LAPACK
    returns complex pairs, is closed under conjugation; any other member
    goes through the member-wise pairing, which raises the same
    ConvergenceError. Moduli are taken with ``np.hypot``, which is what
    ``abs`` of a Python complex computes; ``np.abs`` of a complex array
    may differ from it in the last bit. A stack whose values are all
    real needs neither step: its moduli are ``np.abs`` of the values,
    which is what ``hypot(x, 0)`` gives.
    """
    raw = _eigvals(stack)
    if raw.dtype.kind == "f":
        return np.abs(raw).max(axis=1).tolist()
    values = raw.astype(complex)
    real, imag = values.real, values.imag
    imag[np.abs(imag) <= PAIRING_TOL * np.hypot(real, imag)] = 0.0
    upper = np.where(imag > 0.0, values, np.inf)
    lower = np.where(imag < 0.0, values.conj(), np.inf)
    closed = (np.sort(upper, axis=1) == np.sort(lower, axis=1)).all(axis=1)
    for b in np.flatnonzero(~closed).tolist():
        _canonical_values(raw[b])
    return np.hypot(real, imag).max(axis=1).tolist()


def spectral_abscissa(a: Matrix) -> float:
    """Maximum eigenvalue real part, the maximum over :func:`eigenvalues`
    bit for bit. ``argmax`` keeps the first of tied -0.0 and +0.0 in a
    real spectrum, as ``max`` over the ``Spectrum`` does; ``np.max`` may
    not.
    """
    _require_square(a, "eigenvalues")
    return _abscissa(_eigvals(a._a))
