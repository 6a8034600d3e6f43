"""Diagonal-entry limits of matrix inverses.

With ``A(t)`` denoting a square matrix whose (i, i) entry is replaced by
``t``, this module evaluates three facts numerically:

  * ``det A(t)`` is affine in ``t`` with slope ``det`` of the (i, i) minor;
  * the (i, i) minor of ``A(t)^-1`` converges to the inverse of the
    (i, i) minor of ``A`` as ``t -> inf``, while row and column ``i`` of
    ``A(t)^-1`` decay to zero at rate O(1/t);
  * the spectral radius of ``F A(t)^-1`` converges to the spectral radius
    of the product of the (i, i) minors' counterpart,
    ``F_minor (A_minor)^-1``.

Each limit is evaluated along a schedule of t values and summarised in a
ConvergenceReport with raw errors, pairwise extrapolated errors and a
fitted decay rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.exceptions import RankWarning
from numpy.linalg._umath_linalg import lstsq as _gelsd

from .densela import (_SMALLEST_POSITIVE, SINGULARITY_RTOL, Matrix,
                      _bidiagonal_inverse_last_row, _check_index,
                      _check_integer, _check_positive, _check_real, _drop,
                      _inverse_stack, _require_finite, determinant,
                      inf_norm, inverse, matmul, minor, set_entry)
from .eigen import _eigvals, _max_modulus, spectral_radius
from .errors import (ConfigError, ConvergenceError, NonFiniteError,
                     SingularMatrixError)

__all__ = [
    "CONDITION_GUARD",
    "DiagonalRay",
    "ConvergenceReport",
    "default_schedule",
    "det_affine_coeffs",
    "exact_minor_inverse",
    "limit_minor_inverse",
    "row_col_decay",
    "richardson",
    "assemble_limit_inverse",
    "spectral_limit",
]

_EPS = float(np.finfo(np.float64).eps)

# The bit pattern of +inf: a float64 whose bits, read as an unsigned
# integer, are below it is finite and has no sign bit set.
_INF_BITS = 0x7FF0000000000000

# Inversions with estimated condition number above this are flagged
# unreliable in reports rather than trusted.
CONDITION_GUARD = 1.0 / (100.0 * _EPS)

# Least-squares rate fitting needs at least this many clean points.
_MIN_FIT_POINTS = 3

# A minor-inverse downdate gives way to factoring when its rank-one
# correction, or its terms against its result, grow past this factor.
_DOWNDATE_GROWTH = 10.0

# ... or when n * cond_inf of the minor passes this: factoring could then
# meet a pivot below the singularity floor (1e12, with a 100x margin).
_DOWNDATE_CONDITION = 1e10


@dataclass(frozen=True)
class DiagonalRay:
    """A square matrix together with one varying diagonal entry.

    ``at(t)`` produces the family member with the 1-based (i, i) entry
    replaced by ``t``; all other entries stay fixed.
    """

    base: Matrix
    i: int

    def __post_init__(self):
        if self.base.rows != self.base.cols:
            raise ValueError(f"ray base must be square, got "
                             f"{self.base.rows}x{self.base.cols}")
        if self.base.rows < 2:
            raise ValueError("ray base must be at least 2x2")
        _check_index("i", self.i, self.base.rows)

    def at(self, t: float) -> Matrix:
        """The family member with diagonal entry (i, i) set to ``t``."""
        return set_entry(self.base, self.i, self.i, t)

    def at_many(self, ts: Sequence[float]) -> np.ndarray:
        """The members at every t, stacked into a fresh (len(ts), n, n)
        array that the caller owns."""
        values = np.array([_check_real("ts", t, k)
                           for k, t in enumerate(ts)])
        if not np.isfinite(values).all():
            raise ValueError("entry value must be finite")
        stack = np.repeat(self.base._a[None], len(values), axis=0)
        stack[:, self.i - 1, self.i - 1] = values
        return stack


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-schedule-point errors for a limit computation.

    Attributes:
        schedule: Strictly increasing positive t values.
        errors: Sup-norm error of each iterate against the exact target;
            NaN where the point was skipped (singular matrix).
        extrapolated_errors: Error of the first-order extrapolant built
            from each adjacent schedule pair (length ``len(schedule)-1``);
            NaN where either endpoint was skipped.
        fitted_rate: Exponent p from a least-squares fit of
            ``error ~ C / t**p`` over clean points, or None when fewer
            than three usable points remain.
        flagged: True where the point was skipped or its inversion
            tripped the conditioning guard.
    """

    schedule: tuple[float, ...]
    errors: tuple[float, ...]
    extrapolated_errors: tuple[float, ...]
    fitted_rate: "float | None"
    flagged: tuple[bool, ...]

    def __post_init__(self):
        _validate_schedule(self.schedule)
        n = len(self.schedule)
        if len(self.errors) != n or len(self.flagged) != n:
            raise ValueError("errors and flagged must match the schedule")
        if len(self.extrapolated_errors) != n - 1:
            raise ValueError("need one extrapolated error per adjacent pair")
        for e in self.errors + self.extrapolated_errors:
            if math.isfinite(e) and e < 0.0:
                raise ValueError("errors must be nonnegative")


def _validate_schedule(schedule: Sequence[float]) -> tuple[float, ...]:
    """The schedule as a tuple of floats: nonempty, each value positive
    and finite, strictly increasing."""
    ts = tuple([_check_positive("schedule", t, k)
                for k, t in enumerate(schedule)])
    if not ts:
        raise ConfigError("schedule", "must be nonempty")
    for a, b in zip(ts, ts[1:]):
        if not b > a:
            raise ConfigError("schedule", "must be strictly increasing")
    return ts


def default_schedule(base: Matrix, first_decade: int = 1,
                     last_decade: int = 8) -> tuple[float, ...]:
    """Geometric schedule ``inf_norm(base) * 10**k`` for the decade range.

    Geometric spacing samples log-t uniformly, which is what the
    rate fit wants for an O(1/t) error. A point beyond the float range
    raises NonFiniteError naming the norm and the decade.
    """
    _check_integer("first_decade", first_decade)
    _check_integer("last_decade", last_decade)
    if last_decade < first_decade:
        raise ConfigError("last_decade", f"must be at least first_decade "
                                         f"{first_decade}, got {last_decade}")
    scale = inf_norm(base)
    if scale == 0.0:
        scale = 1.0
    decades = range(first_decade, last_decade + 1)
    try:
        schedule = tuple(scale * 10.0 ** k for k in decades)
    except OverflowError:
        raise ConfigError("last_decade", f"10**{last_decade} is beyond "
                                         f"the float range") from None
    for k, t in zip(decades, schedule):
        if t == math.inf:
            raise NonFiniteError(f"default schedule: inf_norm {scale:.3e} "
                                 f"times 10**{k} is beyond the float range")
    return schedule


def det_affine_coeffs(ray: DiagonalRay) -> tuple[float, float]:
    """Slope and intercept of ``t -> det A(t)``.

    The determinant is affine in the varying diagonal entry: the slope is
    the determinant of the (i, i) minor and the intercept is
    ``det A(0)``. A zero slope signals a singular minor; the limit
    operations reject such rays, this one does not.
    """
    slope = determinant(minor(ray.base, ray.i, ray.i))
    intercept = determinant(ray.at(0.0))
    return slope, intercept


def exact_minor_inverse(ray: DiagonalRay) -> Matrix:
    """Inverse of the (i, i) minor: the target of the inverse limit."""
    try:
        return inverse(minor(ray.base, ray.i, ray.i))
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"the (i, i) minor at i={ray.i} is singular "
            f"(pivot {exc.pivot:.3e} in minor column {exc.column})",
            pivot=exc.pivot, column=exc.column) from None


def _downdated_minor_inverse(ray: DiagonalRay,
                             base_inverse: Matrix) -> "Matrix | None":
    """The inverse of the ray's (i, i) minor, downdated from
    ``base_inverse``, the inverse of the ray's base; None where the
    downdate cannot be trusted and the caller must factor the minor.

    With ``B = A^-1`` and m every index but i, the (i, i) minor's inverse
    is ``M = B_mm - B_mi B_im / B_ii``: O(n^2) work in place of an O(n^3)
    factorization. Where column or row i of B is zero off the diagonal
    (the last or first stage of a chain), the correction is zero and the
    subtraction exact; on relapse models M is then bit for bit the
    factored inverse. Where column i is +0 off the diagonal and row i,
    over B_ii, is finite with no sign bit set, every term of the
    correction is +0 and ``x - (+0)`` is x, -0 included: M is ``B_mm``
    itself and its norm that of ``B_mm``, with no correction formed. Any
    other zero column takes the subtraction, which turns a -0 of
    ``B_mm`` into +0 where its term is -0.

    None is returned, so that factoring decides, and raises where the
    minor is singular, when (inf-norms):

    * B_ii is zero or not finite;
    * B_ii is small against ``|B_mi| |B_im| / |B_mm|``: the correction
      ``B_mi B_im / B_ii`` exceeds _DOWNDATE_GROWTH * |B_mm| (it never
      exceeds |B_mm| when A is an M-matrix);
    * the subtraction cancels: ``|B_mm|`` plus the correction's norm
      exceeds _DOWNDATE_GROWTH * |M|;
    * ``n |M| |A_[i,i]|`` exceeds _DOWNDATE_CONDITION, n being the minor's
      order. Partial pivoting gives ``P A_[i,i] = L U`` with
      ``|L| <= n``, so every pivot is at least ``1 / (n |M|)``; below
      1e12 none falls under ``SINGULARITY_RTOL * |A_[i,i]|``, and the 100x
      margin covers the rounding in M.
    """
    b = base_inverse._a
    c = ray.i - 1
    pivot = float(b[c, c])
    if pivot == 0.0 or not math.isfinite(pivot):
        return None
    rows = _drop(b, c)
    kept = _drop(rows, None, c)
    column = rows[:, c]
    # row i over B_ii, whose entry i is 1.0 and passes the test below
    row = b[c] / pivot
    kept_norm = np.abs(kept).sum(axis=1).max()
    # by bit pattern: a column entry other than +0, or a row entry with
    # its sign bit set or its exponent all ones (infinite or NaN)
    if (np.count_nonzero(column.view(np.int64))
            or np.count_nonzero(row.view(np.uint64) >= _INF_BITS)):
        row = _drop(row, c)
        downdated = kept - np.outer(column, row)
        correction_norm = np.abs(column).max() * np.abs(row).sum()
        norm = np.abs(downdated).sum(axis=1).max()
    else:
        downdated, correction_norm, norm = kept, 0.0, kept_norm
    # |A_[i,i]|: the rows of |A|, less their column i, with row i's sum
    # zeroed; the others are at least zero, and there is one at least
    a = np.abs(ray.base._a)
    sums = a.sum(axis=1)
    sums -= a[:, c]
    sums[c] = 0.0
    # written so that a NaN fails each test
    if not (correction_norm <= _DOWNDATE_GROWTH * kept_norm
            and kept_norm + correction_norm <= _DOWNDATE_GROWTH * norm
            and (len(b) - 1) * norm * sums.max() <= _DOWNDATE_CONDITION):
        return None
    # the last test holds only where norm, and so every entry, is finite
    downdated.setflags(write=False)
    return Matrix._view(downdated)


def richardson(x_t: Matrix, x_2t: Matrix, ratio: float = 2.0) -> Matrix:
    """First-order Richardson extrapolant of two iterates.

    For iterates at t and ``ratio * t`` of a quantity behaving like
    ``L + c/t``, returns ``(ratio * x_2t - x_t) / (ratio - 1)``, which
    cancels the ``c/t`` term; at the default doubling ratio this is
    ``2 * x_2t - x_t`` exactly.
    """
    if x_t.shape != x_2t.shape:
        raise ValueError(f"iterates must share a shape, got "
                         f"{x_t.shape} and {x_2t.shape}")
    ratio = _check_real("ratio", ratio)
    if not 1.0 < ratio < math.inf:
        raise ConfigError("ratio", f"must be finite and exceed 1, "
                                   f"got {ratio!r}")
    return Matrix._wrap(_pair_extrapolant(1.0, x_t._a, ratio, x_2t._a))


def assemble_limit_inverse(ray: DiagonalRay) -> Matrix:
    """The full limit of ``A(t)^-1``: minor inverse bordered by zeros.

    Row and column i decay to zero in the limit, so the limit matrix is
    the exact minor inverse with a zero row and column inserted at i.
    """
    core = exact_minor_inverse(ray)._a
    n = ray.base.rows
    keep = [k for k in range(n) if k != ray.i - 1]
    out = np.zeros((n, n))
    out[np.ix_(keep, keep)] = core
    return Matrix._wrap(out)


def row_col_decay(ray: DiagonalRay, t: float) -> tuple[float, float]:
    """Largest magnitudes in row i and column i of ``A(t)^-1``.

    Both maxima (diagonal entry included) decay like O(1/t).
    """
    return _row_col_maxima(ray, (_check_real("t", t),))[0]


def _row_col_maxima(ray: DiagonalRay,
                    ts: Sequence[float]) -> list[tuple[float, float]]:
    """:func:`row_col_decay` at every t, from one stacked inversion.

    Raises the SingularMatrixError that ``inverse(ray.at(t))`` raises
    for the first singular t.
    """
    inverses, usable, _ = _invert_schedule(ray, ts)
    for t, ok in zip(ts, usable):
        if not ok:
            # inverting that point alone raises the error to report
            inverse(ray.at(t))
    _require_finite(inverses)
    c = ray.i - 1
    row_max = np.abs(inverses[:, c, :]).max(axis=1).tolist()
    col_max = np.abs(inverses[:, :, c]).max(axis=1).tolist()
    return list(zip(row_max, col_max))


def limit_minor_inverse(
    ray: DiagonalRay,
    schedule: "Sequence[float] | None" = None,
) -> tuple[Matrix, ConvergenceReport]:
    """Evaluate the minor-inverse limit along a schedule.

    For each t computes the (i, i) minor of ``A(t)^-1`` and measures it
    against the exact minor inverse. Schedule points where ``A(t)`` is
    singular are skipped and flagged; if every point is singular a
    ConvergenceError is raised. The returned estimate is the first-order
    extrapolant of the last two clean iterates.
    """
    exact = exact_minor_inverse(ray)
    ts = _validate_schedule(schedule if schedule is not None
                            else default_schedule(ray.base))
    inverses, usable, flags = _invert_schedule(ray, ts)
    keep = np.delete(np.arange(ray.base.rows), ray.i - 1)
    minors = inverses[:, keep[:, None], keep]
    values = [m if ok else None for m, ok in zip(minors, usable)]
    estimate, report = _summarize(ts, values, flags, exact._a)
    return Matrix._wrap(np.array(estimate, dtype=np.float64)), report


def spectral_limit(
    f: Matrix,
    v_ray: DiagonalRay,
    schedule: "Sequence[float] | None" = None,
    target: "float | None" = None,
) -> tuple[float, ConvergenceReport]:
    """Evaluate ``rho(F A(t)^-1)`` along a schedule of diagonal values.

    The limit equals the spectral radius of the reduced product
    ``F_minor (A_minor)^-1``, which is used as the error target unless an
    explicit ``target`` is supplied. F is held fixed throughout.
    """
    if f.shape != v_ray.base.shape:
        raise ValueError(f"F must match the ray base shape "
                         f"{v_ray.base.shape}, got {f.shape}")
    # factored even with a target given: a singular minor fails fast
    return _spectral_limit(f, v_ray, exact_minor_inverse(v_ray),
                           schedule, target)


def _spectral_limit(f: Matrix, v_ray: DiagonalRay, minor_inverse: Matrix,
                    schedule: "Sequence[float] | None",
                    target: "float | None") -> tuple[float, ConvergenceReport]:
    """:func:`spectral_limit`, given the inverse of the ray's (i, i) minor,
    from which the target comes when none is given. A given target is a
    spectral radius: a finite real number, at least zero."""
    if target is None:
        target = spectral_radius(
            matmul(minor(f, v_ray.i, v_ray.i), minor_inverse))
    else:
        target = _check_real("target", target)
        if not 0.0 <= target < math.inf:
            raise ConfigError("target", f"must be finite and at least 0, "
                                        f"got {target!r}")
    ts = _validate_schedule(schedule if schedule is not None
                            else default_schedule(v_ray.base))
    # F A(t)^-1 is zero outside F's nonzero rows R, so its nonzero
    # eigenvalues are those of its (R, R) block
    rows = np.flatnonzero(f._a.any(axis=1))
    factored = _last_stage_schedule(v_ray, ts, minor_inverse)
    if factored is None:
        inverses, usable, flags = _invert_schedule(v_ray, ts)
        # rebinding frees the full stack, so at most two stacks are alive
        inverses = inverses[usable]
        _require_finite(inverses)
        products = np.matmul(f._a[rows], inverses)
    else:
        # the rows other than i are the minor's inverse bordered by
        # zeros, which the caller has checked finite
        kept, last, usable, flags = factored
        _require_finite(last)
        c = v_ray.i - 1
        f_rows = f._a[rows]
        # the other rows' product is shared; row i's term is added last,
        # as the full product sums it where row i holds the last nonzero
        # of each column (a chain's last stage)
        products = f_rows[:, c, None] * last[:, None]
        products += _drop(f_rows, None, c) @ kept
    _require_finite(products)
    blocks = np.ascontiguousarray(products[:, :, rows])
    radii = iter(_max_modulus(_eigvals(blocks)).tolist()
                 if len(rows) else [0.0] * len(products))
    values = [next(radii) if ok else None for ok in usable]
    estimate, report = _summarize(ts, values, flags, target)
    return float(estimate), report


def _last_stage_schedule(ray: DiagonalRay, ts: Sequence[float],
                         minor_inverse: Matrix):
    """:func:`_invert_schedule` of a ray whose base is lower bidiagonal,
    with column i zero below the diagonal and no entry larger in
    magnitude than the pivot above it (a chain's last stage), without
    the stack of inverses; None for any other ray.

    Each point is then ``A(t) = L D(t)``, L shared and D(t) its diagonal,
    so ``A(t)^-1 = D(t)^-1 L^-1`` differs between points in row i alone.
    Partial pivoting keeps every pivot and the updates change no entry,
    so L's multipliers are the general kernel's, and ``L^-1`` is formed as its
    forward substitution forms it (:func:`_bidiagonal_inverse`).
    Returns the rows other than i of every ``A(t)^-1`` (n - 1 x n), row i
    at each usable point, and each point's usable and flag, equal to
    :func:`_invert_schedule`'s. A row of ``|A(t)|`` has at most two
    nonzeros, so NumPy's row sum is one addition in any order: the other
    rows' largest is taken once, and row i's is ``|a_i,i-1| + t``. A point
    is usable where t and the smallest fixed |pivot| clear its raised
    floor, the comparisons :func:`_first_low_pivot` makes. Row i of
    ``|A(t)^-1|`` is summed per point at length n, as the stack sums it.

    The rows other than i are ``minor_inverse``, the inverse of the
    (i, i) minor, with column i put back: L's column i is zero below the
    diagonal, so that column is ``+0 / pivot`` and the rest of those
    rows is the minor's inverse. Where ``minor_inverse`` is factored, or
    downdated from a V^-1 formed as above, that is the formula's value
    bit for bit. Where it is downdated from a V^-1 that a removal at a
    middle stage downdated before, it keeps that round-off, as does the
    removed-compartment r0 taken from it, and the radii may move in the
    last bits against re-formed rows. Row i of ``L^-1`` needs only the
    rows above it, so it is the formula's last row of the leading (i x i)
    block (:func:`_bidiagonal_inverse_last_row`), padded with +0. Every
    step runs under one errstate: a condition estimate past the float
    range is inf, which trips the guard, as the stack's does, unwarned.
    """
    a = ray.base._a
    c = ray.i - 1
    n = len(a)
    pivots, below = a.diagonal(), a.diagonal(-1)
    magnitudes, drops = np.abs(pivots), np.abs(below)
    # every nonzero on the diagonal or just below it, none below the
    # diagonal in column i, and, so that pivoting swaps no row, none
    # outweighing the pivot above it
    if (np.count_nonzero(a != 0.0)
            != np.count_nonzero(magnitudes) + np.count_nonzero(drops)
            or (c < n - 1 and below[c])
            or np.count_nonzero(drops > magnitudes[:-1])):
        return None
    m = minor_inverse._a
    kept = np.empty((n - 1, n))
    kept[:, :c] = m[:, :c]
    kept[:, c + 1:] = m[:, c:]
    sums = magnitudes.copy()
    sums[1:] += drops
    # every row sum and |pivot| is at least zero: zeroing row i's sum
    # and making its pivot infinite leaves the other rows' largest sum
    # and smallest pivot
    sums[c] = 0.0
    magnitudes[c] = math.inf
    t = np.array(ts)
    with np.errstate(all="ignore"):
        norms = np.maximum(sums.max(), t + drops[c - 1] if c else t)
        low = np.maximum(SINGULARITY_RTOL * norms, _SMALLEST_POSITIVE)
        usable = (t >= low) & (magnitudes.min() >= low)
        kept[:, c] = 0.0 / _drop(pivots, c)
        y = np.zeros(n)
        y[:c + 1] = _bidiagonal_inverse_last_row(below[:c] / pivots[:c])
        last = y / t[:, None]
        inverse_norms = np.maximum(np.abs(kept).sum(axis=1).max(),
                                   np.abs(last).sum(axis=1))
        flags = ~usable | (norms * inverse_norms > CONDITION_GUARD)
    return kept, last[usable], usable.tolist(), flags.tolist()


def _invert_schedule(ray: DiagonalRay, ts: Sequence[float]):
    """``A(t)^-1`` at every schedule point, from one stacked call.

    Returns the (len(ts), n, n) inverses, whether each point is
    nonsingular, and each point's flag: singular, or an inf-norm
    condition estimate above CONDITION_GUARD.
    """
    stack = ray.at_many(ts)
    norms = np.abs(stack).sum(axis=2).max(axis=1)
    inverses, column, _ = _inverse_stack(stack, SINGULARITY_RTOL * norms)
    # the factored stack is spent; it holds |A(t)^-1| for the estimate
    inverse_norms = np.abs(inverses, out=stack).sum(axis=2).max(axis=1)
    usable = column == 0
    flags = ~usable | (norms * inverse_norms > CONDITION_GUARD)
    return inverses, usable.tolist(), flags.tolist()


def _pair_extrapolant(t1: float, x1, t2: float, x2):
    """General-ratio first-order extrapolant through two iterates."""
    return (t2 * x2 - t1 * x1) / (t2 - t1)


def _summarize(ts, values, flags, exact):
    """The estimate and the ConvergenceReport of the iterates ``values``
    (None where a point was skipped) along the validated schedule ``ts``
    against ``exact``, a float or an array."""
    usable = [k for k, v in enumerate(values) if v is not None]
    if not usable:
        raise ConvergenceError(
            "every schedule point produced a singular matrix")

    if isinstance(exact, float):
        # the array path's IEEE operations, on scalars; math.fabs returns
        # a float. A skipped point's error, and the extrapolated errors
        # it enters, are NaN.
        errors = [math.nan if v is None else math.fabs(v - exact)
                  for v in values]
        extrapolated = [
            math.nan if x1 is None or x2 is None
            else math.fabs(_pair_extrapolant(t1, x1, t2, x2) - exact)
            for t1, x1, t2, x2 in zip(ts, values, ts[1:], values[1:])]
    else:
        # One array pass over every point. A skipped point is a block of
        # NaN, which makes NaN its error and the extrapolated errors it
        # enters.
        blank = np.full(np.shape(values[usable[0]]), math.nan)
        x = np.array([blank if v is None else v for v in values])
        t = np.array(ts).reshape((-1,) + (1,) * (x.ndim - 1))
        errors = _max_abs_errors(x, exact)
        extrapolated = _max_abs_errors(
            _pair_extrapolant(t[:-1], x[:-1], t[1:], x[1:]), exact)

    clean = [k for k in usable if not flags[k]]
    pick = clean if len(clean) >= 2 else usable
    if len(pick) >= 2:
        a, b = pick[-2], pick[-1]
        estimate = _pair_extrapolant(ts[a], values[a], ts[b], values[b])
    else:
        estimate = values[pick[-1]]

    # every field holds the report's invariants by construction, so
    # __post_init__ does not check them again
    report = object.__new__(ConvergenceReport)
    vars(report).update(
        schedule=ts,
        errors=tuple(errors),
        extrapolated_errors=tuple(extrapolated),
        fitted_rate=_fit_rate(ts, errors, flags),
        flagged=tuple(flags),
    )
    return estimate, report


def _max_abs_errors(x: np.ndarray, exact) -> list[float]:
    """Largest ``|x[k] - exact|`` of each point k of the stack ``x``."""
    return np.abs(x - exact).max(axis=tuple(range(1, x.ndim))).tolist()


def _raise_lstsq_failure(err, flag):
    raise np.linalg.LinAlgError(
        "SVD did not converge in Linear Least Squares")


def _fit_rate(ts, errors, flags) -> "float | None":
    """Minus the slope of ``np.polyfit(log t, log e, 1)`` over the clean
    points, bit for bit, with NumPy's LAPACK least-squares gufunc called
    directly. As polyfit does: the Vandermonde columns ``[log t, 1]``
    scaled to unit 2-norm, ``rcond`` of ``len * eps``, the slope divided
    by its column's scale, RankWarning on a rank below 2, and the
    wrapper's errstate, which turns a failed SVD into its LinAlgError.
    The logarithms are ``math.log``'s: ``np.log`` may differ in the last
    bit.
    """
    log_t, log_e = [], []
    for t, e, flagged in zip(ts, errors, flags):
        # a NaN error fails both comparisons
        if not flagged and 0.0 < e < math.inf:
            log_t.append(math.log(t))
            log_e.append(math.log(e))
    if len(log_t) < _MIN_FIT_POINTS:
        return None
    lhs = np.empty((len(log_t), 2))
    lhs[:, 0] = log_t
    lhs[:, 1] = 1.0
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    with np.errstate(call=_raise_lstsq_failure, invalid="call",
                     over="ignore", divide="ignore", under="ignore"):
        solution, _, rank, _ = _gelsd(lhs, np.array(log_e)[:, None],
                                      len(log_t) * _EPS,
                                      signature="ddd->ddid")
    if rank != 2:
        warnings.warn("Polyfit may be poorly conditioned", RankWarning)
    return float(-(solution[0, 0] / scale[0]))
