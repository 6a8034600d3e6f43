"""Dense real-matrix values: minors, determinants, inverses, norms.

All public indices are 1-based. Matrices are immutable values; every
operation returns a fresh matrix and never mutates its inputs.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NonFiniteError, SingularMatrixError

__all__ = [
    "Matrix",
    "SINGULARITY_RTOL",
    "minor",
    "determinant",
    "inverse",
    "matmul",
    "identity",
    "inf_norm",
    "set_entry",
]

# A pivot with magnitude below SINGULARITY_RTOL * inf_norm(A) is treated
# as zero during inversion.
SINGULARITY_RTOL = 1e-12

_SMALLEST_POSITIVE = float(np.nextafter(0.0, 1.0))


class Matrix:
    """Immutable dense real matrix stored row-major as 64-bit floats.

    Construct from an iterable of rows (``Matrix([[1, 2], [3, 4]])``) or
    from a flat row-major sequence via :meth:`from_flat`. Entries must be
    finite real numbers; NaN, infinity, bool and str are rejected by a
    ConfigError naming the entry (``rows[0][1]``).
    """

    __slots__ = ("_a",)

    def __init__(self, rows: Iterable[Iterable[float]]):
        try:
            a = np.array([[_check_real(f"rows[{r}]", v, c)
                           for c, v in enumerate(row)]
                          for r, row in enumerate(rows)], dtype=np.float64)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ValueError(f"matrix rows must be equal-length sequences "
                             f"of numbers: {exc}") from None
        if not np.isfinite(a).all():
            r, c = np.argwhere(~np.isfinite(a))[0].tolist()
            raise ConfigError(f"rows[{r}][{c}]",
                              f"must be finite, got {float(a[r, c])!r}")
        self._a = _frozen(a)

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Matrix":
        """Internal constructor taking ownership of a float64 array."""
        return cls._view(_frozen(np.ascontiguousarray(a, dtype=np.float64)))

    @classmethod
    def _view(cls, a: np.ndarray) -> "Matrix":
        """Internal constructor over a read-only, C-contiguous, nonempty
        2-D float64 array that its caller has checked finite."""
        m = object.__new__(cls)
        m._a = a
        return m

    @classmethod
    def from_flat(cls, rows: int, cols: int,
                  values: Sequence[float]) -> "Matrix":
        """Build a rows x cols matrix from a row-major flat sequence."""
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be positive")
        flat = [_check_real("values", v, k) for k, v in enumerate(values)]
        if len(flat) != rows * cols:
            raise ValueError(f"need {rows * cols} values for a "
                             f"{rows}x{cols} matrix, got {len(flat)}")
        a = np.array(flat, dtype=np.float64)
        if not np.isfinite(a).all():
            k = int(np.flatnonzero(~np.isfinite(a))[0])
            raise ConfigError(f"values[{k}]",
                              f"must be finite, got {flat[k]!r}")
        return cls._wrap(a.reshape(rows, cols))

    @property
    def rows(self) -> int:
        return int(self._a.shape[0])

    @property
    def cols(self) -> int:
        return int(self._a.shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def data(self) -> tuple[float, ...]:
        """Row-major flat view of the entries."""
        return tuple(self._a.ravel().tolist())

    def entry(self, i: int, j: int) -> float:
        """Entry at 1-based position (i, j)."""
        _check_index("row index i", i, self.rows)
        _check_index("column index j", j, self.cols)
        return float(self._a[i - 1, j - 1])

    def to_lists(self) -> list[list[float]]:
        return self._a.tolist()

    def to_numpy(self) -> np.ndarray:
        """Writable copy of the underlying array."""
        return self._a.copy()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self._a, other._a))

    def __add__(self, other: "Matrix") -> "Matrix":
        _require_same_shape(self, other, "add")
        return Matrix._wrap(self._a + other._a)

    def __sub__(self, other: "Matrix") -> "Matrix":
        _require_same_shape(self, other, "subtract")
        return Matrix._wrap(self._a - other._a)

    def __mul__(self, scalar: float) -> "Matrix":
        return Matrix._wrap(self._a * _check_real("scalar", scalar))

    __rmul__ = __mul__

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return matmul(self, other)

    def __repr__(self) -> str:
        return f"Matrix({self.to_lists()!r})"


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only, if it is a nonempty 2-D finite array."""
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError("matrix needs at least one row and one column")
    _require_finite(a)
    a.setflags(write=False)
    return a


def _require_finite(a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise NonFiniteError("matrix entries must be finite (no NaN/Inf)")


def _require_same_shape(a: Matrix, b: Matrix, what: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"cannot {what} {a.rows}x{a.cols} and "
                         f"{b.rows}x{b.cols} matrices")


def _require_square(a: Matrix, what: str) -> None:
    if a.rows != a.cols:
        raise ValueError(f"{what} requires a square matrix, "
                         f"got {a.rows}x{a.cols}")


# Input checks. Each raises ConfigError (a ValueError) naming the input.

def _check_integer(name: str, value) -> None:
    """``value`` must be an integer; bool is refused."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ConfigError(name, f"must be an integer, got {value!r}")


def _check_index(name: str, value: int, upper: int) -> None:
    """``value`` must be a 1-based integer index, at most ``upper``."""
    _check_integer(name, value)
    if not 1 <= value <= upper:
        raise ConfigError(name, f"must be in 1..{upper}, got {value}")


def _check_real(name: str, value, index: "int | None" = None) -> float:
    """``value`` as a float, if it is a real number.

    bool and str are refused although ``float`` takes them, and so is
    an integer too large for a float. A member of a sequence is named
    ``name[index]``; the name is put together only when raising, as this
    runs on every matrix entry.
    """
    if value.__class__ is float:
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(_member(name, index),
                          f"must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(_member(name, index),
                          "must be finite, got an integer beyond "
                          "the float range") from None


def _check_positive(name: str, value, index: "int | None" = None) -> float:
    """``value`` as a float, if it is a finite real number above zero.
    A float skips :func:`_check_real`: this runs on every HostParams rate.
    """
    if value.__class__ is not float:
        value = _check_real(name, value, index)
    if not 0.0 < value < math.inf:
        raise ConfigError(_member(name, index),
                          f"must be positive and finite, got {value!r}")
    return value


def _check_rates(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats, each checked by _check_positive."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise ConfigError(name, f"must be a sequence of rates, "
                                f"got {values!r}")
    return tuple([_check_positive(name, v, k) for k, v in enumerate(values)])


def _member(name: str, index: "int | None") -> str:
    return name if index is None else f"{name}[{index}]"


def identity(n: int) -> Matrix:
    """The n x n identity matrix."""
    if n < 1:
        raise ValueError("identity size must be positive")
    return Matrix._wrap(np.eye(n))


def minor(a: Matrix, i: int, j: int) -> Matrix:
    """The matrix with 1-based row i and column j deleted.

    Requires at least 2 rows and 2 columns so the result is nonempty.
    """
    if a.rows < 2 or a.cols < 2:
        raise ValueError(f"minor needs at least a 2x2 matrix, "
                         f"got {a.rows}x{a.cols}")
    _check_index("row index i", i, a.rows)
    _check_index("column index j", j, a.cols)
    # a fresh C-contiguous copy, finite as every entry of ``a`` is
    out = _drop(a._a, i - 1, j - 1)
    out.setflags(write=False)
    return Matrix._view(out)


def _drop(a: np.ndarray, r: "int | None",
          k: "int | None" = None) -> np.ndarray:
    """A copy of ``a`` less its row r and its column k (0-based; None
    keeps them all; a 1-D ``a`` loses entry r): ``np.delete``'s values,
    from slices, without its per-call overhead."""
    if r is not None:
        a = np.concatenate((a[:r], a[r + 1:]))
    if k is not None:
        a = np.concatenate((a[:, :k], a[:, k + 1:]), axis=1)
    return a


def set_entry(a: Matrix, i: int, j: int, value: float) -> Matrix:
    """Copy of ``a`` with the 1-based (i, j) entry replaced."""
    _check_index("row index i", i, a.rows)
    _check_index("column index j", j, a.cols)
    v = _check_real("value", value)
    if not math.isfinite(v):
        raise ValueError("entry value must be finite")
    out = a._a.copy()
    out[i - 1, j - 1] = v
    return Matrix._wrap(out)


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product a @ b."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by "
                         f"{b.rows}x{b.cols}")
    return Matrix._wrap(a._a @ b._a)


def inf_norm(a: Matrix) -> float:
    """Infinity norm: maximum absolute row sum."""
    return float(np.abs(a._a).sum(axis=1).max())


def _lu_stack(lu: np.ndarray, floors: np.ndarray, scratch: np.ndarray):
    """Row-pivoted LU factorization P A = L U of every member of a stack.

    Factors the C-contiguous (B, n, n) array ``lu`` in place, packing each
    member's unit-lower and upper factors, and uses ``scratch`` (same
    shape) for the rank-1 updates. The column loop runs once for the whole
    stack and makes every swap and every update, whatever the entries;
    each elementwise update is the one, in the same order, that the
    elimination of that member alone performs, so a member's factors do
    not depend on the rest of the stack.

    Returns ``(perm, swaps, column, pivots)``:

    * ``perm[b * n + r]`` is the flat row (``b * n + r'``, row r' of
      member b) that pivoting moved to row r of member b;
    * ``swaps[b]`` counts member b's row interchanges;
    * ``column[b]`` is the 1-based column where member b first met a
      pivot below ``floors[b]`` (or exactly zero), 0 if it never did;
    * ``pivots[b, k]`` is the magnitude of member b's pivot in column
      k + 1.

    A member that fails is eliminated to the end all the same and its
    later factors mean nothing; callers silence the arithmetic warnings
    that raises.
    """
    count, n, _ = lu.shape
    rows = lu.reshape(count * n, n)
    perm = np.arange(count * n)
    starts = np.arange(0, count * n, n)
    diagonal = lu.diagonal(0, 1, 2)[:, :, None]
    flips = np.zeros((n, count), dtype=np.intp)
    # the last column has one candidate pivot and nothing left to update
    for k in range(n - 1):
        below = np.abs(lu[:, k:, k]).argmax(axis=1)
        # swap the flat rows k and k + below of every member (a row with
        # itself where below is 0); reversing the list of rows pairs each
        # one with its partner
        here = starts + k
        to = np.concatenate((here, (here + below)[::-1]))
        fro = to[::-1]
        rows[to] = rows[fro]
        perm[to] = perm[fro]
        flips[k] = below
        lu[:, k + 1:, k] /= diagonal[:, k]
        update = scratch[:, k + 1:, k + 1:]
        np.multiply(lu[:, k + 1:, k, None], lu[:, k, None, k + 1:],
                    out=update)
        lu[:, k + 1:, k + 1:] -= update
    swaps = np.count_nonzero(flips, axis=0)
    # the pivots end up on the diagonal
    pivots = np.abs(diagonal[:, :, 0])
    return perm, swaps, _first_low_pivot(pivots, floors), pivots


def _first_low_pivot(pivots: np.ndarray, floors: np.ndarray) -> np.ndarray:
    """The 1-based column of each member's first pivot magnitude below
    its floor (or exactly zero), 0 where there is none. Raising a zero
    floor to the smallest positive double makes one comparison catch a
    zero pivot."""
    low = pivots < np.maximum(floors, _SMALLEST_POSITIVE)[:, None]
    return np.where(low.any(axis=1), low.argmax(axis=1) + 1, 0)


def _inverse_stack(a: np.ndarray, floors: np.ndarray):
    """Inverse of every member of a C-contiguous (B, n, n) stack.

    ``a`` is overwritten by its LU factors; the inverse buffer doubles as
    the factorization's scratch, so no third stack is allocated.
    ``floors[b]`` is member b's pivot floor. Returns
    ``(inverses, column, pivots)`` with ``column`` and ``pivots`` as
    reported by :func:`_lu_stack`; a member with a nonzero column comes
    back as NaN.
    """
    count, n, _ = a.shape
    inv = np.empty_like(a)
    diagonal = a.diagonal(0, 1, 2)[:, :, None]
    with np.errstate(all="ignore"):
        perm, _, column, pivots = _lu_stack(a, floors, inv)
        # P applied to the identity, then forward and back substitution
        inv.fill(0.0)
        inv.reshape(count * n, n)[np.arange(count * n), perm % n] = 1.0
        for k in range(1, n):
            inv[:, k:k + 1] -= np.matmul(a[:, k:k + 1, :k], inv[:, :k])
        for k in range(n - 1, -1, -1):
            inv[:, k:k + 1] -= np.matmul(a[:, k:k + 1, k + 1:],
                                         inv[:, k + 1:])
            inv[:, k] /= diagonal[:, k]
    inv[column > 0] = np.nan
    return inv, column, pivots


_below_pair: "tuple[np.ndarray, np.ndarray] | None" = None


def _below(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n x n views of the mask of the entries below the
    diagonal and of the float lower triangle, diagonal included. One pair
    is kept, at the largest order met so far, and sliced to each order;
    a larger order replaces it, so views handed out before stay as they
    were. Building them is a sizeable share of a small L^-1."""
    global _below_pair
    if _below_pair is None or len(_below_pair[0]) < n:
        _below_pair = _frozen(np.tri(n, k=-1, dtype=bool)), _frozen(np.tri(n))
    mask, lower = _below_pair
    return mask[:n, :n], lower[:n, :n]


def _bidiagonal_inverse(multipliers, out: "np.ndarray | None" = None
                        ) -> np.ndarray:
    """``L^-1``, L being unit lower bidiagonal with ``multipliers`` (n - 1
    values) on its subdiagonal, as the forward substitution forms it; in
    ``out`` (n x n, C-contiguous) where it is given.

    Each row of the substitution has one nonzero product, so column c of
    ``L^-1`` is 1 at row c, then at each row r below it the running
    product of -l_r, l_r being row r's multiplier; ``+ 0.0`` turns each
    zero into the +0 the substitution leaves. Where partial pivoting
    swaps no row, no multiplier exceeds 1 in magnitude, so no product
    overflows. Above the diagonal the running products are 1.0, which
    the lower triangle's zeros make +0.
    """
    n = len(multipliers) + 1
    below, lower = _below(n)
    column = np.zeros((n, 1))
    column[1:, 0] = multipliers
    y = np.empty((n, n)) if out is None else out
    y.fill(1.0)
    np.negative(column, out=y, where=below)
    np.multiply.accumulate(y, axis=0, out=y)
    y *= lower
    y += 0.0
    return y


def _bidiagonal_inverse_last_row(multipliers) -> np.ndarray:
    """The last row of :func:`_bidiagonal_inverse` of ``multipliers``, bit
    for bit, without its other rows: entry c is the product of -l_r over
    the rows r below c, multiplied down the column in the order the
    accumulation takes (less its leading 1.0s, which change no bit), with
    its zeros made +0."""
    n = len(multipliers) + 1
    factors = np.where(_below(n)[0][1:], np.negative(multipliers)[:, None],
                       1.0)
    row = np.multiply.reduce(factors, axis=0)
    row += 0.0
    return row


def determinant(a: Matrix) -> float:
    """Determinant via row-pivoted triangular factorization.

    Returns 0.0 when elimination meets an exactly zero pivot column.
    """
    _require_square(a, "determinant")
    return _determinant_stack(a._a[None].copy())[0]


def _determinant_stack(a: np.ndarray) -> list[float]:
    """:func:`determinant` of every member of a C-contiguous (B, n, n)
    stack, which is overwritten by its LU factors."""
    with np.errstate(all="ignore"):
        _, swaps, column, _ = _lu_stack(a, np.zeros(len(a)),
                                        np.empty_like(a))
    return [0.0 if c else
            float((-1.0 if s % 2 else 1.0) * np.prod(np.diag(lu)))
            for lu, s, c in zip(a, swaps.tolist(), column.tolist())]


def inverse(a: Matrix) -> Matrix:
    """Matrix inverse via row-pivoted LU.

    Raises SingularMatrixError, carrying the offending pivot magnitude,
    when a pivot falls below ``SINGULARITY_RTOL * inf_norm(a)``.
    """
    _require_square(a, "inverse")
    floor = SINGULARITY_RTOL * inf_norm(a)
    inv, column, pivots = _inverse_stack(a._a[None].copy(),
                                         np.array([floor]))
    if column[0]:
        k = int(column[0])
        piv = float(pivots[0, k - 1])
        if piv == 0.0:
            detail = f"zero pivot in column {k}"
        else:
            detail = (f"pivot {piv:.3e} in column {k} is below "
                      f"the singularity threshold {floor:.3e}")
        raise SingularMatrixError(
            f"matrix is singular to working tolerance: {detail}",
            pivot=piv, column=k)
    return Matrix._wrap(inv[0])
