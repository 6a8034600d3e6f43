import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngmlimit import densela
from ngmlimit.densela import (SINGULARITY_RTOL, Matrix, _below,
                              _bidiagonal_inverse,
                              _bidiagonal_inverse_last_row,
                              _determinant_stack, _inverse_stack,
                              determinant, identity, inf_norm, inverse,
                              matmul, minor, set_entry)
from ngmlimit.errors import ConfigError, SingularMatrixError
from ngmlimit.minorlimit import DiagonalRay
from ngmlimit.relapse import HostParams, VectorParams, build_coupled_ngm

WORKED_3X3 = Matrix([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])

# cofactor_det is O(n!), so it refuses matrices larger than this.
COFACTOR_SIZE_LIMIT = 10


def cofactor_det(a: Matrix) -> float:
    """Reference: determinant by recursive cofactor expansion along the
    first row, for square matrices up to COFACTOR_SIZE_LIMIT."""
    if a.rows > COFACTOR_SIZE_LIMIT:
        raise ValueError(f"cofactor_det is limited to matrices of size "
                         f"{COFACTOR_SIZE_LIMIT}, got {a.rows}")
    return _cofactor_expand(a.to_numpy())


def _cofactor_expand(m: np.ndarray) -> float:
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    rest = m[1:, :]
    for k in range(n):
        if m[0, k] == 0.0:
            continue
        sub = np.delete(rest, k, axis=1)
        term = m[0, k] * _cofactor_expand(sub)
        total += -term if k % 2 else term
    return total


def loop_lu(a: np.ndarray, pivot_floor: float):
    """Reference: one matrix, row-pivoted LU in a Python column loop.

    Returns (lu, perm, sign), or raises SingularMatrixError carrying the
    first pivot below the floor (or exactly zero) and its 1-based column.
    The stacked kernel must reproduce it bit for bit.
    """
    n = a.shape[0]
    lu = a.astype(np.float64, copy=True)
    perm = np.arange(n)
    sign = 1.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(lu[k:, k])))
        piv = abs(lu[p, k])
        if piv < pivot_floor or piv == 0.0:
            raise SingularMatrixError("singular", pivot=piv, column=k + 1)
        if p != k:
            lu[[k, p]] = lu[[p, k]]
            perm[[k, p]] = perm[[p, k]]
            sign = -sign
        lu[k + 1:, k] /= lu[k, k]
        lu[k + 1:, k + 1:] -= np.outer(lu[k + 1:, k], lu[k, k + 1:])
    return lu, perm, sign


def loop_inverse(a: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    lu, perm, _ = loop_lu(a, SINGULARITY_RTOL * inf_norm(Matrix(a)))
    x = np.eye(n)[perm]
    for k in range(1, n):
        x[k] -= lu[k, :k] @ x[:k]
    for k in range(n - 1, -1, -1):
        if k < n - 1:
            x[k] -= lu[k, k + 1:] @ x[k + 1:]
        x[k] /= lu[k, k]
    return x


def stack_floors(stack: np.ndarray) -> np.ndarray:
    return SINGULARITY_RTOL * np.abs(stack).sum(axis=2).max(axis=1)


def ladder_v_schedule(j: int, points: int = 29) -> np.ndarray:
    """V(t) of a coupled (j, j) relapse pair over a quarter-decade
    schedule, with species 1's last stage as the varying entry."""
    rng = np.random.default_rng(j)

    def host():
        return HostParams(c=1.0, s_bar=1.0,
                          alpha=tuple(rng.uniform(0.1, 3.0, j + 1)),
                          mu=tuple(rng.uniform(0.1, 3.0, j)))

    vec = VectorParams(f=1.0, c_v=1.0, s_v_bar=1.0, mu_tilde=0.7)
    v = build_coupled_ngm(host(), host(), vec, j, j).V.to_numpy()
    norm = float(np.abs(v).sum(axis=1).max())
    stack = np.repeat(v[None], points, axis=0)
    stack[:, j - 1, j - 1] = norm * 10.0 ** (1.0 + np.arange(points) / 4.0)
    return stack


def minor_by_index_remap(m: Matrix, i: int, j: int) -> Matrix:
    """Independent oracle: rebuild the minor entry by entry."""
    rows = [[m.entry(r, c) for c in range(1, m.cols + 1) if c != j]
            for r in range(1, m.rows + 1) if r != i]
    return Matrix(rows)


# ---------------------------------------------------------------------------
# construction / value semantics

def test_matrix_fields():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert (m.rows, m.cols) == (2, 2)
    assert m.data == (1.0, 2.0, 3.0, 4.0)
    assert m.entry(2, 1) == 3.0


def test_from_flat_round_trip():
    m = Matrix.from_flat(2, 3, [1, 2, 3, 4, 5, 6])
    assert m.to_lists() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    with pytest.raises(ValueError):
        Matrix.from_flat(2, 3, [1, 2, 3])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_entries_rejected(bad):
    with pytest.raises(ValueError):
        Matrix([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^matrix entries must be finite"):
        Matrix([[1.0, -2.0]]) * bad
    # an input, named by its index, as Matrix(...) names it
    with pytest.raises(ConfigError, match=rf"^values\[1\]: must be finite, "
                                          rf"got {bad!r}$"):
        Matrix.from_flat(2, 2, [1.0, bad, 0.0, 1.0])


@pytest.mark.parametrize("bad", [True, "2", b"3"])
def test_entries_must_be_real_numbers(bad):
    # float() takes bool, str and bytes; a matrix entry must be a real
    # number, and so must a scalar factor
    with pytest.raises(ValueError, match=r"^rows\[0\]\[1\]: must be a n"):
        Matrix([[1.0, bad], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"^values\[1\]: must be a n"):
        Matrix.from_flat(2, 2, [1.0, bad, 0.0, 1.0])
    with pytest.raises(ValueError, match=r"^value: must be a number"):
        set_entry(identity(2), 1, 2, bad)
    for product in (lambda: identity(2) * bad, lambda: bad * identity(2)):
        with pytest.raises(ConfigError, match=r"^scalar: must be a number"):
            product()
    assert Matrix([[np.int64(1), np.float32(0.5)]]).data == (1.0, 0.5)
    assert set_entry(identity(2), 1, 2, np.int64(3)).entry(1, 2) == 3.0
    assert (3 * identity(2)).data == (3.0, 0.0, 0.0, 3.0)
    assert (identity(2) * np.float64(0.5)).data == (0.5, 0.0, 0.0, 0.5)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        Matrix([[1.0, 2.0], [3.0]])


def test_to_numpy_returns_a_detached_copy():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    arr = m.to_numpy()
    arr[0, 0] = 99.0
    assert m.entry(1, 1) == 1.0


# ---------------------------------------------------------------------------
# minor

def test_minor_identity_case():
    assert minor(identity(3), 1, 1) == identity(2)


def test_minor_forced_by_definition():
    assert minor(Matrix([[1, 2], [3, 4]]), 1, 2) == Matrix([[3.0]])


def test_minor_worked_example_against_remap_oracle():
    got = minor(WORKED_3X3, 2, 2)
    assert got == Matrix([[2.0, 0.0], [0.0, 4.0]])
    assert got == minor_by_index_remap(WORKED_3X3, 2, 2)


def test_minor_rejects_small_or_out_of_range():
    with pytest.raises(ValueError):
        minor(Matrix([[1.0]]), 1, 1)
    with pytest.raises(ValueError):
        minor(identity(3), 0, 1)
    with pytest.raises(ValueError):
        minor(identity(3), 1, 4)


def test_minor_matches_remap_oracle_on_random_rectangles():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        mat = Matrix(rng.uniform(-1, 1, (n, m)).tolist())
        i, j = int(rng.integers(1, n + 1)), int(rng.integers(1, m + 1))
        assert minor(mat, i, j) == minor_by_index_remap(mat, i, j)


def test_minor_removal_order_commutes_on_4x4():
    # removing diagonal indices i then k equals k then i, with the
    # second index shifted when it comes after the first removal
    rng = np.random.default_rng(11)
    a = Matrix(rng.uniform(-1, 1, (4, 4)).tolist())
    for i in range(1, 5):
        for k in range(1, 5):
            if i == k:
                continue
            lo, hi = min(i, k), max(i, k)
            via_lo = minor(minor(a, lo, lo), hi - 1, hi - 1)
            via_hi = minor(minor(a, hi, hi), lo, lo)
            assert via_lo == via_hi


# ---------------------------------------------------------------------------
# determinants

def test_determinant_trivial_cases():
    assert determinant(identity(4)) == 1.0
    assert determinant(Matrix([[2.0, 0.0], [0.0, 4.0]])) == 8.0


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant(Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))


def test_cofactor_det_base_and_identity():
    assert cofactor_det(Matrix([[7.5]])) == 7.5
    assert cofactor_det(identity(3)) == 1.0


def test_cofactor_det_worked_example():
    # expansion along the first row: 2*(12-1) - 1*(4-0) + 0 = 18
    assert cofactor_det(WORKED_3X3) == pytest.approx(18.0, abs=0.0)
    assert determinant(WORKED_3X3) == pytest.approx(18.0, rel=1e-14)


def test_cofactor_det_size_guard():
    with pytest.raises(ValueError):
        cofactor_det(identity(11))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_determinant_agrees_with_cofactor_oracle(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        a = Matrix(rng.uniform(-1, 1, (n, n)).tolist())
        expected = cofactor_det(a)
        assert determinant(a) == pytest.approx(
            expected, abs=1e-10 * max(1.0, abs(expected)))


def test_determinant_of_singular_matrix_is_zero():
    assert determinant(Matrix([[1.0, 2.0], [2.0, 4.0]])) == 0.0
    assert determinant(Matrix([[0.0, 0.0], [0.0, 0.0]])) == 0.0


# ---------------------------------------------------------------------------
# inverse

def test_inverse_trivial_cases():
    assert inverse(identity(5)) == identity(5)
    assert inverse(Matrix([[2.0, 0.0], [0.0, 4.0]])) == \
        Matrix([[0.5, 0.0], [0.0, 0.25]])


def test_inverse_residual_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a = Matrix((rng.uniform(-1, 1, (n, n)) + 2.0 * np.eye(n)).tolist())
        residual = matmul(a, inverse(a)) - identity(n)
        assert inf_norm(residual) <= 1e-9 * inf_norm(a) * n


def test_inverse_singular_reports_pivot():
    with pytest.raises(SingularMatrixError) as excinfo:
        inverse(Matrix([[1.0, 2.0], [2.0, 4.0]]))
    assert excinfo.value.pivot <= 1e-12 * 6.0
    assert excinfo.value.column == 2


def test_determinant_inverse_reciprocity():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        a = Matrix((rng.uniform(-1, 1, (n, n)) + 2.0 * np.eye(n)).tolist())
        assert determinant(inverse(a)) * determinant(a) == \
            pytest.approx(1.0, rel=1e-8)


def test_inverse_singular_pivot_and_column_match_reference():
    cases = [
        [[1.0, 2.0], [2.0, 4.0]],                  # zero pivot, column 2
        [[0.0, 0.0], [0.0, 0.0]],                  # zero pivot, column 1
        [[0.0, 1.0], [0.0, 1.0]],                  # zero pivot, column 1
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
        [[1.0, 1.0], [1.0, 1.0 + 1e-13]],          # below the floor
        [[1e-300, 0.0], [0.0, 1.0]],               # tiny, not zero
    ]
    for rows in cases:
        a = np.array(rows)
        with pytest.raises(SingularMatrixError) as expected:
            loop_lu(a, SINGULARITY_RTOL * inf_norm(Matrix(rows)))
        with pytest.raises(SingularMatrixError) as got:
            inverse(Matrix(rows))
        assert got.value.pivot == expected.value.pivot
        assert got.value.column == expected.value.column
    with pytest.raises(SingularMatrixError,
                       match="singular to working tolerance: zero pivot "
                             "in column 2"):
        inverse(Matrix([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError) as below:
        inverse(Matrix([[1.0, 1.0], [1.0, 1.0 + 1e-13]]))
    assert str(below.value) == (
        f"matrix is singular to working tolerance: pivot "
        f"{below.value.pivot:.3e} in column 2 is below the singularity "
        f"threshold 2.000e-12")


@pytest.mark.parametrize("n", range(2, 14))
def test_stack_members_equal_single_and_reference_bit_for_bit(n):
    rng = np.random.default_rng(200 + n)
    stack = rng.uniform(-1.0, 1.0, (17, n, n))
    # some members with one dominant diagonal entry, as on a limit ray
    stack[::3, n - 1, n - 1] = 10.0 ** rng.uniform(1.0, 9.0, 6)
    inverses, column, _ = _inverse_stack(stack.copy(), stack_floors(stack))
    assert not column.any()
    for member, inv in zip(stack, inverses):
        reference = loop_inverse(member)
        assert np.array_equal(inverse(Matrix._wrap(member))._a, reference)
        assert np.array_equal(inv, reference)
        lu, _, sign = loop_lu(member, 0.0)
        assert determinant(Matrix._wrap(member)) == float(
            sign * np.prod(np.diag(lu)))


@pytest.mark.parametrize("j", [20, 40])
def test_ladder_schedule_stack_equals_single_bit_for_bit(j):
    stack = ladder_v_schedule(j)
    assert stack.shape[1] == 2 * j + 1
    inverses, column, _ = _inverse_stack(stack.copy(), stack_floors(stack))
    assert not column.any()
    for member, inv in zip(stack, inverses):
        assert np.array_equal(inv, inverse(Matrix._wrap(member))._a)


def test_stack_flags_only_the_singular_member():
    rng = np.random.default_rng(41)
    stack = rng.uniform(-1.0, 1.0, (6, 4, 4)) + 3.0 * np.eye(4)
    stack[3, 2] = 2.0 * stack[3, 0]           # rank-deficient member
    stack[5, :, 0] = 0.0                      # zero first pivot column
    with warnings.catch_warnings():
        warnings.simplefilter("error")        # failed members stay quiet
        inverses, column, pivots = _inverse_stack(stack.copy(),
                                                 stack_floors(stack))
    assert column.tolist() == [0, 0, 0, 4, 0, 1]
    for b in (3, 5):
        with pytest.raises(SingularMatrixError) as single:
            inverse(Matrix._wrap(stack[b]))
        assert pivots[b, column[b] - 1] == single.value.pivot
        assert column[b] == single.value.column
        assert np.isnan(inverses[b]).all()
    for b in (0, 1, 2, 4):
        assert np.array_equal(inverses[b], inverse(Matrix._wrap(stack[b]))._a)


def ray_stack(base: np.ndarray, c: int, ts) -> np.ndarray:
    """Members of a ray: ``base`` with its (c, c) entry (0-based) set to
    each t, stacked as DiagonalRay.at_many stacks them."""
    stack = np.repeat(base[None], len(ts), axis=0)
    stack[:, c, c] = ts
    return stack


@pytest.mark.parametrize("n", range(2, 14))
def test_ray_stack_shared_prefix_equals_reference_bit_for_bit(n):
    # the points of a ray share the elimination steps before column c (the
    # shared prefix); the stacked engine runs every member's steps, and
    # each member must be exactly its own elimination, at every c
    rng = np.random.default_rng(500 + n)
    base = rng.uniform(-1.0, 1.0, (n, n))
    # small t values keep row swaps in the columns after c as well
    ts = np.concatenate((rng.uniform(-2.0, 2.0, 5),
                         10.0 ** rng.uniform(0.0, 9.0, 6)))
    for c in range(n):
        stack = ray_stack(base, c, ts)
        inverses, column, _ = _inverse_stack(stack.copy(),
                                             stack_floors(stack))
        assert not column.any()
        for member, inv in zip(stack, inverses):
            assert np.array_equal(inv, loop_inverse(member))


@pytest.mark.parametrize("j", [20, 40])
def test_ladder_ray_shared_prefix_equals_reference_bit_for_bit(j):
    # the stacked engine on a ladder schedule, whose points share the steps
    # before column j, against each member's one-matrix elimination
    stack = ladder_v_schedule(j)
    inverses, column, _ = _inverse_stack(stack.copy(), stack_floors(stack))
    assert not column.any()
    for member, inv in zip(stack, inverses):
        assert np.array_equal(inv, loop_inverse(member))


def test_zero_pivot_in_shared_prefix_flags_every_member():
    # columns 1 and 2 are exactly dependent (dyadic multipliers), so the
    # pivot of column 2 is exactly zero in the steps every member of the
    # ray at column 4 shares; the stacked engine flags each member as its
    # own elimination does
    base = np.array([[1.0, 2.0, 0.5, 1.0],
                     [2.0, 4.0, 1.0, 0.0],
                     [3.0, 6.0, 0.0, 1.0],
                     [4.0, 8.0, 1.0, 2.0]])
    stack = ray_stack(base, 3, [0.5, 3.0, 1e6])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inverses, column, pivots = _inverse_stack(stack.copy(),
                                                 stack_floors(stack))
    assert column.tolist() == [2, 2, 2]
    assert np.isnan(inverses).all()
    for member, piv in zip(stack, pivots):
        with pytest.raises(SingularMatrixError) as reference:
            loop_lu(member, SINGULARITY_RTOL * inf_norm(Matrix(member)))
        assert reference.value.column == 2
        assert piv[1] == reference.value.pivot == 0.0


def test_member_singular_at_its_own_t_is_the_only_one_flagged():
    # the leading 3x3 block has determinant t - 2: at t = 2 the pivot of
    # column 3 is exactly zero, after the first step; t = 0.5 swaps rows
    base = np.array([[1.0, 1.0, 0.0, 0.0],
                     [1.0, 0.0, 1.0, 0.0],
                     [0.0, 1.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])
    ts = [0.5, 2.0, 3.0, 100.0]
    stack = ray_stack(base, 1, ts)
    inverses, column, pivots = _inverse_stack(stack.copy(),
                                             stack_floors(stack))
    assert column.tolist() == [0, 3, 0, 0]
    with pytest.raises(SingularMatrixError) as single:
        inverse(Matrix._wrap(stack[1]))
    assert pivots[1, 2] == single.value.pivot == 0.0
    assert np.isnan(inverses[1]).all()
    for b in (0, 2, 3):
        assert np.array_equal(inverses[b], loop_inverse(stack[b]))


# ---------------------------------------------------------------------------
# triangular members: the kernel makes every update and substitution row

def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal to the bit, the sign of every zero included."""
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def triangular_stacks(n: int, rng) -> dict:
    """Stacks whose U (lower) or L (upper) is diagonal, with and without
    -0.0 in place of their zeros."""
    lower = np.tril(rng.uniform(-1.0, 1.0, (5, n, n))) + 3.0 * np.eye(n)
    upper = np.triu(rng.uniform(-1.0, 1.0, (5, n, n))) + 3.0 * np.eye(n)
    signed = lower.copy()
    rows, cols = np.triu_indices(n, 1)
    signed[:, rows, cols] = -0.0
    signed[:, n - 1, :n - 1:2] = -0.0        # and some below the diagonal
    return {"lower": lower, "upper": upper, "signed": signed}


def assert_members_equal_reference(stack, inverses, column):
    assert not column.any()
    for member, inv in zip(stack, inverses):
        assert same_bits(inv, loop_inverse(member))


@pytest.mark.parametrize("n", range(1, 10))
def test_triangular_stacks_equal_reference_bit_for_bit(n):
    for stack in triangular_stacks(n, np.random.default_rng(700 + n)).values():
        inverses, column, _ = _inverse_stack(stack.copy(), stack_floors(stack))
        assert_members_equal_reference(stack, inverses, column)
        for member in stack:
            lu = member[None].copy()
            _inverse_stack(lu, stack_floors(lu))
            assert same_bits(lu[0], loop_lu(member, 0.0)[0])


@pytest.mark.parametrize("n", range(2, 10))
def test_triangular_rays_equal_reference_bit_for_bit_at_every_i(n):
    ts = [0.25, -3.0, 7.0, 1e6]
    stacks = triangular_stacks(n, np.random.default_rng(800 + n))
    for base in (stacks["lower"][0], stacks["upper"][0], stacks["signed"][0]):
        for c in range(n):
            stack = ray_stack(base, c, ts)
            inverses, column, _ = _inverse_stack(stack.copy(),
                                                 stack_floors(stack))
            assert_members_equal_reference(stack, inverses, column)


@pytest.mark.parametrize("j", [1, 3, 20, 40])
def test_relapse_v_equals_reference_bit_for_bit(j):
    # V is lower bidiagonal: its updates and back substitution products
    # are zeros, which must leave every entry and its sign as they are
    stack = ladder_v_schedule(j)
    inverses, column, _ = _inverse_stack(stack.copy(), stack_floors(stack))
    assert_members_equal_reference(stack, inverses, column)
    v = stack[0]
    assert same_bits(inverse(Matrix._wrap(v))._a, loop_inverse(v))


def test_triangular_member_among_dense_ones_equals_reference():
    # one triangular member among dense ones: every member is its own
    # elimination, whatever the other members hold
    rng = np.random.default_rng(71)
    for n in (3, 6, 9):
        stacks = triangular_stacks(n, rng)
        dense = rng.uniform(-1.0, 1.0, (4, n, n))
        for member in (stacks["lower"][0], stacks["upper"][0],
                       stacks["signed"][0]):
            stack = np.concatenate((dense[:2], member[None], dense[2:]))
            inverses, column, _ = _inverse_stack(stack.copy(),
                                                 stack_floors(stack))
            assert_members_equal_reference(stack, inverses, column)


def test_failed_members_among_lower_triangular_ones():
    # lower triangular members, whose updates subtract zeros. Member 1 has
    # an exact zero pivot in column 3 (0 / 0 multipliers), member 3 one
    # below the floor in column 2; the rest must not notice.
    rng = np.random.default_rng(72)
    stack = np.tril(rng.uniform(-1.0, 1.0, (5, 5, 5))) + 3.0 * np.eye(5)
    stack[1, 2, 2] = 0.0
    stack[1, 3:, 2] = 0.0
    stack[3, 1:, 1] = [1e-14, 0.0, 0.0, 0.0]
    floors = stack_floors(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        inverses, column, pivots = _inverse_stack(stack.copy(), floors)
    assert column.tolist() == [0, 3, 0, 2, 0]
    for b in (1, 3):
        with pytest.raises(SingularMatrixError) as reference:
            loop_lu(stack[b], floors[b])
        with pytest.raises(SingularMatrixError) as single:
            inverse(Matrix._wrap(stack[b]))
        assert column[b] == reference.value.column == single.value.column
        assert (pivots[b, column[b] - 1] == reference.value.pivot
                == single.value.pivot)
        assert np.isnan(inverses[b]).all()
    for b in (0, 2, 4):
        assert same_bits(inverses[b], loop_inverse(stack[b]))


# ---------------------------------------------------------------------------
# lower-triangular stacks: every member is its own elimination

def assert_stack_equals_reference(stack: np.ndarray) -> np.ndarray:
    """``_inverse_stack`` of ``stack``, each member against its own
    Python-loop elimination: a nonsingular member's inverse to the bit; a
    singular one's failing column and pivot, its inverse NaN. A failed
    member raises no warning. Returns the failing columns."""
    floors = stack_floors(stack)
    with warnings.catch_warnings():
        warnings.simplefilter("error")            # failed members stay quiet
        inverses, column, pivots = _inverse_stack(stack.copy(), floors)
    for member, floor, inv, k, piv in zip(stack, floors, inverses,
                                          column.tolist(), pivots):
        try:
            loop_lu(member, floor)
        except SingularMatrixError as reference:
            assert k == reference.column
            assert piv[k - 1] == reference.pivot
            assert np.isnan(inv).all()
        else:
            assert k == 0
            assert same_bits(inv, loop_inverse(member))
    return column


RAY_TS = [-2.0, 0.5, 3.0, 7.0, 1e3, 1e9]


@pytest.mark.parametrize("j", [1, 2, 10, 40])
def test_relapse_v_and_last_stage_ray_take_the_lower_path(j):
    # a single relapse V and a ray at species 1's last stage are swap-free
    # lower triangles: each member of the general kernel's stack equals
    # its own elimination
    stack = ladder_v_schedule(j)
    for member in (stack[:1], stack):
        assert not assert_stack_equals_reference(member).any()


@pytest.mark.parametrize("j", [3, 10])
def test_first_and_middle_stage_rays_take_the_general_kernel(j):
    # column c of a first or middle stage holds a multiplier below the
    # diagonal, which the members of its ray share
    v = ladder_v_schedule(j)[0]
    for c in (0, j // 2):
        assert not assert_stack_equals_reference(
            ray_stack(v, c, RAY_TS)).any()


@pytest.mark.parametrize("j", [3, 10])
def test_one_point_rays_keep_their_varying_column(j):
    # a one-value schedule inverts a ray of one member. At a first or
    # middle stage its column c holds multipliers below the diagonal,
    # which must be kept: zeroing them, as a last stage allows, gives a
    # wrong inverse
    v = ladder_v_schedule(j)[0]
    rng = np.random.default_rng(j)
    triangle = np.tril(rng.uniform(-1.0, 1.0, (j, j))) + 3.0 * np.eye(j)
    for base in (v, triangle):
        for c in (0, j // 2):
            assert np.count_nonzero(base[c + 1:, c])
            for t in (3.0, 1e3, 1e9):
                assert not assert_stack_equals_reference(
                    ray_stack(base, c, [t])).any()


def test_non_bidiagonal_lower_triangle_substitutes_by_rows():
    rng = np.random.default_rng(91)
    for n in (3, 6, 13, 30):
        base = np.tril(rng.uniform(-1.0, 1.0, (n, n))) + 3.0 * np.eye(n)
        # a sink in the middle: column c zero below the diagonal
        c = n // 2
        sink = base.copy()
        sink[c + 1:, c] = 0.0
        for stack in (base[None], ray_stack(base, n - 1, RAY_TS),
                      ray_stack(sink, c, RAY_TS)):
            assert not assert_stack_equals_reference(stack).any()


def test_lower_triangle_needing_a_swap_takes_the_general_kernel():
    # column 1's subdiagonal outweighs its diagonal: pivoting swaps rows
    v = np.array([[1.0, 0.0, 0.0], [3.0, 2.0, 0.0], [0.0, 1.0, 4.0]])
    assert loop_lu(v, 0.0)[1].tolist() != [0, 1, 2]
    for stack in (v[None], ray_stack(v, 2, RAY_TS)):
        assert not assert_stack_equals_reference(stack).any()


def test_ray_varying_above_the_diagonal_takes_the_general_kernel():
    # members may differ anywhere in column c: one with an entry above
    # the diagonal there is not triangular, although the first member is
    v = ladder_v_schedule(3)[0]
    stack = ray_stack(v, 2, RAY_TS)
    stack[1, 0, 2] = 0.5
    assert_stack_equals_reference(stack)


def test_pivot_tie_keeps_the_diagonal():
    for rows in ([[2.0, 0.0], [-2.0, 3.0]],
                 [[-2.0, 0.0, 0.0], [2.0, 1.0, 0.0], [0.5, -1.0, 5.0]]):
        v = np.array(rows)
        assert loop_lu(v, 0.0)[1].tolist() == list(range(len(v)))
        assert not assert_stack_equals_reference(v[None]).any()


def test_zero_pivot_raises_the_general_kernels_error():
    cases = [
        ([[1.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 2.0]],
         "zero pivot in column 2"),
        ([[0.0, 0.0], [0.0, 1.0]], "zero pivot in column 1"),
        ([[1.0, 0.0], [0.5, 1e-14]],
         "pivot 1.000e-14 in column 2 is below the singularity threshold "
         "1.000e-12"),
    ]
    for rows, detail in cases:
        a = np.array(rows)
        column = assert_stack_equals_reference(a[None])
        with pytest.raises(SingularMatrixError) as reference:
            loop_lu(a, SINGULARITY_RTOL * inf_norm(Matrix(rows)))
        with pytest.raises(SingularMatrixError) as got:
            inverse(Matrix(rows))
        assert str(got.value) == \
            f"matrix is singular to working tolerance: {detail}"
        assert got.value.pivot == reference.value.pivot
        assert got.value.column == reference.value.column == column[0]


def test_member_singular_at_its_own_t_on_a_shared_ray():
    # t = 0 at a last stage: 0 / 0 multipliers in that member's column j,
    # which the members sharing L must not see
    j = 10
    v = ladder_v_schedule(j)[0]
    for ts in ([0.0, 5.0, 1e6], [5.0, 0.0, 1e6]):
        column = assert_stack_equals_reference(ray_stack(v, j - 1, ts))
        assert column.tolist() == [j if t == 0.0 else 0 for t in ts]


def ray_determinant_cases():
    rng = np.random.default_rng(73)
    for n in range(2, 8):
        yield rng.uniform(-1.0, 1.0, (n, n))
        yield np.tril(rng.uniform(-1.0, 1.0, (n, n))) + np.eye(n)
    # scaled permutations: the elimination swaps rows an odd or an even
    # number of times
    for perm in ([1, 0, 2, 3], [1, 2, 3, 0], [3, 2, 1, 0], [2, 0, 1, 3]):
        yield np.eye(4)[perm] * np.array([2.0, 3.0, 5.0, 7.0])[:, None]
    # column 1 is exactly zero: every member meets a zero pivot column
    zero_column = rng.uniform(-1.0, 1.0, (4, 4))
    zero_column[:, 0] = 0.0
    yield zero_column


def test_ray_determinants_equal_one_matrix_determinants():
    ts = (-10.0, 0.0, 7.0, 1.0e3, 1.0, 0.0, 2.0)
    for base in ray_determinant_cases():
        m = Matrix._wrap(base)
        for i in range(1, m.rows + 1):
            stack = DiagonalRay(m, i).at_many(ts)
            got = _determinant_stack(stack.copy())
            expected = [determinant(DiagonalRay(m, i).at(t)) for t in ts]
            assert [float(g).hex() for g in got] == \
                [float(e).hex() for e in expected]
            for member, det in zip(stack, got):
                try:
                    lu, _, sign = loop_lu(member, 0.0)
                except SingularMatrixError:
                    assert det == 0.0
                else:
                    assert det == float(sign * np.prod(np.diag(lu)))


def test_ray_determinant_is_zero_where_the_member_is_singular():
    # the leading 3x3 block has determinant t - 2 (see the inverse test
    # above): only the member at t = 2 meets a zero pivot column
    base = np.array([[1.0, 1.0, 0.0, 0.0],
                     [1.0, 0.0, 1.0, 0.0],
                     [0.0, 1.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])
    got = _determinant_stack(ray_stack(base, 1, [0.5, 2.0, 3.0]))
    assert got == [-1.5, 0.0, 1.0]


def _parity(perm: list[int]) -> int:
    inversions = sum(1 for x in range(len(perm))
                     for y in range(x + 1, len(perm)) if perm[x] > perm[y])
    return inversions % 2


@pytest.mark.parametrize("perm", [
    [0, 1, 2, 3], [1, 0, 2, 3], [1, 2, 0, 3], [3, 2, 1, 0],
    [1, 2, 3, 0], [2, 3, 0, 1], [1, 0, 3, 2], [0, 3, 1, 2],
])
def test_determinant_sign_follows_swap_parity(perm):
    # permutation matrices scaled by a positive diagonal: det has the
    # sign of the permutation, so odd and even swap counts both show
    scale = np.array([2.0, 3.0, 5.0, 7.0])
    a = np.eye(4)[perm] * scale[:, None]
    expected = (-1.0) ** _parity(perm) * float(np.prod(scale))
    assert determinant(Matrix._wrap(a)) == expected


# ---------------------------------------------------------------------------
# the unit lower bidiagonal L^-1 and the masks it is formed with

@functools.cache
def bidiagonal_case(n: int) -> tuple[list[float], bytes]:
    """Multipliers for an n x n unit lower bidiagonal L, as partial
    pivoting leaves them (at most 1 in magnitude; some +-0, +-1 or
    subnormal), and the bytes of L^-1 by forward substitution, written as
    a Python loop column by column: x_r = e_r - l_r x_(r-1)."""
    rng = np.random.default_rng(n)
    multipliers = rng.uniform(-1.0, 1.0, n - 1)
    special = rng.random(n - 1) < 0.3
    multipliers[special] = rng.choice([0.0, -0.0, 1.0, -1.0, 5e-324, -1e-310],
                                      int(special.sum()))
    multipliers = multipliers.tolist()
    inverse = np.empty((n, n))
    for k in range(n):
        x = [0.0] * n
        x[k] = 1.0
        for r in range(1, n):
            x[r] = x[r] - multipliers[r - 1] * x[r - 1]
        inverse[:, k] = x
    return multipliers, inverse.tobytes()


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_bidiagonal_inverse_is_independent_of_call_order(monkeypatch, order):
    # the masks start empty and are sliced from the largest order met so
    # far, whichever order the sizes come in
    monkeypatch.setattr(densela, "_below_pair", None)
    sizes = list(range(2, 91))
    if order == "descending":
        sizes.reverse()
    elif order == "shuffled":
        np.random.default_rng(91).shuffle(sizes)
    for n in sizes:
        multipliers, expected = bidiagonal_case(n)
        assert _bidiagonal_inverse(multipliers).tobytes() == expected
        # into a buffer that holds other values
        buffer = np.full((2, n, n), np.nan)
        out = buffer[1]
        assert _bidiagonal_inverse(multipliers, out=out) is out
        assert out.tobytes() == expected
        assert np.isnan(buffer[0]).all()
        mask, lower = _below(n)
        assert not (mask.flags.writeable or lower.flags.writeable)
        assert mask.tobytes() == np.tri(n, k=-1, dtype=bool).tobytes()
        assert lower.tobytes() == np.tri(n).tobytes()


def test_bidiagonal_inverse_last_row_is_the_substitution_row():
    # the last row alone, n = 1..90, equals the forward substitution's
    # byte for byte: signed zeros, +-1 and subnormal multipliers included
    for n in range(1, 91):
        multipliers, expected = bidiagonal_case(n)
        row = _bidiagonal_inverse_last_row(multipliers)
        assert row.tobytes() == expected[-8 * n:]
        assert row.tobytes() == _bidiagonal_inverse(multipliers)[-1].tobytes()


def test_earlier_masks_and_pairs_survive_a_larger_order(monkeypatch):
    monkeypatch.setattr(densela, "_below_pair", None)
    mask, lower = _below(3)
    rng = np.random.default_rng(81)

    def host(j):
        return HostParams(1.0, 1.0, tuple(rng.uniform(0.1, 3.0, j + 1)),
                          tuple(rng.uniform(0.1, 3.0, j)))

    vec = VectorParams(1.0, 1.0, 1.0, 0.7)
    small = build_coupled_ngm(host(1), host(1), vec, 1, 1)
    before = [a.tobytes() for a in (mask, lower, small.F._a, small.V._a,
                                    small.V_inv._a)]
    build_coupled_ngm(host(40), host(40), vec, 40, 40)
    assert densela._below_pair[0].shape == (81, 81)
    assert [a.tobytes() for a in (mask, lower, small.F._a, small.V._a,
                                  small.V_inv._a)] == before
    with pytest.raises(ValueError, match="read-only"):
        mask[2, 0] = False


# ---------------------------------------------------------------------------
# plumbing operations

def test_matmul_identity_and_mismatch():
    b = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert matmul(identity(2), b) == b
    assert (identity(2) @ b) == b
    with pytest.raises(ValueError):
        matmul(b, Matrix([[1.0, 2.0, 3.0]]))


def test_inf_norm_values():
    assert inf_norm(identity(3)) == 1.0
    assert inf_norm(Matrix([[1.0, -2.0], [3.0, 4.0]])) == 7.0


def test_set_entry_basic():
    z = Matrix([[0.0, 0.0], [0.0, 0.0]])
    assert set_entry(z, 1, 1, 7.0) == Matrix([[7.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        set_entry(z, 3, 1, 1.0)
    with pytest.raises(ValueError):
        set_entry(z, 1, 1, float("nan"))


@given(
    value=st.floats(min_value=-1e6, max_value=1e6,
                    allow_nan=False, allow_infinity=False),
    i=st.integers(min_value=1, max_value=3),
    j=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=50)
def test_set_entry_round_trip_restores_exactly(value, i, j):
    rng = np.random.default_rng(3)
    a = Matrix(rng.uniform(-1, 1, (3, 3)).tolist())
    old = a.entry(i, j)
    mutated = set_entry(a, i, j, value)
    assert mutated.entry(i, j) == value
    assert set_entry(mutated, i, j, old) == a
