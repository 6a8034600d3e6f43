import math

import numpy as np
import pytest

from ngmlimit import minorlimit
from ngmlimit.densela import (SINGULARITY_RTOL, Matrix, identity, inf_norm,
                              inverse, matmul, minor, determinant,
                              set_entry)
from ngmlimit.errors import ConfigError, ConvergenceError, SingularMatrixError
from ngmlimit.minorlimit import (_EPS, ConvergenceReport, DiagonalRay,
                                 assemble_limit_inverse, default_schedule,
                                 det_affine_coeffs, exact_minor_inverse,
                                 limit_minor_inverse, richardson,
                                 row_col_decay, spectral_limit,
                                 _fit_rate, _invert_schedule,
                                 _last_stage_schedule, _row_col_maxima,
                                 _summarize)
from ngmlimit.eigen import spectral_radius
from ngmlimit.ngm import r0_removal_limit
from ngmlimit.relapse import HostParams, VectorParams, build_coupled_ngm

WORKED_3X3 = Matrix([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
DECADES_2_8 = tuple(10.0 ** k for k in range(2, 9))


def sup_gap(a: Matrix, b: Matrix) -> float:
    return float(np.abs(a.to_numpy() - b.to_numpy()).max())


def well_conditioned_ray(rng, n, i):
    """Random ray whose minor stays comfortably invertible."""
    while True:
        m = Matrix(rng.uniform(-1, 1, (n, n)).tolist())
        try:
            exact = exact_minor_inverse(DiagonalRay(m, i))
        except SingularMatrixError:
            continue
        if inf_norm(exact) <= 8.0 * inf_norm(m):
            return DiagonalRay(m, i), exact


# ---------------------------------------------------------------------------
# DiagonalRay / ConvergenceReport contracts

def test_ray_validation():
    with pytest.raises(ValueError):
        DiagonalRay(Matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), 1)
    with pytest.raises(ValueError):
        DiagonalRay(Matrix([[1.0]]), 1)
    with pytest.raises(ValueError):
        DiagonalRay(identity(3), 4)
    for bad in (1.5, True, "2"):
        with pytest.raises(ConfigError) as info:
            DiagonalRay(identity(3), bad)
        assert info.value.field == "i"


def test_ray_at_replaces_single_entry():
    ray = DiagonalRay(WORKED_3X3, 2)
    moved = ray.at(99.0)
    assert moved.entry(2, 2) == 99.0
    assert moved.entry(1, 1) == 2.0
    assert ray.base.entry(2, 2) == 3.0  # base untouched


def test_ray_at_many_stacks_the_members():
    ray = DiagonalRay(WORKED_3X3, 2)
    ts = (1.0, 10.0, 1e5)
    stack = ray.at_many(ts)
    assert stack.shape == (3, 3, 3)
    for member, t in zip(stack, ts):
        assert np.array_equal(member, ray.at(t).to_numpy())
    stack[0, 0, 0] = 99.0                     # the caller owns the stack
    assert ray.base == WORKED_3X3
    with pytest.raises(ValueError, match="finite"):
        ray.at_many((1.0, float("inf")))


def test_ray_values_must_be_real_numbers():
    ray = DiagonalRay(Matrix([[2.0, 1.0], [1.0, 3.0]]), 1)
    for bad in (True, "2"):
        with pytest.raises(ConfigError) as info:
            ray.at_many((1.0, bad))
        assert info.value.field == "ts[1]"
        with pytest.raises(ConfigError) as info:
            row_col_decay(ray, bad)
        assert info.value.field == "t"
        with pytest.raises(ConfigError):
            ray.at(bad)
    with pytest.raises(ValueError, match="finite"):
        row_col_decay(ray, float("inf"))
    assert row_col_decay(ray, 2) == row_col_decay(ray, 2.0)


def test_report_validation():
    with pytest.raises(ValueError):
        ConvergenceReport((), (), (), None, ())
    with pytest.raises(ValueError):
        ConvergenceReport((1.0, 1.0), (0.0, 0.0), (0.0,), None,
                          (False, False))
    with pytest.raises(ValueError):
        ConvergenceReport((-1.0, 2.0), (0.0, 0.0), (0.0,), None,
                          (False, False))
    with pytest.raises(ValueError):
        ConvergenceReport((1.0, 2.0), (0.0, -0.5), (0.0,), None,
                          (False, False))


def test_default_schedule_decades():
    sched = default_schedule(identity(3))
    assert sched == tuple(10.0 ** k for k in range(1, 9))
    assert default_schedule(2.0 * identity(2), 1, 3) == (20.0, 200.0, 2000.0)


@pytest.mark.parametrize("first, last, field", [
    (1, "8", "last_decade"),
    (True, 2, "first_decade"),
    (1.0, 3, "first_decade"),
    (3, 2, "last_decade"),          # empty range
    (1, 400, "last_decade"),        # 10**400 overflows a float
])
def test_default_schedule_rejects_bad_decades(first, last, field):
    with pytest.raises(ConfigError) as exc:
        default_schedule(identity(2), first, last)
    assert exc.value.field == field
    assert default_schedule(identity(2), np.int64(1), np.int64(2)) == \
        (10.0, 100.0)


def loop_summary_errors(ts, values, exact):
    """Reference: each point's error and each adjacent pair's
    extrapolated error, one point at a time."""
    errors = [math.nan if v is None else float(np.max(np.abs(v - exact)))
              for v in values]
    extrapolated = []
    for k in range(1, len(ts)):
        if values[k - 1] is None or values[k] is None:
            extrapolated.append(math.nan)
            continue
        ext = ((ts[k] * values[k] - ts[k - 1] * values[k - 1])
               / (ts[k] - ts[k - 1]))
        extrapolated.append(float(np.max(np.abs(ext - exact))))
    return errors, extrapolated


def test_summary_errors_equal_the_per_point_loop():
    rng = np.random.default_rng(29)
    ts = tuple(10.0 ** (1.0 + np.arange(12) / 4.0))
    exact_matrix = rng.uniform(-1.0, 1.0, (4, 4))
    cases = [
        ([1.0 + 1.0 / t + float(rng.normal()) * 1e-15 for t in ts], 0.75),
        ([exact_matrix + rng.uniform(-1.0, 1.0, (4, 4)) / t for t in ts],
         exact_matrix),
    ]
    for values, exact in cases:
        for skipped in ((), (0,), (3, 4), (11,), (1, 5, 6, 10)):
            points = [None if k in skipped else v
                      for k, v in enumerate(values)]
            flags = [v is None for v in points]
            _, report = _summarize(ts, points, flags, exact)
            errors, extrapolated = loop_summary_errors(ts, points, exact)
            assert [e.hex() for e in report.errors] == \
                [e.hex() for e in errors]
            assert [e.hex() for e in report.extrapolated_errors] == \
                [e.hex() for e in extrapolated]
            assert all(type(e) is float for e in
                       report.errors + report.extrapolated_errors)
    _, single = _summarize((5.0,), [0.5], [False], 0.25)
    assert single.errors == (0.25,) and single.extrapolated_errors == ()


# ---------------------------------------------------------------------------
# affine determinant

def test_affine_coeffs_identity_ray():
    assert det_affine_coeffs(DiagonalRay(identity(2), 1)) == (1.0, 0.0)


def test_affine_coeffs_singular_minor_still_answers():
    # slope 0 flags the singular minor; the pair is still correct
    ray = DiagonalRay(Matrix([[0.0, 1.0], [1.0, 0.0]]), 1)
    assert det_affine_coeffs(ray) == (0.0, -1.0)
    with pytest.raises(SingularMatrixError):
        limit_minor_inverse(ray, (10.0, 100.0))


def test_affine_coeffs_worked_example():
    slope, intercept = det_affine_coeffs(DiagonalRay(WORKED_3X3, 2))
    assert slope == 8.0
    # affine fit from two determinant evaluations
    ray = DiagonalRay(WORKED_3X3, 2)
    d0, d1 = determinant(ray.at(0.0)), determinant(ray.at(1.0))
    assert intercept == d0 == -6.0
    assert slope == pytest.approx(d1 - d0, abs=1e-12)


def test_affine_determinant_property_random():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        base = Matrix(rng.uniform(-1, 1, (n, n)).tolist())
        for i in range(1, n + 1):
            ray = DiagonalRay(base, i)
            slope, intercept = det_affine_coeffs(ray)
            for t in (-10.0, 0.0, 7.0, 1e3):
                predicted = slope * t + intercept
                actual = determinant(ray.at(t))
                assert abs(actual - predicted) <= \
                    1e-8 * (1.0 + abs(slope * t) + abs(intercept))


# ---------------------------------------------------------------------------
# exact minor inverse

def test_exact_minor_inverse_cases():
    assert exact_minor_inverse(DiagonalRay(identity(3), 2)) == identity(2)
    assert exact_minor_inverse(DiagonalRay(WORKED_3X3, 2)) == \
        Matrix([[0.5, 0.0], [0.0, 0.25]])
    with pytest.raises(SingularMatrixError):
        exact_minor_inverse(DiagonalRay(Matrix([[0.0, 1.0], [1.0, 0.0]]), 1))


# ---------------------------------------------------------------------------
# the minor-inverse limit

def test_limit_on_diagonal_base_is_exact_everywhere():
    estimate, report = limit_minor_inverse(DiagonalRay(identity(3), 2),
                                           (10.0, 100.0))
    assert estimate == identity(2)
    assert report.errors == (0.0, 0.0)
    assert report.flagged == (False, False)
    assert report.fitted_rate is None  # zero errors leave nothing to fit


def test_limit_worked_example_converges():
    estimate, report = limit_minor_inverse(DiagonalRay(WORKED_3X3, 2),
                                           DECADES_2_8)
    assert report.errors[-1] <= 1e-6
    assert report.extrapolated_errors[-1] <= 1e-10
    assert sup_gap(estimate, Matrix([[0.5, 0.0], [0.0, 0.25]])) <= 1e-10
    assert report.fitted_rate == pytest.approx(1.0, abs=0.2)


def test_limit_halving_ratio_on_doubling_schedule():
    rng = np.random.default_rng(19)
    ray, _ = well_conditioned_ray(rng, 6, 3)
    t0 = 1e4 * inf_norm(ray.base)
    schedule = tuple(t0 * 2.0 ** k for k in range(6))
    _, report = limit_minor_inverse(ray, schedule)
    for a, b in zip(report.errors, report.errors[1:]):
        assert 0.4 <= b / a <= 0.6


def test_limit_error_envelope_c_over_t():
    # C estimated at the smallest point bounds later points (factor 2)
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        ray, _ = well_conditioned_ray(rng, n, int(rng.integers(1, n + 1)))
        schedule = tuple(inf_norm(ray.base) * 10.0 ** k for k in range(2, 9))
        _, report = limit_minor_inverse(ray, schedule)
        c = report.errors[0] * schedule[0]
        for t, err in zip(schedule[1:], report.errors[1:]):
            assert err <= 2.0 * c / t


def test_limit_skips_singular_points_and_flags_them():
    # A(t) = [[t, 1], [1, 1]] is singular exactly at t = 1
    ray = DiagonalRay(Matrix([[0.0, 1.0], [1.0, 1.0]]), 1)
    estimate, report = limit_minor_inverse(ray, (0.5, 1.0, 2.0, 4.0))
    assert report.flagged == (False, True, False, False)
    assert math.isnan(report.errors[1])
    assert math.isnan(report.extrapolated_errors[0])
    assert math.isnan(report.extrapolated_errors[1])
    assert report.errors[0] == pytest.approx(2.0)   # |t/(t-1) - 1| at 0.5
    assert report.errors[3] == pytest.approx(1.0 / 3.0)
    # estimate extrapolates the two clean tail points t=2, 4 of
    # x(t) = t/(t-1): (4 * (4/3) - 2 * 2) / (4 - 2) = 2/3
    assert estimate.entry(1, 1) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_schedule_points_equal_one_matrix_inversions():
    # the whole schedule is inverted in one stacked call; every point
    # must still be exactly what inverting A(t) alone gives
    rng = np.random.default_rng(37)
    ray, exact = well_conditioned_ray(rng, 5, 2)
    f = Matrix(rng.uniform(0.0, 1.0, (5, 5)).tolist())
    schedule = default_schedule(ray.base, 1, 8)
    _, report = limit_minor_inverse(ray, schedule)
    _, spectral = spectral_limit(f, ray, schedule, target=0.0)
    for k, t in enumerate(schedule):
        inv = inverse(ray.at(t))
        assert report.errors[k] == sup_gap(minor(inv, 2, 2), exact)
        assert spectral.errors[k] == spectral_radius(matmul(f, inv))


def relapse_pair(j: int):
    """A coupled (j, j) relapse pair with seeded random rates."""
    rng = np.random.default_rng(j)

    def host():
        return HostParams(c=float(rng.uniform(0.1, 3.0)), s_bar=1.0,
                          alpha=tuple(rng.uniform(0.1, 3.0, j + 1)),
                          mu=tuple(rng.uniform(0.1, 3.0, j)))

    vec = VectorParams(f=1.5, c_v=1.0, s_v_bar=1.0, mu_tilde=0.7)
    return build_coupled_ngm(host(), host(), vec, j, j)


def relapse_ray_case(j: int):
    """F and the V ray of a coupled (j, j) relapse pair, species 1's
    last stage varying, as the removal experiment drives it."""
    pair = relapse_pair(j)
    return pair.F, DiagonalRay(pair.V, j)


def random_ray_case(n: int):
    """A dense F with entries of both signs, so F A(t)^-1 has complex
    conjugate pairs and the pairing check has work to do."""
    rng = np.random.default_rng(n)
    ray, _ = well_conditioned_ray(rng, n, n // 2)
    return Matrix._wrap(rng.uniform(-1.0, 1.0, (n, n))), ray


def single_row_case():
    """A dense ray and an F with one nonzero row r: F A(t)^-1 is zero
    outside row r, and its radius is |(F A(t)^-1)[r, r]|."""
    f, ray = random_ray_case(6)
    a = np.zeros(f.shape)
    a[2] = f._a[2]
    return Matrix._wrap(a), ray


def radius_condition(k: np.ndarray) -> float:
    """Condition number ``|x| |y| / |y^H x|`` of the eigenvalue of ``k``
    of largest modulus, x and y its right and left eigenvectors."""
    values, right = np.linalg.eig(k)
    top = int(np.argmax(np.abs(values)))
    left_values, left = np.linalg.eig(k.T)
    match = int(np.argmin(np.abs(left_values - values[top])))
    x, y = right[:, top], left[:, match]
    return float(np.linalg.norm(x) * np.linalg.norm(y) / abs(y @ x))


@pytest.mark.parametrize("f, ray", [relapse_ray_case(3),
                                    relapse_ray_case(10),
                                    random_ray_case(6),
                                    random_ray_case(9),
                                    (Matrix._wrap(np.zeros((7, 7))),
                                     relapse_ray_case(3)[1]),
                                    single_row_case(),
                                    relapse_ray_case(40)])
def test_stacked_radii_equal_one_matrix_spectral_radii(f, ray):
    schedule = tuple(inf_norm(ray.base) * 10.0 ** (q / 4.0)
                     for q in range(29))
    _, report = spectral_limit(f, ray, schedule, target=0.0)
    rows = np.flatnonzero(f.to_numpy().any(axis=1))
    if len(rows) == 0:
        assert report.errors == (0.0,) * len(schedule)
        assert all(spectral_radius(matmul(f, inverse(ray.at(t)))) == 0.0
                   for t in schedule)
        return
    f_rows = Matrix._wrap(f.to_numpy()[rows])
    for t, radius in zip(schedule, report.errors):
        x = inverse(ray.at(t))
        product = matmul(f, x)
        full = spectral_radius(product)
        if len(rows) == f.rows:
            # a dense F: R is every row, and the bits must not move
            assert radius == full
        # F A(t)^-1 is zero outside the rows R, so its nonzero
        # eigenvalues are exactly those of its (R, R) block
        block = matmul(f_rows, x).to_numpy()[:, rows]
        assert radius == spectral_radius(Matrix._wrap(block))
        # Against the full product, in rounding: each product is within
        # n eps |F| |X| of exact (entrywise), and LAPACK returns the exact
        # eigenvalues of K + E with |E|_2 <= p(n) eps |K|_2, p(n) taken as
        # n. Both are below n eps || |F| |X| ||_2, and to first order a
        # simple eigenvalue of condition kappa moves by kappa times that.
        k = product.to_numpy()
        scale = f.rows * _EPS * np.linalg.norm(np.abs(f._a) @ np.abs(x._a), 2)
        tol = 2.0 * scale * (radius_condition(k)
                             + radius_condition(k[np.ix_(rows, rows)]))
        assert abs(radius - full) <= tol


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("error")
def test_spectral_limit_overflow_outside_the_block_raises():
    # F's one nonzero row R = {1} meets A(t)^-1 = diag(1/t, 2): the (R, R)
    # block 1/t is finite, but column 2 of F[R] A(t)^-1 is 1.5e308 * 2, which
    # overflows; the finiteness check covers every column, as it did when
    # the whole product was formed. The overflow is the only warning.
    f = Matrix([[1.0, 1.5e308], [0.0, 0.0]])
    ray = DiagonalRay(Matrix([[1.0, 0.0], [0.0, 0.5]]), 1)
    with pytest.raises(ValueError, match="must be finite"):
        spectral_limit(f, ray, DECADES_2_8, target=0.0)


def test_spectral_limit_takes_radii_from_one_call_on_the_blocks(monkeypatch):
    # every point's (R, R) block goes to one stacked eigenvalue call
    shapes = []

    def spy(stack, eigvals=minorlimit._eigvals):
        shapes.append(stack.shape)
        return eigvals(stack)

    f, ray = relapse_ray_case(10)
    monkeypatch.setattr(minorlimit, "_eigvals", spy)
    spectral_limit(f, ray, DECADES_2_8, target=0.0)
    assert shapes == [(len(DECADES_2_8), 3, 3)]


# ---------------------------------------------------------------------------
# a chain's last stage: A(t)^-1 = D(t)^-1 L^-1, never stacked

def quarter_decades(ray: DiagonalRay) -> tuple[float, ...]:
    return tuple(inf_norm(ray.base) * 10.0 ** (q / 4.0) for q in range(29))


def assert_schedule_as_stacked(ray: DiagonalRay, ts, minor_inverse=None):
    """The factored schedule of a last-stage ray against the stack of
    inverses: usable points and flags equal, and every usable point's
    rows, the shared ones and row i, equal to the bit. The kept rows
    come from ``minor_inverse``, by default the factored one. Returns
    the usable points and the flags."""
    factored = _last_stage_schedule(ray, ts, minor_inverse
                                    or exact_minor_inverse(ray))
    assert factored is not None
    kept, last, usable, flags = factored
    inverses, stacked_usable, stacked_flags = _invert_schedule(ray, ts)
    assert (usable, flags) == (stacked_usable, stacked_flags)
    c = ray.i - 1
    keep = np.delete(np.arange(ray.base.rows), c)
    for x in inverses[usable]:
        assert x[keep].tobytes() == kept.tobytes()
    assert inverses[usable, c].tobytes() == last.tobytes()
    return usable, flags


def assert_radii_near_one_matrix(f: Matrix, ray: DiagonalRay, report):
    """Each usable point's radius against the (R, R) block of the
    one-matrix ``F[R] @ inverse(A(t))``. The factored product sums row
    i's term after the others, the one-matrix product in column order:
    each is within n eps |F| |X| of exact, and LAPACK adds a backward
    error below n eps |K|_2 to each eigenvalue step, so the radii differ
    by at most 4 n eps || |F| |X| ||_2 times the radius's condition."""
    rows = np.flatnonzero(f._a.any(axis=1))
    f_rows = Matrix._wrap(f._a[rows])
    for t, radius in zip(report.schedule, report.errors):
        if math.isnan(radius):
            continue
        x = inverse(ray.at(t))
        block = matmul(f_rows, x).to_numpy()[:, rows]
        expected = spectral_radius(Matrix._wrap(block))
        scale = f.rows * _EPS * np.linalg.norm(np.abs(f._a) @ np.abs(x._a), 2)
        assert abs(radius - expected) <= \
            4.0 * scale * radius_condition(block)


@pytest.mark.parametrize("j", [2, 10, 40])
def test_last_stage_schedule_flags_points_as_the_stack_does(j):
    # Below 5e-12 or so t is a pivot under the singularity floor; above
    # 1e13 every other pivot is. In between no point of a relapse ray
    # can pass CONDITION_GUARD: norm / pivot stays below 1e12 at every
    # usable point and each row of L^-1 sums to at most j < 45 (see the
    # lower-triangular ray below for flagged points that are kept).
    f, ray = relapse_ray_case(j)
    ts = (1e-14,) + tuple(10.0 ** k for k in range(-6, 17, 2))
    usable, flags = assert_schedule_as_stacked(ray, ts)
    assert usable == [False] + [True] * 9 + [False] * 3
    assert flags == [not ok for ok in usable]
    _, report = spectral_limit(f, ray, ts, target=0.0)
    assert report.flagged == tuple(flags)
    assert [math.isnan(e) for e in report.errors] == flags
    assert_radii_near_one_matrix(f, ray, report)


def lower_sink_ray(n: int, i: int) -> DiagonalRay:
    """A unit lower-triangular ray with -1 everywhere below the diagonal
    but in column i: L is not bidiagonal, and row r of L^-1 sums to up
    to 2^(r-1), so its condition estimate passes CONDITION_GUARD while
    every pivot clears the singularity floor."""
    a = np.tril(-np.ones((n, n)), -1) + np.eye(n)
    a[i:, i - 1] = 0.0
    return DiagonalRay(Matrix._wrap(a), i)


@pytest.mark.parametrize("i", [8, 4])
def test_last_stage_schedule_substitutes_where_l_is_not_bidiagonal(
        monkeypatch, i):
    # L^-1 is formed by the bidiagonal formula only; any other L goes to
    # the stacked kernel, which inverts every point of the schedule
    ray = lower_sink_ray(8, i)
    # 1e-11 (at i = 8) and 9e11: flagged, kept; 1e-14 and 1e13: below the
    # floor
    ts = (1e-14, 1e-11, 1e-3, 1.0, 1e3, 1e6, 1e9, 9e11, 1e13)
    assert _last_stage_schedule(ray, ts, exact_minor_inverse(ray)) is None
    _, usable, flags = _invert_schedule(ray, ts)
    kept = [ok and flag for ok, flag in zip(usable, flags)]
    assert kept == [False, i == 8] + [False] * 5 + [True, False]
    assert [not ok for ok in usable] == [True] + [False] * 7 + [True]
    f = Matrix._wrap(np.diag([0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 1.0])
                     + np.eye(8, k=-2))
    stacked = []
    inverse_stack = minorlimit._inverse_stack
    monkeypatch.setattr(minorlimit, "_inverse_stack", lambda *args: (
        stacked.append(len(args[0])), inverse_stack(*args))[1])
    _, report = spectral_limit(f, ray, ts, target=0.0)
    assert stacked == [len(ts)]
    assert report.flagged == tuple(flags)
    assert all(math.isfinite(e) == ok
               for e, ok in zip(report.errors, usable))
    assert_radii_near_one_matrix(f, ray, report)


def test_last_stage_ray_needing_a_row_swap_is_stacked():
    # bidiagonal, column 3 zero below the diagonal, but column 1's
    # subdiagonal outweighs its pivot: elimination swaps rows, so L is not
    # the base's columns over their pivots, and the stack is inverted
    ray = DiagonalRay(Matrix([[1.0, 0.0, 0.0], [3.0, 2.0, 0.0],
                              [0.0, 1.0, 4.0]]), 3)
    ts = quarter_decades(ray)
    assert _last_stage_schedule(ray, ts, exact_minor_inverse(ray)) is None
    swap_free = DiagonalRay(set_entry(ray.base, 2, 1, 1.0), 3)
    assert _last_stage_schedule(swap_free, ts,
                                exact_minor_inverse(swap_free)) is not None
    f = Matrix([[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    _, report = spectral_limit(f, ray, ts, target=0.0)
    assert_radii_near_one_matrix(f, ray, report)


@pytest.mark.filterwarnings("error")
def test_last_stage_ray_ignores_its_base_entry():
    # every point replaces a_ii; at 0 it would make row i of L^-1 / d
    # infinite, and F[R]'s zeros in column i would turn that into NaN
    f, ray = relapse_ray_case(10)
    zero = DiagonalRay(set_entry(ray.base, ray.i, ray.i, 0.0), ray.i)
    schedule = quarter_decades(ray)
    _, expected = spectral_limit(f, ray, schedule, target=0.0)
    _, got = spectral_limit(f, zero, schedule, target=0.0)
    assert [e.hex() for e in got.errors] == \
        [e.hex() for e in expected.errors]
    assert got == expected
    assert_schedule_as_stacked(zero, schedule)


def test_last_stage_schedule_keeps_the_signs_of_negative_pivots():
    # column i of the kept rows is +0 over each kept row's pivot: -0 on
    # the rows whose pivot is negative, as the stacked kernel divides
    ray = DiagonalRay(Matrix([[-2.0, 0.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0],
                              [0.0, 0.0, -4.0, 0.0], [0.0, 0.0, 1.0, 5.0]]),
                      2)
    assert_schedule_as_stacked(ray, quarter_decades(ray))
    kept = _last_stage_schedule(ray, quarter_decades(ray),
                                exact_minor_inverse(ray))[0]
    assert np.signbit(kept[:, 1]).tolist() == [True, True, False]


def swap_free_ray(rng) -> DiagonalRay:
    """A lower-bidiagonal ray that pivoting swaps no row of: pivots of
    either sign over 1e-8..1e8 (spread by up to 1e+-8 within the ray),
    each subdiagonal no larger than the pivot above it and some of them
    +-0, column i zero below the diagonal."""
    n = int(rng.integers(2, 12))
    c = int(rng.integers(0, n))
    spread = rng.choice([1.0, 3.0, 8.0])
    pivots = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8.0, 8.0)
              * 10.0 ** rng.uniform(-spread, spread, n))
    below = pivots[:-1] * rng.uniform(-1.0, 1.0, n - 1)
    zero = rng.random(n - 1) < 0.3
    below[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    if c < n - 1:
        below[c] = rng.choice([0.0, -0.0])
    return DiagonalRay(Matrix._wrap(np.diag(pivots) + np.diag(below, -1)),
                       c + 1)


def test_last_stage_kernel_equals_the_stack_on_random_rays():
    # t over 1e-16..1e16 of the ray's largest entry, where points cross
    # both floors, and now and then anywhere in 1e-320..1e300
    rng = np.random.default_rng(2425)
    usable = []
    for _ in range(250):
        ray = swap_free_ray(rng)
        scale = np.abs(ray.base._a).max()
        ts = np.unique(np.concatenate((
            scale * 10.0 ** rng.uniform(-16.0, 16.0, rng.integers(1, 9)),
            10.0 ** rng.uniform(-320.0, 300.0, rng.integers(0, 3)))))
        try:
            minor_inverse = exact_minor_inverse(ray)
        except SingularMatrixError:
            # then no point is usable, and any kept rows will do
            minor_inverse = identity(ray.base.rows - 1)
        with np.errstate(all="ignore"):
            usable += assert_schedule_as_stacked(
                ray, tuple(ts[ts > 0].tolist()), minor_inverse)[0]
    # both outcomes are common
    assert 0.3 < np.mean(usable) < 0.7


# negative pivots; column 1 and column 3 zero below the diagonal
BOUNDARY_BASE = np.array([[-3.0, 0.0, 0.0, 0.0], [0.0, 5.0, 0.0, 0.0],
                          [0.0, -4.0, 0.5, 0.0], [0.0, 0.0, 0.0, -2.0]])
# 1e-12 of the largest row sum of |A(t)| but row i's, at i = 1, 3 and 4
FLOOR = SINGULARITY_RTOL * 5.0


@pytest.mark.parametrize("i, ts, expected", [
    # row i holds only t
    (1, (1.0, 5.0, 1e9), [True] * 3),
    # t exactly at the floor is usable, the float below it is not; at
    # i = 3 row i's sum is 4 + t
    (1, (math.nextafter(FLOOR, 0.0), FLOOR), [False, True]),
    (3, (math.nextafter(FLOOR, 0.0), FLOOR), [False, True]),
    (4, (math.nextafter(FLOOR, 0.0), FLOOR), [False, True]),
    # t raises the floor past a fixed pivot: |-2| against 1e-12 of
    # 4 + t, which passes 2e12 at t = 2e12 - 2, and |0.5| against 1e-12
    # of 1e300
    (3, (1e12, 2e12 - 2.0, 3e12), [True, False, False]),
    (1, (1e11, 1e300), [True, False]),
    (4, (1e-13, 1.0, 1e13), [False, True, False]),
])
def test_last_stage_kernel_at_the_floors(i, ts, expected):
    ray = DiagonalRay(Matrix._wrap(BOUNDARY_BASE), i)
    assert assert_schedule_as_stacked(ray, ts)[0] == expected


@pytest.mark.parametrize("zero_pivot", [False, True])
def test_last_stage_kernel_under_the_smallest_positive_clamp(zero_pivot):
    # every floor, 1e-12 of row sums near 1e-315, underflows to 0 and is
    # raised to 5e-324: the smallest subnormal t clears it, a zero fixed
    # pivot does not. Every inverse overflows here, the minor's too, so
    # only the usable points are compared.
    base = BOUNDARY_BASE * 1e-315
    if zero_pivot:
        base[3, 3] = 0.0
    ts = (5e-324, 1e-320)
    for i in (1, 3):
        ray = DiagonalRay(Matrix._wrap(base), i)
        with np.errstate(all="ignore"):
            usable = _last_stage_schedule(ray, ts, identity(3))[2]
            assert usable == _invert_schedule(ray, ts)[1]
        assert usable == [not zero_pivot] * 2


@pytest.mark.parametrize("j", [2, 10, 40])
def test_dense_f_on_a_last_stage_ray(j):
    # R is every row, row i of F included
    _, ray = relapse_ray_case(j)
    f = Matrix._wrap(np.random.default_rng(j).uniform(0.0, 1.0,
                                                      ray.base.shape))
    _, report = spectral_limit(f, ray, quarter_decades(ray), target=0.0)
    assert_radii_near_one_matrix(f, ray, report)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("f", [np.zeros((2, 2)), np.eye(2)])
def test_last_stage_row_that_overflows_raises(f):
    # A(t) = diag(1e-300, t) at t = 1e-310: both pivots clear the floor
    # of so small a matrix, so the point is usable, and row i of its
    # inverse, 1 / t, overflows; that raises even where F is zero. The
    # other rows are the (i, i) minor's inverse, checked by its caller.
    ray = DiagonalRay(Matrix([[1e-300, 0.0], [0.0, 0.0]]), 2)
    assert _last_stage_schedule(ray, (1e-310,),
                                exact_minor_inverse(ray))[2] == [True]
    with pytest.raises(ValueError, match="must be finite"):
        spectral_limit(Matrix._wrap(f), ray, (1e-310,), target=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_condition_estimate_past_the_float_max_is_quiet(i):
    # At t = 1.7e308 the estimate norm * inverse norm overflows to inf,
    # which trips the guard with no warning, as the stack's does. No point
    # is usable at either t: each raises the floor past a fixed pivot.
    host1 = HostParams(1.1, 0.8, (1.5, 2.0, 0.3), (0.6, 1.2))
    host2 = HostParams(0.7, 1.3, (2.0, 1.1, 0.7), (0.9, 0.4))
    vec = VectorParams(f=1.3, c_v=0.8, s_v_bar=1.5, mu_tilde=0.7)
    pair = build_coupled_ngm(host1, host2, vec, 2, 2)
    ray = DiagonalRay(pair.V, i)
    ts = (1e300, 1.7e308)
    _, usable, flags = _invert_schedule(ray, ts)
    assert (usable, flags) == ([False, False], [True, True])
    factored = _last_stage_schedule(ray, ts, exact_minor_inverse(ray))
    # species 1's and species 2's last stages take the kernel
    assert (factored is None) == (i % 2 == 1)
    if factored is not None:
        assert factored[2:] == (usable, flags)
    with pytest.raises(ConvergenceError):
        r0_removal_limit(pair, i, ts)


def test_last_stage_removal_never_stacks_the_schedule(monkeypatch):
    pair = relapse_pair(10)
    calls = []
    at_many, inverse_stack = DiagonalRay.at_many, minorlimit._inverse_stack
    monkeypatch.setattr(DiagonalRay, "at_many", lambda *args: (
        calls.append("at_many"), at_many(*args))[1])
    monkeypatch.setattr(minorlimit, "_inverse_stack", lambda *args: (
        calls.append("_inverse_stack"), inverse_stack(*args))[1])
    r0_removal_limit(pair, 10, DECADES_2_8)       # species 1's last stage
    assert calls == []
    r0_removal_limit(pair, 9, DECADES_2_8)        # a middle stage
    assert calls == ["at_many", "_inverse_stack"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("target", ["0.5", True, math.nan, math.inf,
                                    -math.inf, -1.0])
def test_removal_limits_reject_bad_targets_by_name(target):
    # a target is a spectral radius: a finite real number, at least 0
    pair = relapse_pair(3)
    f, ray = pair.F, DiagonalRay(pair.V, 3)
    with pytest.raises(ConfigError) as exc:
        spectral_limit(f, ray, DECADES_2_8, target=target)
    assert exc.value.field == "target"
    with pytest.raises(ConfigError) as exc:
        r0_removal_limit(pair, 3, DECADES_2_8, target)
    assert exc.value.field == "target"


def test_removal_limits_take_a_zero_target():
    pair = relapse_pair(3)
    _, report = spectral_limit(pair.F, DiagonalRay(pair.V, 3), DECADES_2_8,
                               target=0)
    assert r0_removal_limit(pair, 3, DECADES_2_8, 0.0) == report
    assert all(e > 0.0 for e in report.errors)


def test_random_ray_cases_have_complex_spectra():
    for n in (6, 9):
        f, ray = random_ray_case(n)
        values = np.linalg.eigvals(matmul(f, inverse(ray.at(1e3)))._a)
        assert np.count_nonzero(values.imag) >= 2


def test_row_col_maxima_equal_one_matrix_decays():
    rng = np.random.default_rng(43)
    for n in range(2, 8):
        for i in range(1, n + 1):
            ray, _ = well_conditioned_ray(rng, n, i)
            norm = inf_norm(ray.base)
            ts = [100.0 * norm] + [norm * 10.0 ** k for k in range(3, 9)]
            expected = []
            for t in ts:
                inv = inverse(ray.at(t))._a
                expected.append((float(np.abs(inv[i - 1, :]).max()),
                                 float(np.abs(inv[:, i - 1]).max())))
            assert _row_col_maxima(ray, ts) == expected


def test_row_col_maxima_raise_the_first_singular_points_error():
    # A(t) = [[t, 1], [1, 1]] is singular exactly at t = 1; 1 + 1e-13
    # leaves a pivot below the floor instead of an exact zero
    ray = DiagonalRay(Matrix([[0.0, 1.0], [1.0, 1.0]]), 1)
    for ts, bad in (((0.5, 1.0, 2.0), 1.0),
                    ((0.5, 1.0 + 1e-13, 1.0 + 2e-13), 1.0 + 1e-13)):
        with pytest.raises(SingularMatrixError) as single:
            inverse(ray.at(bad))
        with pytest.raises(SingularMatrixError) as stacked:
            _row_col_maxima(ray, ts)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.pivot == single.value.pivot
        assert stacked.value.column == single.value.column


def test_spectral_limit_skips_singular_points_and_flags_them():
    ray = DiagonalRay(Matrix([[0.0, 1.0], [1.0, 1.0]]), 1)
    _, report = spectral_limit(identity(2), ray, (0.5, 1.0, 2.0, 4.0))
    assert report.flagged == (False, True, False, False)
    assert math.isnan(report.errors[1])
    for k in (0, 2, 3):
        t = report.schedule[k]
        assert report.errors[k] == abs(
            spectral_radius(inverse(ray.at(t))) - 1.0)


def test_limit_flags_ill_conditioned_points_but_keeps_them():
    # A(t) = [[t, M], [0, 1]] has unit pivots at t = 1, but its condition
    # estimate (t + M)(1 + M)/t exceeds the guard there
    ray = DiagonalRay(Matrix([[0.0, 1e8], [0.0, 1.0]]), 1)
    _, report = limit_minor_inverse(ray, (1.0, 1e9, 1e10))
    assert report.flagged == (True, False, False)
    assert report.errors == (0.0, 0.0, 0.0)


def test_limit_fails_when_every_point_is_singular():
    ray = DiagonalRay(Matrix([[0.0, 1.0], [1.0, 1.0]]), 1)
    with pytest.raises(ConvergenceError):
        limit_minor_inverse(ray, (1.0,))


def test_limit_rejects_bad_schedules():
    ray = DiagonalRay(identity(2), 1)
    with pytest.raises(ValueError):
        limit_minor_inverse(ray, (3.0, 2.0))
    with pytest.raises(ValueError):
        limit_minor_inverse(ray, (-1.0, 2.0))
    with pytest.raises(ValueError):
        limit_minor_inverse(ray, ())
    for bad in ((1.0, math.inf), (1.0, math.nan), (True, 2.0), ("1", 2.0)):
        with pytest.raises(ConfigError, match=r"^schedule\["):
            limit_minor_inverse(ray, bad)


# ---------------------------------------------------------------------------
# row/column decay

def test_row_col_decay_identity_values():
    assert row_col_decay(DiagonalRay(identity(2), 1), 100.0) == (0.01, 0.01)


def test_row_col_decay_decade_ratio():
    ray = DiagonalRay(WORKED_3X3, 2)
    r6, c6 = row_col_decay(ray, 1e6)
    r7, c7 = row_col_decay(ray, 1e7)
    assert r7 / r6 == pytest.approx(0.1, abs=0.01)
    assert c7 / c6 == pytest.approx(0.1, abs=0.01)


def test_row_col_decay_keeps_the_multiplier_below_its_entry():
    # A(10)^-1 = [[0.1, 0], [10, 100]]: column 1 holds 1 / (10 * 0.01)
    ray = DiagonalRay(Matrix([[1.0, 0.0], [-1.0, 0.01]]), 1)
    assert row_col_decay(ray, 10.0) == (0.1, 10.0)


def test_one_point_schedule_inverts_as_a_point_of_a_longer_one():
    # a schedule of one value inverts a stack of one; at every stage of a
    # coupled relapse V it must give the bits that point gets in a longer
    # schedule, first and middle stages (multipliers below t) included
    rng = np.random.default_rng(17)

    def host():
        return HostParams(c=1.0, s_bar=1.0,
                          alpha=tuple(rng.uniform(0.1, 3.0, 4)),
                          mu=tuple(rng.uniform(0.1, 3.0, 3)))

    vec = VectorParams(f=1.0, c_v=1.0, s_v_bar=1.0, mu_tilde=0.7)
    v = build_coupled_ngm(host(), host(), vec, 3, 3).V
    ts = DECADES_2_8
    for i in range(1, v.rows + 1):
        ray = DiagonalRay(v, i)
        together = _invert_schedule(ray, ts)[0]
        for t, expected in zip(ts, together):
            alone = _invert_schedule(ray, (t,))[0][0]
            assert alone.tobytes() == expected.tobytes()
            assert _row_col_maxima(ray, (t,))[0] == row_col_decay(ray, t)


def test_row_col_decay_zero_off_diagonal_is_exact():
    # block structure keeps row/column 3 of the inverse at exactly 1/t
    base = Matrix([[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 7.0]])
    ray = DiagonalRay(base, 3)
    for t in (10.0, 1e4, 1e8):
        assert row_col_decay(ray, t) == (1.0 / t, 1.0 / t)


# ---------------------------------------------------------------------------
# Richardson extrapolation

def test_richardson_converged_case_is_identity():
    m = Matrix([[1.0, 2.0], [3.0, 4.0]])
    assert richardson(m, m) == m


def test_richardson_cancels_first_order_term_exactly():
    # dyadic values make 2*x_2t - x_t bit-exact
    limit = Matrix([[1.0, 2.0], [3.0, 4.0]])
    c = Matrix([[1.0, 1.0], [1.0, 1.0]])
    t = 4.0
    x_t = limit + (1.0 / t) * c
    x_2t = limit + (1.0 / (2.0 * t)) * c
    assert richardson(x_t, x_2t) == limit


def test_richardson_beats_raw_error_tenfold():
    ray = DiagonalRay(WORKED_3X3, 2)
    exact = exact_minor_inverse(ray)
    t = 1e4
    x_t = minor(inverse(ray.at(t)), 2, 2)
    x_2t = minor(inverse(ray.at(2 * t)), 2, 2)
    raw = sup_gap(x_2t, exact)
    extrapolated = sup_gap(richardson(x_t, x_2t), exact)
    assert extrapolated * 10.0 <= raw


def test_richardson_rejects_mismatched_shapes_and_ratio():
    with pytest.raises(ValueError):
        richardson(identity(2), identity(3))
    with pytest.raises(ValueError):
        richardson(identity(2), identity(2), ratio=1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("ratio", ["3", True, math.inf, math.nan, 1.0, 0.5])
def test_richardson_rejects_bad_ratios_by_name(ratio):
    with pytest.raises(ConfigError) as exc:
        richardson(identity(2), identity(2), ratio)
    assert exc.value.field == "ratio"
    assert richardson(identity(2), 2.0 * identity(2), 3) == \
        Matrix([[2.5, 0.0], [0.0, 2.5]])


# ---------------------------------------------------------------------------
# assembled limit matrix

def test_assembled_limit_matches_large_t_inverse():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        ray, _ = well_conditioned_ray(rng, n, int(rng.integers(1, n + 1)))
        assembled = assemble_limit_inverse(ray)
        at_large_t = inverse(ray.at(1e8 * inf_norm(ray.base)))
        assert sup_gap(assembled, at_large_t) <= 1e-6
        i = ray.i
        assert all(assembled.entry(i, k) == 0.0
                   for k in range(1, n + 1))
        assert all(assembled.entry(k, i) == 0.0
                   for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# spectral limit

def test_spectral_limit_zero_f():
    v_ray = DiagonalRay(WORKED_3X3, 2)
    zero = Matrix([[0.0] * 3 for _ in range(3)])
    estimate, report = spectral_limit(zero, v_ray, DECADES_2_8)
    assert estimate == 0.0
    assert all(e == 0.0 for e in report.errors)


def test_spectral_limit_identity_pair():
    estimate, report = spectral_limit(identity(3),
                                      DiagonalRay(identity(3), 2),
                                      DECADES_2_8)
    assert estimate == pytest.approx(1.0, abs=1e-12)
    assert report.errors[-1] <= 1e-12


def test_spectral_limit_random_consistency():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        v_ray, v_minor_inv = well_conditioned_ray(
            rng, n, int(rng.integers(1, n + 1)))
        f = Matrix(rng.uniform(0.0, 1.0, (n, n)).tolist())
        schedule = tuple(inf_norm(v_ray.base) * 10.0 ** k
                         for k in range(2, 9))
        estimate, report = spectral_limit(f, v_ray, schedule)
        from ngmlimit.eigen import spectral_radius
        target = spectral_radius(matmul(minor(f, v_ray.i, v_ray.i),
                                        v_minor_inv))
        assert report.errors[-1] <= 1e-5 * max(1.0, target)
        assert abs(estimate - target) <= 1e-6 * max(1.0, target)


def test_spectral_limit_shape_mismatch():
    with pytest.raises(ValueError):
        spectral_limit(identity(2), DiagonalRay(identity(3), 1))


def test_spectral_limit_explicit_target_changes_errors():
    v_ray = DiagonalRay(WORKED_3X3, 2)
    _, report = spectral_limit(identity(3), v_ray, DECADES_2_8, target=99.0)
    assert report.errors[-1] == pytest.approx(99.0 - 0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# the rate fit: NumPy's least-squares gufunc, called as polyfit calls it

def polyfit_rate(ts, errors, flags):
    """``-np.polyfit(log t, log e, 1)[0]`` over the points the rate fit
    keeps, or None where fewer than three remain."""
    points = [(math.log(t), math.log(e))
              for t, e, flagged in zip(ts, errors, flags)
              if not flagged and math.isfinite(e) and e > 0.0]
    if len(points) < 3:
        return None
    log_t, log_e = zip(*points)
    return float(-np.polyfit(log_t, log_e, 1)[0])


@pytest.mark.parametrize("count", [3, 4, 7, 8, 16, 29])
def test_rate_fit_is_polyfit_bit_for_bit(count):
    # O(1/t) errors with noise, errors on the round-off floor, and
    # flagged, NaN and zero points that the fit skips
    rng = np.random.default_rng(count)
    for case in range(300):
        ts = tuple((10.0 ** rng.uniform(-3.0, 6.0)
                    * 10.0 ** (np.arange(count) / 4.0)).tolist())
        rate = rng.uniform(0.5, 2.0)
        errors = (rng.uniform(0.1, 10.0) / np.array(ts) ** rate
                  * rng.uniform(0.9, 1.1, count))
        if case % 3:
            floor = _EPS * rng.uniform(0.5, 8.0, count)
            errors = np.maximum(errors, floor)
        if case % 4 == 0:
            errors[rng.integers(0, count)] = math.nan
        if case % 5 == 0:
            errors[rng.integers(0, count)] = 0.0
        flags = (rng.random(count) < 0.1).tolist()
        expected = polyfit_rate(ts, errors.tolist(), flags)
        got = _fit_rate(ts, errors.tolist(), flags)
        if expected is None:
            assert got is None
        else:
            assert got.hex() == expected.hex()


def neighbouring_doubles(t: float, count: int) -> list[float]:
    ts = [t]
    for _ in range(count - 1):
        ts.append(float(np.nextafter(ts[-1], math.inf)))
    return ts


@pytest.mark.parametrize("ts", [
    # one logarithm shared by neighbouring doubles near 1e300
    neighbouring_doubles(1e300, 4),
    # distinct logarithms whose scaled Vandermonde matrix has singular
    # values 4.2e-16 apart, under rcond = 4 eps but over eps
    [1e300 * (1.0 + k * 5e-13) for k in range(4)],
], ids=["one-log", "below-rcond"])
def test_rate_fit_warns_on_rank_deficiency_as_polyfit_does(ts):
    errors, flags = [1e-3, 2e-3, 3e-3, 4e-3], [False] * 4
    with pytest.warns(np.exceptions.RankWarning,
                      match="^Polyfit may be poorly conditioned$"):
        got = _fit_rate(ts, errors, flags)
    with pytest.warns(np.exceptions.RankWarning):
        expected = polyfit_rate(ts, errors, flags)
    assert got.hex() == expected.hex()


def test_failed_rate_fit_raises_polyfit_error(monkeypatch):
    import numpy.linalg._umath_linalg as umath_linalg

    def failing(gufunc):
        def call(*args, **kwargs):
            np.sqrt(np.array(-1.0))  # sets the invalid flag, as LAPACK does
            return gufunc(*args, **kwargs)
        return call

    ts, flags = DECADES_2_8, [False] * len(DECADES_2_8)
    errors = [1.0 / t for t in ts]
    monkeypatch.setattr(minorlimit, "_gelsd", failing(minorlimit._gelsd))
    with pytest.raises(np.linalg.LinAlgError) as got:
        _fit_rate(ts, errors, flags)
    monkeypatch.setattr(umath_linalg, "lstsq", failing(umath_linalg.lstsq))
    with pytest.raises(np.linalg.LinAlgError) as expected:
        polyfit_rate(ts, errors, flags)
    assert str(got.value) == str(expected.value) == \
        "SVD did not converge in Linear Least Squares"
