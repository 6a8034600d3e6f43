import math

import numpy as np
import pytest

from ngmlimit.densela import (Matrix, identity, inf_norm, inverse, matmul,
                              minor, determinant)
from ngmlimit.errors import ConfigError, ConvergenceError, SingularMatrixError
from ngmlimit.minorlimit import (ConvergenceReport, DiagonalRay,
                                 assemble_limit_inverse, default_schedule,
                                 det_affine_coeffs, exact_minor_inverse,
                                 limit_minor_inverse, richardson,
                                 row_col_decay, spectral_limit,
                                 _invert_schedule, _row_col_maxima,
                                 _summarize)
from ngmlimit.eigen import spectral_radius
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


def relapse_ray_case(j: int):
    """F and the V ray of a coupled (j, j) relapse pair, species 1's
    last stage varying, as the removal experiment drives it."""
    rng = np.random.default_rng(j)

    def host():
        return HostParams(c=float(rng.uniform(0.1, 3.0)), s_bar=1.0,
                          alpha=tuple(rng.uniform(0.1, 3.0, j + 1)),
                          mu=tuple(rng.uniform(0.1, 3.0, j)))

    vec = VectorParams(f=1.5, c_v=1.0, s_v_bar=1.0, mu_tilde=0.7)
    pair = build_coupled_ngm(host(), host(), vec, j, j)
    return pair.F, DiagonalRay(pair.V, j)


def random_ray_case(n: int):
    """A dense F with entries of both signs, so F A(t)^-1 has complex
    conjugate pairs and the pairing check has work to do."""
    rng = np.random.default_rng(n)
    ray, _ = well_conditioned_ray(rng, n, n // 2)
    return Matrix._wrap(rng.uniform(-1.0, 1.0, (n, n))), ray


@pytest.mark.parametrize("f, ray", [relapse_ray_case(3),
                                    relapse_ray_case(10),
                                    random_ray_case(6),
                                    random_ray_case(9)])
def test_stacked_radii_equal_one_matrix_spectral_radii(f, ray):
    schedule = tuple(inf_norm(ray.base) * 10.0 ** (q / 4.0)
                     for q in range(29))
    _, report = spectral_limit(f, ray, schedule, target=0.0)
    expected = tuple(spectral_radius(matmul(f, inverse(ray.at(t))))
                     for t in schedule)
    assert report.errors == expected


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
