import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngmlimit import minorlimit, ngm
from ngmlimit.densela import (Matrix, identity, inf_norm, inverse, matmul,
                              minor)
from ngmlimit.eigen import eigenvalues, spectral_abscissa, spectral_radius
from ngmlimit.errors import ConfigError, NonFiniteError, SingularMatrixError
from ngmlimit.minorlimit import (_EPS, ConvergenceReport, DiagonalRay,
                                 _minor_inverse_by_deletion,
                                 assemble_limit_inverse, exact_minor_inverse,
                                 spectral_limit)
from ngmlimit.ngm import (MMATRIX_TOL, MMatrixWarning, NGMPair,
                          dfe_threshold_check, r0, r0_removal_limit,
                          remove_compartment)
from ngmlimit.relapse import (HostParams, VectorParams, build_coupled_ngm,
                              build_uncoupled_ngm, r0_coupled_closed,
                              r0_uncoupled_closed)
from ngmlimit.verify import random_host, random_mmatrix_pair, random_vector


def scalar_pair(f_val, v_val):
    return NGMPair(Matrix([[f_val]]), Matrix([[v_val]]), ("I",))


def small_mpair():
    f = Matrix([[0.2, 0.5], [0.1, 0.3]])
    v = Matrix([[1.0, -0.2], [-0.4, 2.0]])
    return NGMPair(f, v, ("I1", "I2"))


# ---------------------------------------------------------------------------
# pair validation

def test_pair_validation_errors():
    eye2 = identity(2)
    with pytest.raises(ValueError):
        NGMPair(Matrix([[1.0, 0.0]]), eye2, ("a", "b"))
    with pytest.raises(ValueError):
        NGMPair(eye2, identity(3), ("a", "b"))
    with pytest.raises(ValueError):
        NGMPair(eye2, eye2, ("only-one",))
    with pytest.raises(ValueError):
        NGMPair(Matrix([[-0.1, 0.0], [0.0, 0.0]]), eye2, ("a", "b"))
    with pytest.raises(SingularMatrixError):
        NGMPair(eye2, Matrix([[1.0, 1.0], [1.0, 1.0]]), ("a", "b"))


def test_non_mmatrix_transfer_warns():
    # V with a positive off-diagonal entry gives V^-1 a negative entry
    with pytest.warns(MMatrixWarning):
        NGMPair(identity(2), Matrix([[1.0, 0.5], [0.0, 1.0]]), ("a", "b"))


def test_mmatrix_transfer_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        small_mpair()


def test_pair_keeps_one_inverse_of_v(monkeypatch):
    from ngmlimit import ngm
    calls = []

    def counting_inverse(m):
        calls.append(m)
        return inverse(m)

    monkeypatch.setattr(ngm, "inverse", counting_inverse)
    pair = small_mpair()
    assert pair.V_inv == inverse(pair.V)
    r0(pair)
    dfe_threshold_check(pair)
    assert len(calls) == 1
    assert "V_inv" not in repr(pair)
    with pytest.raises(TypeError):
        NGMPair(pair.F, pair.V, pair.labels, V_inv=pair.V_inv)


def test_pair_equality_ignores_kept_inverse():
    pair = small_mpair()
    other = small_mpair()
    object.__setattr__(other, "V_inv", identity(2))
    assert pair == other


# ---------------------------------------------------------------------------
# r0

def test_r0_zero_new_infections():
    pair = NGMPair(Matrix([[0.0, 0.0], [0.0, 0.0]]), identity(2),
                   ("I1", "I2"))
    assert r0(pair) == 0.0


def test_r0_scalar_ratio():
    assert r0(scalar_pair(0.75, 3.0)) == pytest.approx(0.25, rel=1e-14)


def test_r0_single_stage_matches_closed_form():
    host = HostParams(c=1.0, s_bar=1.0, alpha=(2.0, 1.0), mu=(1.0,))
    vec = VectorParams(f=1.0, c_v=1.0, s_v_bar=1.0, mu_tilde=1.0)
    pair = build_uncoupled_ngm(host, vec, 1)
    assert r0(pair) == pytest.approx(
        r0_uncoupled_closed(host, vec, 1).value, rel=1e-12)


@given(c=st.floats(min_value=1e-3, max_value=1e3,
                   allow_nan=False, allow_infinity=False))
@settings(max_examples=40)
def test_r0_scales_with_new_infection_block(c):
    pair = small_mpair()
    scaled = NGMPair(c * pair.F, pair.V, pair.labels)
    assert r0(scaled) == pytest.approx(c * r0(pair), rel=1e-9)


# ---------------------------------------------------------------------------
# compartment removal

def test_remove_compartment_shrinks_to_scalar():
    pair = small_mpair()
    reduced = remove_compartment(pair, 2)
    assert reduced.dim == 1
    assert reduced.F == Matrix([[0.2]])
    assert reduced.V == Matrix([[1.0]])


def test_remove_compartment_drops_label():
    f = Matrix([[0.0, 0.0, 0.5], [0.0, 0.0, 0.2], [0.3, 0.4, 0.0]])
    v = Matrix([[1.0, 0.0, 0.0], [-0.5, 2.0, 0.0], [0.0, 0.0, 1.5]])
    pair = NGMPair(f, v, ("I1", "I2", "Iv"))
    assert remove_compartment(pair, 2).labels == ("I1", "Iv")


def test_remove_compartment_index_errors():
    pair = small_mpair()
    with pytest.raises(ValueError):
        remove_compartment(pair, 0)
    with pytest.raises(ValueError):
        remove_compartment(pair, 3)
    for bad in (True, 1.0):
        with pytest.raises(ConfigError):
            remove_compartment(pair, bad)
    with pytest.raises(ValueError):
        remove_compartment(remove_compartment(pair, 1), 1)


def test_removal_identity_on_coupled_builder():
    # minors of the (j, j) coupled blocks equal the (j-1, j) blocks built
    # directly from truncated parameters
    rng = np.random.default_rng(3)
    vec = random_vector(rng)
    for j in (2, 3, 4):
        host1, host2 = random_host(rng, j), random_host(rng, j)
        big = build_coupled_ngm(host1, host2, vec, j, j)
        reduced = remove_compartment(big, j)
        direct = build_coupled_ngm(host1.truncated(j - 1), host2, vec,
                                   j - 1, j)
        assert reduced.F == direct.F
        assert reduced.V == direct.V


def test_removed_pair_r0_hits_mixed_closed_form():
    rng = np.random.default_rng(9)
    vec = random_vector(rng)
    j = 3
    host1, host2 = random_host(rng, j), random_host(rng, j)
    pair = remove_compartment(build_coupled_ngm(host1, host2, vec, j, j), j)
    closed = r0_coupled_closed(host1, host2, vec, j - 1, j).value
    assert r0(pair) == pytest.approx(closed, rel=1e-11)


# ---------------------------------------------------------------------------
# threshold check

def test_threshold_stable_case():
    report = dfe_threshold_check(scalar_pair(0.5, 1.0))
    assert report.r0 == pytest.approx(0.5, rel=1e-14)
    assert report.abscissa == pytest.approx(-0.5, rel=1e-14)
    assert report.consistent and not report.critical


def test_threshold_unstable_case():
    report = dfe_threshold_check(scalar_pair(2.0, 1.0))
    assert report.r0 == pytest.approx(2.0, rel=1e-14)
    assert report.abscissa == pytest.approx(1.0, rel=1e-14)
    assert report.consistent and not report.critical


def test_threshold_critical_case():
    report = dfe_threshold_check(scalar_pair(1.0, 1.0))
    assert report.consistent and report.critical


def test_threshold_report_equals_r0_and_abscissa_on_dense_pairs():
    # the kept radius and the call on F - V give what the public
    # functions give, with real and complex spectra either way round
    rng = np.random.default_rng(78)
    kinds = set()
    for n in (1, 2, 3, 5, 8):
        for _ in range(30):
            pair = random_mmatrix_pair(rng, n)
            if rng.random() < 0.5:
                # a general V, for K spectra that are complex too
                v = rng.uniform(-1.0, 1.0, (n, n)) + 2.0 * np.eye(n)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", MMatrixWarning)
                    pair = NGMPair(pair.F, Matrix._wrap(v), pair.labels)
            k = matmul(pair.F, pair.V_inv)
            kinds.add(tuple(np.linalg.eigvals(m._a).dtype.kind
                            for m in (k, pair.F - pair.V)))
            report = dfe_threshold_check(pair)
            assert report.r0.hex() == spectral_radius(k).hex()
            assert report.abscissa.hex() == \
                spectral_abscissa(pair.F - pair.V).hex()
    assert kinds == {("f", "f"), ("f", "c"), ("c", "f"), ("c", "c")}


# ---------------------------------------------------------------------------
# the kept radius

def fresh_pairs():
    rng = np.random.default_rng(79)
    for n in (1, 2, 3, 5, 8):
        for _ in range(10):
            yield random_mmatrix_pair(rng, n)
    for j in (1, 3, 6):
        yield build_uncoupled_ngm(random_host(rng, j), random_vector(rng), j)
        yield build_coupled_ngm(random_host(rng, j), random_host(rng, 2),
                                random_vector(rng), j, 2)


@pytest.mark.parametrize("check_first", [False, True])
def test_kept_radius_is_spectral_radius_in_either_order(check_first):
    for pair in fresh_pairs():
        expected = spectral_radius(matmul(pair.F, pair.V_inv)).hex()
        if check_first:
            first = dfe_threshold_check(pair).r0
            second = r0(pair)
        else:
            first = r0(pair)
            second = dfe_threshold_check(pair).r0
        assert first.hex() == second.hex() == expected


def test_r0_and_check_take_two_eigenvalue_calls(monkeypatch):
    calls = []
    eigvals = ngm._eigvals

    def spy(a):
        calls.append(a.copy())
        return eigvals(a)

    monkeypatch.setattr(ngm, "_eigvals", spy)
    for pair in fresh_pairs():
        calls.clear()
        r0(pair)
        dfe_threshold_check(pair)
        r0(pair)
        assert [a.shape for a in calls] == [(pair.dim, pair.dim)] * 2
        assert np.array_equal(calls[0], matmul(pair.F, pair.V_inv)._a)
        assert np.array_equal(calls[1], (pair.F - pair.V)._a)


def test_overflowing_radius_raises_on_every_call():
    pair = NGMPair(Matrix([[1e308, 1e308], [0.0, 0.0]]),
                   Matrix([[0.5, 0.0], [0.0, 0.5]]), ("a", "b"))
    for fn in (r0, dfe_threshold_check, r0, dfe_threshold_check):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NonFiniteError):
                fn(pair)
        assert [w.category for w in caught] == [RuntimeWarning]


def test_kept_radius_is_outside_equality_and_repr():
    pair, twin = small_mpair(), small_mpair()
    before = repr(pair)
    r0(pair)
    assert pair == twin and twin == pair
    assert repr(pair) == repr(twin) == before


def test_mmatrix_warning_names_the_code_that_built_the_pair():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        NGMPair(identity(2), Matrix([[1.0, 0.5], [0.0, 1.0]]), ("a", "b"))
    assert [w.category for w in caught] == [MMatrixWarning]
    assert caught[0].filename == __file__


def test_threshold_consistency_on_random_mmatrix_pairs():
    rng = np.random.default_rng(77)
    for _ in range(50):
        pair = random_mmatrix_pair(rng, int(rng.integers(2, 7)))
        assert dfe_threshold_check(pair).consistent


def test_overflow_raises_in_the_order_products_are_formed():
    def outcome(fn, pair):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                value = fn(pair)
            except ValueError as exc:
                value = str(exc)
        return value, [w.category for w in caught]

    not_finite = "matrix entries must be finite (no NaN/Inf)"
    # K = F V^-1 overflows: both raise on K, with matmul's one warning
    pair = NGMPair(Matrix([[1e308, 1e308], [0.0, 0.0]]),
                   Matrix([[0.5, 0.0], [0.0, 0.5]]), ("a", "b"))
    for fn in (r0, dfe_threshold_check):
        assert outcome(fn, pair) == (not_finite, [RuntimeWarning])
    # K is finite, but F - V overflows, which only the check forms
    pair = scalar_pair(1e308, -1e308)
    assert outcome(r0, pair) == (0.9999999999999999, [])
    assert outcome(dfe_threshold_check, pair) == (not_finite,
                                                  [RuntimeWarning])
    # both would overflow (a preset V_inv that is not V's inverse): the
    # check raises on K before it forms F - V, so only matmul warns
    pair = preset_pair(Matrix([[1.797e308]]), Matrix([[-1e306]]),
                       Matrix([[2.0]]))
    assert outcome(dfe_threshold_check, pair) == (not_finite,
                                                  [RuntimeWarning])


# ---------------------------------------------------------------------------
# removal limit

def test_removal_limit_diagonal_pair_is_exact_at_large_t():
    f = Matrix([[0.1, 0.0], [0.0, 2.0]])
    v = Matrix([[1.0, 0.0], [0.0, 4.0]])
    pair = NGMPair(f, v, ("a", "b"))
    # removing compartment 1: target rho = 2/4; at t >= 0.2 the varying
    # ratio 0.1/t is already dominated, so every point is exact
    report = r0_removal_limit(pair, 1, schedule=(1.0, 10.0, 100.0))
    assert report.errors == (0.0, 0.0, 0.0)


def test_removal_limit_matches_reduced_r0():
    rng = np.random.default_rng(15)
    pair = random_mmatrix_pair(rng, 5)
    report = r0_removal_limit(pair, 3)
    assert report.errors[-1] <= 1e-6
    assert report.fitted_rate is None or 0.5 <= report.fitted_rate <= 1.5


def test_removal_limit_singular_minor_raises():
    # V = [[0, 1], [1, 0]] is invertible but its (1,1) minor is [0]
    pair = NGMPair(Matrix([[0.5, 0.0], [0.0, 0.5]]),
                   Matrix([[0.0, 1.0], [1.0, 0.0]]), ("a", "b"))
    with pytest.raises(SingularMatrixError):
        r0_removal_limit(pair, 1)


def test_removal_commutes_with_limit():
    rng = np.random.default_rng(25)
    for _ in range(5):
        pair = random_mmatrix_pair(rng, int(rng.integers(3, 7)))
        i = int(rng.integers(1, pair.dim + 1))
        target = r0(remove_compartment(pair, i))
        report = r0_removal_limit(pair, i)
        assert report.errors[-1] <= 1e-6 * max(1.0, target)


def test_spectrum_identity_zero_union():
    # F times the assembled limit of V(t)^-1 has the reduced product's
    # spectrum plus one zero eigenvalue
    rng = np.random.default_rng(35)
    for _ in range(10):
        pair = random_mmatrix_pair(rng, int(rng.integers(2, 7)))
        i = int(rng.integers(1, pair.dim + 1))
        ray = DiagonalRay(pair.V, i)
        full = eigenvalues(matmul(pair.F, assemble_limit_inverse(ray)))
        reduced = eigenvalues(matmul(minor(pair.F, i, i),
                                     exact_minor_inverse(ray)))
        expected = sorted(list(reduced.values) + [0.0 + 0.0j],
                          key=lambda v: (v.real, v.imag))
        got = sorted(full.values, key=lambda v: (v.real, v.imag))
        assert max(abs(a - b) for a, b in zip(got, expected)) <= 1e-6


# ---------------------------------------------------------------------------
# a minor's inverse by deletion

_EPS = float(np.finfo(np.float64).eps)


def _refuse_factoring(monkeypatch):
    def refuse(*args):
        raise AssertionError("factored where the deletion applies")
    monkeypatch.setattr(ngm, "inverse", refuse)
    monkeypatch.setattr(ngm, "exact_minor_inverse", refuse)


@pytest.mark.parametrize("j", [2, 10, 40])
def test_end_stage_downdate_is_the_factored_inverse_bit_for_bit(
        j, monkeypatch):
    # column i of V^-1 is zero off the diagonal at a chain's last stage,
    # row i at its first: the downdate is a plain deletion there
    rng = np.random.default_rng(j)
    pair = build_coupled_ngm(random_host(rng, j), random_host(rng, j),
                             random_vector(rng), j, j)
    for i in (1, j, j + 1, 2 * j):
        factored = inverse(minor(pair.V, i, i))
        _, expected = spectral_limit(pair.F, DiagonalRay(pair.V, i))
        with monkeypatch.context() as m:
            _refuse_factoring(m)
            reduced = remove_compartment(pair, i)
            report = r0_removal_limit(pair, i)
        assert reduced.V_inv._a.tobytes() == factored._a.tobytes()
        assert report == expected


@pytest.mark.parametrize("j", [2, 10, 40])
def test_removal_at_every_stage_is_the_factored_one_bit_for_bit(j):
    # deleted where row or column i of V^-1 is zero off the diagonal (an
    # end stage), factored at every other stage: either way the reduced
    # V^-1 is the factored inverse of the minor, and the limit is
    # spectral_limit's, which factors it
    rng = np.random.default_rng(j)
    pair = build_coupled_ngm(random_host(rng, j), random_host(rng, j),
                             random_vector(rng), j, j)
    for i in range(1, pair.dim + 1):
        factored = inverse(minor(pair.V, i, i))
        assert (remove_compartment(pair, i).V_inv._a.tobytes()
                == factored._a.tobytes())
        _, expected = spectral_limit(pair.F, DiagonalRay(pair.V, i))
        assert report_hex(r0_removal_limit(pair, i)) == report_hex(expected)


@pytest.mark.parametrize("f_rows", ["every", "one"])
@pytest.mark.parametrize("seed", range(4))
def test_removal_on_a_dense_f_is_spectral_limit_bit_for_bit(seed, f_rows):
    # Two chains, stages 1-2 and 3-5, one ending in a small pivot. F has
    # no zero entry in its nonzero rows: every row of F, or one row alone
    # (a vector times a matrix, which BLAS may take by another kernel).
    # At a chain's last stage the removal limit deletes the minor's
    # inverse from V^-1 and spectral_limit factors it; the last-stage
    # schedule borders either by column i, and the two limits must agree.
    rng = np.random.default_rng(seed)
    f = rng.uniform(0.1, 1.0, (5, 5))
    if f_rows == "one":
        f[np.arange(5) != rng.integers(0, 5)] = 0.0
    f = Matrix(f.tolist())
    below = -rng.uniform(0.1, 1.0, 4)
    below[1] = 0.0
    for i in (2, 5):
        pivots = rng.uniform(1.0, 2.0, 5)
        pivots[i - 1] = 1e-6
        v = Matrix((np.diag(pivots) + np.diag(below, -1)).tolist())
        pair = NGMPair(f, v, tuple("abcde"))
        ray = DiagonalRay(pair.V, i)
        minor_inverse = _minor_inverse_by_deletion(ray, pair.V_inv)
        assert minor_inverse is not None
        assert minorlimit._last_stage_schedule(
            ray, (1.0,), minor_inverse) is not None
        _, expected = spectral_limit(pair.F, ray)
        assert not any(expected.flagged)
        assert report_hex(r0_removal_limit(pair, i)) == report_hex(expected)


def test_dense_minor_inverse_is_factored(monkeypatch):
    # an irreducible M-matrix has a positive inverse, so no row or column
    # of V^-1 is zero off the diagonal and every minor is factored
    calls = []

    def counting(ray):
        calls.append(ray)
        return exact_minor_inverse(ray)

    monkeypatch.setattr(ngm, "exact_minor_inverse", counting)
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        pair = random_mmatrix_pair(rng, n)
        assert (pair.V_inv._a > 0.0).all()
        for i in range(1, n + 1):
            ray = DiagonalRay(pair.V, i)
            assert _minor_inverse_by_deletion(ray, pair.V_inv) is None
            factored = inverse(minor(pair.V, i, i))
            assert (remove_compartment(pair, i).V_inv._a.tobytes()
                    == factored._a.tobytes())
            calls.clear()
            r0_removal_limit(pair, i, (1e3, 1e4))
            assert calls == [ray]


@pytest.mark.parametrize("zero", ["column", "row"])
def test_deletion_keeps_the_kept_block_as_it_is(zero):
    # B_mm is returned as it stands, signed zeros included
    b = np.array([[2.0, 0.5, -0.0], [-1.0, 1.0, 3.0], [-0.0, 0.25, 3.0]])
    if zero == "column":
        b[[0, 2], 1] = 0.0, -0.0
    else:
        b[1, [0, 2]] = -0.0, 0.0
    base_inverse = Matrix._wrap(b)
    ray = DiagonalRay(inverse(base_inverse), 2)
    got = _minor_inverse_by_deletion(ray, base_inverse)._a
    assert got.tobytes() == np.delete(np.delete(b, 1, 0), 1, 1).tobytes()
    assert not got.flags.writeable


# factoring raises these
_MINOR_SINGULAR = (r"^the \(i, i\) minor at i=1 is singular "
                   r"\(pivot {pivot} in minor column {column}\)$")
_MATRIX_SINGULAR = r"^matrix is singular to working tolerance: {detail}$"


def test_zero_pivot_downdate_raises_the_factored_errors():
    # V = [[0, 1], [1, 0]] is its own inverse, so B_ii = 0 at i = 1
    pair = NGMPair(Matrix([[0.5, 0.0], [0.0, 0.5]]),
                   Matrix([[0.0, 1.0], [1.0, 0.0]]), ("a", "b"))
    assert _minor_inverse_by_deletion(DiagonalRay(pair.V, 1),
                                      pair.V_inv) is None
    with pytest.raises(SingularMatrixError, match=_MINOR_SINGULAR.format(
            pivot=r"0\.000e\+00", column=1)):
        r0_removal_limit(pair, 1)
    with pytest.raises(SingularMatrixError, match=_MATRIX_SINGULAR.format(
            detail="zero pivot in column 1")):
        remove_compartment(pair, 1)


def test_near_singular_minor_is_caught_by_the_condition_guard(monkeypatch):
    # column 1 of V^-1 = diag(1, M^-1) is zero off the diagonal, but the
    # minor M = [[1, -1], [-1, 1 + 1e-14]] has a pivot below the
    # singularity floor: the condition guard sends it to factoring, which
    # raises. V^-1 is preset, since V, whose pivots include M's, does not
    # factor.
    d = 1e-14
    v = Matrix([[1.0, 0.0, 0.0], [0.0, 1.0, -1.0], [0.0, -1.0, 1.0 + d]])
    v_inv = Matrix([[1.0, 0.0, 0.0], [0.0, (1.0 + d) / d, 1.0 / d],
                    [0.0, 1.0 / d, 1.0 / d]])
    pair = preset_pair(identity(3), v, v_inv)
    assert pair.V_inv is v_inv
    ray = DiagonalRay(pair.V, 1)
    assert _minor_inverse_by_deletion(ray, pair.V_inv) is None
    with pytest.raises(SingularMatrixError, match=_MINOR_SINGULAR.format(
            pivot=r"9\.992e-15", column=2)):
        r0_removal_limit(pair, 1)
    with pytest.raises(SingularMatrixError, match=_MATRIX_SINGULAR.format(
            detail=r"pivot 9\.992e-15 in column 2 is below the singularity "
                   r"threshold 2\.000e-12")):
        remove_compartment(pair, 1)
    monkeypatch.setattr(minorlimit, "_DELETION_CONDITION", math.inf)
    assert _minor_inverse_by_deletion(ray, pair.V_inv) is not None


def test_row_i_takes_no_part_in_the_minor_norm():
    # Row 2 of A sums to 2e11, all of it outside the (2, 2) minor [[1]]:
    # the conditioning guard reads 1 * |M| * |A_[2,2]| = 1, not 1e11, and
    # the minor inverse is deleted, not factored
    a = Matrix([[1.0, 0.0], [1e11, 1e11]])
    deleted = _minor_inverse_by_deletion(DiagonalRay(a, 2), inverse(a))
    assert deleted is not None
    assert deleted.entry(1, 1) == pytest.approx(1.0, abs=4.0 * _EPS)


def test_reduced_pair_warns_where_its_inverse_has_negative_entries():
    v = Matrix([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.warns(MMatrixWarning):
        pair = NGMPair(identity(3), v, ("a", "b", "c"))
    with pytest.warns(MMatrixWarning):
        reduced = remove_compartment(pair, 3)
    assert reduced.V_inv == inverse(reduced.V)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        remove_compartment(pair, 1)  # the minor [[1, 0], [0, 1]]


def test_removal_warning_names_the_callers_line():
    v = Matrix([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.warns(MMatrixWarning):
        pair = NGMPair(identity(3), v, ("a", "b", "c"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = sys._getframe().f_lineno + 1
        remove_compartment(pair, 3)
    assert [w.category for w in caught] == [MMatrixWarning]
    assert (caught[0].filename, caught[0].lineno) == (__file__, line)


def full_downdate(ray: DiagonalRay, base_inverse: Matrix) -> np.ndarray:
    """``B_mm - B_mi B_im / B_ii`` with every term formed."""
    b, c = base_inverse._a, ray.i - 1
    keep = np.delete(np.arange(len(b)), c)
    return b[keep][:, keep] - np.outer(b[keep, c], b[c, keep] / b[c, c])


def test_zero_correction_downdate_equals_the_full_subtraction():
    # at a chain's last stage column i of an M-matrix inverse is +0 off
    # the diagonal and row i is positive: no correction is formed
    rng = np.random.default_rng(16)
    for _ in range(50):
        j = int(rng.integers(1, 12))
        pair = build_coupled_ngm(random_host(rng, j), random_host(rng, j),
                                 random_vector(rng), j, j)
        for i in (j, 2 * j):
            ray = DiagonalRay(pair.V, i)
            got = _minor_inverse_by_deletion(ray, pair.V_inv)
            assert got._a.tobytes() == full_downdate(ray, pair.V_inv).tobytes()


def test_last_stage_limit_after_a_middle_removal_is_the_factored_one():
    # Removing stage 2 of a (5, 5) pair cuts species 1's chain. Its minor
    # is factored, so the reduced V^-1 holds the cut's exact zeros, and a
    # later limit at species 1's new last stage, whose kept rows are that
    # V^-1 less row and column 4, equals spectral_limit's, which factors
    # the minor anew.
    rng = np.random.default_rng(1)
    pair = build_coupled_ngm(random_host(rng, 5), random_host(rng, 5),
                             random_vector(rng), 5, 5)
    reduced = remove_compartment(pair, 2)
    assert reduced.V_inv._a.tobytes() == inverse(reduced.V)._a.tobytes()
    ray = DiagonalRay(reduced.V, 4)
    ts = tuple(inf_norm(ray.base) * 10.0 ** (q / 4.0) for q in range(29))
    for target in (0.0, None):
        report = r0_removal_limit(reduced, 4, ts, target)
        _, factored = spectral_limit(reduced.F, ray, ts, target)
        assert report_hex(report) == report_hex(factored)


def report_hex(report: ConvergenceReport):
    rate = report.fitted_rate
    return ([t.hex() for t in report.schedule],
            [e.hex() for e in report.errors],
            [e.hex() for e in report.extrapolated_errors],
            None if rate is None else rate.hex(), report.flagged)


@pytest.mark.parametrize("j", [10, 25, 40])
@pytest.mark.parametrize("species", [1, 2])
def test_removal_step_at_ladder_sizes_is_the_factored_one_bit_for_bit(
        j, species):
    # a step of the removal ladder at a species' last stage, on the
    # 29-point quarter-decade schedule of the ladder benchmark, with the
    # closed-form target and with none; spectral_limit factors the minor
    rng = np.random.default_rng(j)
    hosts = random_host(rng, j), random_host(rng, j)
    vec = random_vector(rng, f=float(rng.uniform(0.1, 3.0)))
    pair = build_coupled_ngm(*hosts, vec, j, j)
    i = species * j
    schedule = tuple(inf_norm(pair.V) * 10.0 ** (1.0 + q / 4.0)
                     for q in range(29))
    stages = (j - 1, j) if species == 1 else (j, j - 1)
    for target in (r0_coupled_closed(*hosts, vec, *stages).value, None):
        report = r0_removal_limit(pair, i, schedule, target)
        _, factored = spectral_limit(pair.F, DiagonalRay(pair.V, i),
                                     schedule, target)
        assert report_hex(report) == report_hex(factored)
        # the public constructor, which checks every field, builds the
        # same value with the same attributes
        public = ConvergenceReport(report.schedule, report.errors,
                                   report.extrapolated_errors,
                                   report.fitted_rate, report.flagged)
        assert report_hex(public) == report_hex(report)
        assert vars(public) == vars(report)
        assert all(type(e) is float
                   for e in report.errors + report.extrapolated_errors)
    reduced = remove_compartment(pair, i)
    v_minor = minor(pair.V, i, i)
    for got, expected in [(reduced.F, minor(pair.F, i, i)),
                          (reduced.V, v_minor),
                          (reduced.V_inv, inverse(v_minor))]:
        assert got.shape == expected.shape
        assert got._a.tobytes() == expected._a.tobytes()
        assert got._a.flags.c_contiguous and not got._a.flags.writeable
    assert reduced.labels == pair.labels[:i - 1] + pair.labels[i:]


def test_removed_pair_equals_the_checked_one():
    # remove_compartment runs only the M-matrix test of __post_init__; its
    # pair equals the one _with_inverse builds, which runs every check,
    # attribute for attribute and byte for byte
    rng = np.random.default_rng(25)
    for j in range(2, 41):
        pair = build_coupled_ngm(random_host(rng, j), random_host(rng, j),
                                 random_vector(rng), j, j)
        for i in (j, 2 * j):
            got = vars(remove_compartment(pair, i))
            v_inv = _minor_inverse_by_deletion(DiagonalRay(pair.V, i),
                                               pair.V_inv)
            expected = vars(ngm._with_inverse(
                minor(pair.F, i, i), minor(pair.V, i, i),
                pair.labels[:i - 1] + pair.labels[i:], v_inv))
            assert got.keys() == expected.keys() == {"F", "V", "labels",
                                                     "V_inv"}
            assert got["labels"] == expected["labels"]
            assert all(type(label) is str for label in got["labels"])
            for key in ("F", "V", "V_inv"):
                a, b = got[key]._a, expected[key]._a
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert a.flags.c_contiguous and not a.flags.writeable


def test_dense_removal_with_a_negative_deletion_is_refactored(monkeypatch):
    # Column 3 of V^-1 is zero off the diagonal, so deleting row and
    # column 3 is exact, but the kept block holds a negative entry: the
    # minor is factored anew and warns
    v_inv = Matrix([[2.0, -0.5, 0.0], [0.3, 1.5, 0.0], [0.4, 0.6, 1.0]])
    with pytest.warns(MMatrixWarning):
        pair = NGMPair(Matrix([[0.1, 0.2, 0.3]] * 3), inverse(v_inv),
                       ("a", "b", "c"))
    deleted = _minor_inverse_by_deletion(DiagonalRay(pair.V, 3), pair.V_inv)
    assert deleted is not None and (deleted._a < -MMATRIX_TOL).any()
    calls = []

    def counting_inverse(m):
        calls.append(m)
        return inverse(m)

    monkeypatch.setattr(ngm, "inverse", counting_inverse)
    with pytest.warns(MMatrixWarning):
        reduced = remove_compartment(pair, 3)
    assert calls == [reduced.V] == [minor(pair.V, 3, 3)]
    assert reduced.V_inv._a.tobytes() == inverse(reduced.V)._a.tobytes()
    assert reduced.labels == ("a", "b")


def test_pair_still_takes_no_inverse_argument():
    with pytest.raises(TypeError):
        NGMPair(identity(2), identity(2), ("a", "b"), V_inv=identity(2))


def preset_pair(f: Matrix, v: Matrix, v_inv: "Matrix | None") -> NGMPair:
    """A pair built as remove_compartment and the relapse builders build
    theirs: ``V_inv`` set before ``__init__`` runs."""
    labels = tuple(f"C{k}" for k in range(1, f.rows + 1))
    return ngm._with_inverse(f, v, labels, v_inv)


def test_mmatrix_check_warns_once_and_refactors_a_negative_preset(
        monkeypatch):
    calls = []

    def counting_inverse(m):
        calls.append(m)
        return inverse(m)

    def built(build):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pair = build()
        return pair, [w.category for w in caught]

    monkeypatch.setattr(ngm, "inverse", counting_inverse)
    non_m = Matrix([[1.0, 0.5], [0.0, 1.0]])
    m_matrix = Matrix([[1.0, -0.2], [-0.4, 2.0]])
    negative = Matrix([[1.0, -1.0], [0.0, 1.0]])
    # factored, preset with None, or preset with a negative entry and so
    # refactored: the warning comes once
    for build in (lambda: NGMPair(identity(2), non_m, ("a", "b")),
                  lambda: preset_pair(identity(2), non_m, None),
                  lambda: preset_pair(identity(2), non_m, negative)):
        calls.clear()
        pair, caught = built(build)
        assert caught == [MMatrixWarning]
        assert calls == [non_m] and pair.V_inv == inverse(non_m)
    calls.clear()
    pair, caught = built(lambda: preset_pair(identity(2), m_matrix, negative))
    assert caught == []
    assert calls == [m_matrix] and pair.V_inv == inverse(m_matrix)
    # a preset with no negative entry is kept
    calls.clear()
    pair, caught = built(lambda: preset_pair(identity(2), non_m, identity(2)))
    assert caught == [] and calls == [] and pair.V_inv == identity(2)
