import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngmlimit.densela import Matrix, identity, inverse, matmul, minor
from ngmlimit.eigen import eigenvalues
from ngmlimit.errors import ConfigError, SingularMatrixError
from ngmlimit.minorlimit import (DiagonalRay, assemble_limit_inverse,
                                 exact_minor_inverse)
from ngmlimit.ngm import (MMatrixWarning, NGMPair, dfe_threshold_check, r0,
                          r0_removal_limit, remove_compartment)
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


def test_threshold_consistency_on_random_mmatrix_pairs():
    rng = np.random.default_rng(77)
    for _ in range(50):
        pair = random_mmatrix_pair(rng, int(rng.integers(2, 7)))
        assert dfe_threshold_check(pair).consistent


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
