import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngmlimit import eigen
from ngmlimit.densela import Matrix, identity, inf_norm
from ngmlimit.eigen import (Spectrum, _canonical_values, _spectral_radii,
                            eigenvalues, spectral_abscissa, spectral_radius)
from ngmlimit.errors import ConvergenceError
from ngmlimit.ngm import NGMPair, dfe_threshold_check


def companion(coeffs):
    """Companion matrix of the monic polynomial x^n + c[n-1] x^(n-1) + ...

    Its eigenvalues are the polynomial's roots by construction.
    """
    n = len(coeffs)
    m = np.zeros((n, n))
    m[1:, :-1] = np.eye(n - 1)
    m[:, -1] = [-c for c in coeffs]
    return Matrix(m.tolist())


def test_eigenvalues_of_diagonal():
    spec = eigenvalues(Matrix([[1.0, 0, 0], [0, 2.0, 0], [0, 0, 3.0]]))
    assert spec.values == (1.0 + 0.0j, 2.0 + 0.0j, 3.0 + 0.0j)


def test_eigenvalues_of_rotation_block():
    spec = eigenvalues(Matrix([[0.0, 1.0], [-1.0, 0.0]]))
    assert spec.values[0] == pytest.approx(-1.0j, abs=1e-12)
    assert spec.values[1] == pytest.approx(1.0j, abs=1e-12)


def test_eigenvalues_of_companion_matrix():
    # roots placed by construction: (x - 2)(x + 3)(x - 0.5)
    # = x^3 + 0.5 x^2 - 6.5 x + 3
    spec = eigenvalues(companion([3.0, -6.5, 0.5]))
    got = sorted(v.real for v in spec.values)
    assert got == pytest.approx([-3.0, 0.5, 2.0], rel=1e-10)
    assert all(v.imag == 0.0 for v in spec.values)


def test_characteristic_polynomial_residual():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.uniform(-1, 1, (n, n))
        m = Matrix(a.tolist())
        bound = 1e-6 * inf_norm(m) ** n
        for lam in eigenvalues(m).values:
            residual = abs(np.linalg.det(a - lam * np.eye(n)))
            assert residual <= bound


def test_spectrum_conjugate_closure_and_order():
    rng = np.random.default_rng(33)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        spec = eigenvalues(Matrix(rng.uniform(-1, 1, (n, n)).tolist()))
        assert len(spec) == n
        values = list(spec.values)
        assert values == sorted(values, key=lambda v: (v.real, v.imag))
        complexes = [v for v in values if v.imag != 0.0]
        for v in complexes:
            partner = min(complexes, key=lambda w: abs(w - v.conjugate()))
            assert abs(partner - v.conjugate()) <= 1e-8 * max(1.0, abs(v))


def test_spectral_radius_trivial_cases():
    assert spectral_radius(identity(3)) == 1.0
    assert spectral_radius(Matrix([[1.0, 0.0], [0.0, -3.0]])) == 3.0
    assert spectral_radius(Matrix([[0.0]])) == 0.0
    assert spectral_radius(Matrix([[0.0, 0.0], [0.0, 0.0]])) == 0.0


def test_spectral_radius_symmetric_off_diagonal():
    assert spectral_radius(Matrix([[0.0, 2.0], [2.0, 0.0]])) == \
        pytest.approx(2.0, rel=1e-12)


def test_spectral_abscissa_cases():
    assert spectral_abscissa(-1.0 * identity(2)) == -1.0
    assert spectral_abscissa(Matrix([[-1.0, 0.0], [0.0, 0.5]])) == 0.5
    assert spectral_abscissa(Matrix([[-2.0, 1.0], [0.0, -3.0]])) == -2.0


def test_similarity_invariance():
    rng = np.random.default_rng(8)
    a = rng.uniform(-1, 1, (5, 5))
    radius = spectral_radius(Matrix(a.tolist()))
    for _ in range(10):
        p = rng.uniform(-1, 1, (5, 5)) + 3.0 * np.eye(5)
        conjugated = np.linalg.inv(p) @ a @ p
        assert spectral_radius(Matrix(conjugated.tolist())) == \
            pytest.approx(radius, rel=1e-7)


@given(c=st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False))
@settings(max_examples=40)
def test_spectral_radius_scaling(c):
    a = Matrix([[0.3, -0.7, 0.2], [0.5, 0.1, -0.4], [-0.2, 0.6, 0.9]])
    scaled = spectral_radius(c * a)
    assert scaled == pytest.approx(abs(c) * spectral_radius(a), rel=1e-9,
                                   abs=1e-300)


def test_spectral_radius_continuity_probe():
    # |rho(A + E) - rho(A)| shrinks with the perturbation size
    rng = np.random.default_rng(55)
    a = np.diag([3.0, 1.0, -0.5]) + 0.1 * rng.uniform(-1, 1, (3, 3))
    direction = rng.uniform(-1, 1, (3, 3))
    direction /= np.abs(direction).sum(axis=1).max()
    base = spectral_radius(Matrix(a.tolist()))
    gaps = []
    for eps in (1e-3, 1e-4, 1e-5):
        perturbed = Matrix((a + eps * direction).tolist())
        gaps.append(abs(spectral_radius(perturbed) - base))
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] <= 1e-4


def test_eigenvalues_rejects_non_square():
    with pytest.raises(ValueError):
        eigenvalues(Matrix([[1.0, 2.0]]))


def test_lapack_failure_becomes_convergence_error(monkeypatch):
    # the gufunc reports a failed iteration by raising the floating-point
    # invalid flag, as this stand-in does
    def no_convergence(a, signature):
        return np.sqrt(np.full(a.shape[:-1], -1.0)).astype(complex)

    monkeypatch.setattr(eigen, "_geev", no_convergence)
    with pytest.raises(ConvergenceError) as info:
        eigenvalues(identity(2))
    assert str(info.value) == ("eigenvalue iteration did not converge: "
                               "Eigenvalues did not converge")


def raw_bits(raw: np.ndarray):
    """Shape, dtype kind and the hex of every real and imaginary part."""
    return raw.shape, raw.dtype.kind, [
        (float(v.real).hex(), float(v.imag).hex()) for v in raw.ravel()]


def assert_kernel_is_public_eigvals(a: np.ndarray):
    assert raw_bits(eigen._eigvals(a)) == raw_bits(np.linalg.eigvals(a))


def test_kernel_equals_public_eigvals_bit_for_bit():
    # eigen calls NumPy's private geev gufunc without the np.linalg.eigvals
    # wrapper; a NumPy release that changes or moves it fails here
    rng = np.random.default_rng(91)
    for n in range(1, 14):
        a = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        for m in (a, a + a.T, np.zeros((n, n))):
            assert_kernel_is_public_eigvals(m)
        # stacks mixing symmetric (real) and nonsymmetric members, and a
        # stack of symmetric members only
        stack = rng.uniform(-1.0, 1.0, (9, n, n))
        stack[::3] += stack[::3].transpose(0, 2, 1)
        for s in (stack, stack + stack.transpose(0, 2, 1)):
            assert_kernel_is_public_eigvals(s)
    assert eigen._eigvals(stack).dtype.kind == "c"
    assert eigen._eigvals(stack + stack.transpose(0, 2, 1)).dtype.kind == "f"
    for value in (-0.0, 0.0, 2.5, -1e-300):
        assert_kernel_is_public_eigvals(np.array([[value]]))


def test_spectrum_is_a_value_container():
    spec = Spectrum((1.0 + 0.0j, 2.0 + 0.0j))
    assert len(spec) == 2
    assert list(spec) == [1.0 + 0.0j, 2.0 + 0.0j]


# ---------------------------------------------------------------------------
# stacked spectral radii and the real-valued fast path

def per_member_radii(raw: np.ndarray) -> list[float]:
    """Reference: the member-by-member canonicalisation, complex path."""
    return [max(abs(v) for v in _canonical_values(member.astype(complex)))
            for member in raw]


def radii_of_raw(monkeypatch, raw: np.ndarray) -> list[float]:
    """_spectral_radii with the eigenvalue call replaced by ``raw``."""
    monkeypatch.setattr(eigen, "_eigvals", lambda stack: raw)
    return _spectral_radii(np.zeros((len(raw), raw.shape[1],
                                     raw.shape[1])))


def test_stacked_radii_equal_per_member_radii_on_lapack_spectra():
    rng = np.random.default_rng(90)
    for n in (1, 2, 3, 7, 12):
        stack = rng.uniform(-1.0, 1.0, (9, n, n))
        stack[::4] = stack[::4] + stack[::4].transpose(0, 2, 1)  # real
        raw = np.linalg.eigvals(stack)
        assert _spectral_radii(stack) == per_member_radii(raw)
        symmetric = stack + stack.transpose(0, 2, 1)
        assert np.linalg.eigvals(symmetric).dtype.kind == "f"
        assert _spectral_radii(symmetric) == per_member_radii(
            np.linalg.eigvals(symmetric))


def test_stacked_radii_snap_and_pair_like_the_member_path(monkeypatch):
    raw = np.array([
        # an exact pair and a near-real value that snaps
        [3.0 + 4.0j, 3.0 - 4.0j, -5.0 + 1e-9j],
        # an inexact pair within tolerance: the member-wise pairing accepts
        [1.0 + 1.0j, 1.0 + 1e-10 - 1.0j, 0.5 + 0.0j],
        # real values only, with tied -0.0 and +0.0
        [-0.0 + 0.0j, 0.0 + 0.0j, -2.0 + 0.0j],
        # a pair of near-real values, each snapped
        [7.0 + 1e-8j, 7.0 - 1e-8j, 1.0 + 0.0j],
    ])
    paired = []

    def spy(member):
        paired.append(member.tolist())
        return _canonical_values(member)

    monkeypatch.setattr(eigen, "_canonical_values", spy)
    got = radii_of_raw(monkeypatch, raw)
    # only the inexact pair is left to the member-wise pairing
    assert paired == [raw[1].tolist()]
    assert got == per_member_radii(raw)
    assert got[0] == 5.0 and got[2] == 2.0


@pytest.mark.parametrize("bad", [
    [1.0 + 1.0j, 1.0 - 1.1j, 0.0 + 0.0j],     # partner outside tolerance
    [1.0 + 1.0j, 2.0 + 0.0j, 0.0 + 0.0j],     # no partner at all
    [1.0 - 1.0j, 2.0 - 1.0j, 0.0 + 0.0j],     # unmatched lower values
])
def test_stacked_radii_raise_the_member_error(monkeypatch, bad):
    good = [3.0 + 4.0j, 3.0 - 4.0j, 1.0 + 0.0j]
    worse = [5.0 + 5.0j, 0.0 + 0.0j, 0.0 + 0.0j]
    raw = np.array([good, bad, worse])
    with pytest.raises(ConvergenceError) as reference:
        per_member_radii(raw)
    with pytest.raises(ConvergenceError) as got:
        radii_of_raw(monkeypatch, raw)
    # the first failing member's message, not the last one's
    assert str(got.value) == str(reference.value)


def test_real_values_keep_the_order_of_signed_zero_ties():
    raw = np.array([0.0, -0.0, 1.0, -0.0, -3.0, 0.0, -1.0])
    got = _canonical_values(raw)
    reference = _canonical_values(raw.astype(complex))
    assert repr(got) == repr(reference)
    assert [math.copysign(1.0, v.real) for v in got if v == 0.0] == \
        [1.0, -1.0, -1.0, 1.0]
    assert all(math.copysign(1.0, v.imag) == 1.0 for v in got)


def test_eigenvalues_of_real_spectra_equal_the_complex_path():
    rng = np.random.default_rng(91)
    for n in (1, 2, 5, 9):
        a = rng.uniform(-1.0, 1.0, (n, n))
        a = a + a.T
        raw = np.linalg.eigvals(a)
        assert raw.dtype.kind == "f"
        assert repr(eigenvalues(Matrix._wrap(a)).values) == \
            repr(_canonical_values(raw.astype(complex)))


# ---------------------------------------------------------------------------
# radius and abscissa without the Spectrum

def spectrum_maxima(a: Matrix) -> tuple[str, str]:
    """The radius and abscissa as maxima over the ``Spectrum``, in hex."""
    values = eigenvalues(a).values
    return (max(abs(v) for v in values).hex(),
            max(v.real for v in values).hex())


def test_radius_and_abscissa_equal_the_spectrum_maxima_bit_for_bit():
    rng = np.random.default_rng(92)
    near_real = 1e-10  # inside PAIRING_TOL: LAPACK's pair snaps to real
    matrices = [np.zeros((1, 1)), np.zeros((4, 4)), np.array([[-2.5]]),
                np.array([[1.0, near_real], [-near_real, 1.0]]),
                np.array([[-3.0, near_real], [-near_real, -3.0]])]
    # complex spectra whose top real part is +0.0 or -0.0 (rotation
    # blocks), alone or tied with a real zero of either sign
    for zero in (0.0, -0.0):
        rotation = np.array([[zero, 1.0], [-1.0, zero]])
        matrices.append(rotation)
        for real in (0.0, -0.0, -1.0):
            bordered = np.zeros((3, 3))
            bordered[:2, :2] = rotation
            bordered[2, 2] = real
            matrices += [bordered, bordered[::-1, ::-1].copy()]
    for n in (2, 3, 5, 8, 13):
        for _ in range(20):
            a = rng.uniform(-1.0, 1.0, (n, n))
            matrices += [a, a + a.T]
    kinds = set()
    zero_tops = set()
    for a in matrices:
        raw = np.linalg.eigvals(a)
        kinds.add(raw.dtype.kind)
        m = Matrix._wrap(a)
        assert (spectral_radius(m).hex(), spectral_abscissa(m).hex()) == \
            spectrum_maxima(m)
        if raw.dtype.kind == "c" and raw.real.max() == 0.0:
            zero_tops.add(spectral_abscissa(m).hex())
    assert kinds == {"c", "f"}
    assert zero_tops == {"0x0.0p+0", "-0x0.0p+0"}
    assert spectral_radius(Matrix([[1.0, near_real],
                                   [-near_real, 1.0]])) == 1.0


@pytest.mark.parametrize("raw", [[-0.0, 0.0, -1.0], [0.0, -0.0, -1.0],
                                 [-2.0, -0.0, -0.0, 0.0],
                                 [-1.0, 0.0, 0.0, -0.0]])
def test_abscissa_keeps_the_first_of_tied_signed_zeros(monkeypatch, raw):
    # np.max returns the last of the tie here, max over the Spectrum the
    # first in LAPACK's order
    first_zero = next(v for v in raw if v == 0.0)
    raw = np.array(raw)
    expected = max(v.real for v in _canonical_values(raw))
    assert expected.hex() == first_zero.hex()
    zeros = Matrix._wrap(np.zeros((len(raw), len(raw))))
    monkeypatch.setattr(eigen, "_eigvals", lambda a: raw)
    assert spectral_abscissa(zeros).hex() == expected.hex()
    # the threshold check's stacked call: F - V is the second member, in a
    # real stack and in a complex one, where it has no imaginary part
    pair = NGMPair(zeros, identity(len(raw)), tuple("abcd"[:len(raw)]))
    rotation = np.zeros(len(raw), dtype=complex)
    rotation[:2] = [1.0j, -1.0j]
    for k_values in (np.ones(len(raw)), rotation):
        monkeypatch.setattr(eigen, "_eigvals",
                            lambda a: np.array([k_values, raw]))
        report = dfe_threshold_check(pair)
        assert report.abscissa.hex() == expected.hex()
        assert report.r0 == 1.0


def test_spectra_not_closed_under_conjugation_raise_everywhere(monkeypatch):
    bad = np.array([1.0 + 1.0j, 2.0 + 0.0j])
    # the same values for a matrix and for every member of a stack
    monkeypatch.setattr(eigen, "_geev", lambda a, signature: np.broadcast_to(
        bad, a.shape[:-1]))
    a = Matrix([[1.0, 2.0], [3.0, 4.0]])
    pair = NGMPair(a, identity(2), ("a", "b"))
    messages = set()
    for fn, arg in ((eigenvalues, a), (spectral_radius, a),
                    (spectral_abscissa, a), (_spectral_radii, a._a[None]),
                    (dfe_threshold_check, pair)):
        with pytest.raises(ConvergenceError) as info:
            fn(arg)
        messages.add(str(info.value))
    assert len(messages) == 1
    # a closed K spectrum: the check raises on F - V's
    monkeypatch.setattr(eigen, "_geev", lambda a, signature: np.array(
        [[2.0 + 0.0j, 1.0 + 0.0j], bad]))
    with pytest.raises(ConvergenceError) as info:
        dfe_threshold_check(pair)
    assert str(info.value) in messages


def test_radius_and_abscissa_reject_non_square_as_eigenvalues_does():
    for fn in (eigenvalues, spectral_radius, spectral_abscissa):
        with pytest.raises(ValueError, match="eigenvalues requires a square"):
            fn(Matrix([[1.0, 2.0]]))

