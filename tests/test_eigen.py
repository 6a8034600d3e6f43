import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngmlimit import eigen, ngm
from ngmlimit.densela import Matrix, identity, inf_norm
from ngmlimit.eigen import (Spectrum, _canonical_values, _max_modulus,
                            eigenvalues, spectral_abscissa, spectral_radius)
from ngmlimit.errors import ConvergenceError
from ngmlimit.ngm import NGMPair, dfe_threshold_check
from ngmlimit.verify import random_relapse_pair


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


def test_only_eigen_imports_from_numpy_private_modules():
    # a private NumPy name can move in any release; eigen's geev gufunc,
    # guarded by the test above, is the one the package may use
    allowed = {("eigen", "numpy.linalg._umath_linalg", "eigvals")}
    found = set()
    for path in sorted(Path(eigen.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and not node.level:
                imports = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imports = [(alias.name, "") for alias in node.names]
            else:
                continue
            for module, name in imports:
                parts = module.split(".") + [name]
                if parts[0] == "numpy" and any(
                        part.startswith("_") for part in parts):
                    found.add((path.stem, module, name))
    assert found == allowed


def assert_lapack_pairs_are_adjacent(a: np.ndarray):
    """``geev`` lists each complex pair as ``(wr, +wi), (wr, -wi)``."""
    for raw in np.reshape(eigen._geev(a, signature="d->D"), (-1, a.shape[-1])):
        k = 0
        while k < len(raw):
            if raw[k].imag == 0.0:
                k += 1
                continue
            upper, lower = raw[k], raw[k + 1]
            assert upper.real == lower.real
            assert upper.imag > 0.0 and lower.imag == -upper.imag
            k += 2


def test_lapack_returns_each_complex_pair_adjacent_and_exact():
    # the radius and the abscissa read LAPACK's values without pairing
    # conjugates, so the spectrum of a real matrix is closed under
    # conjugation only because geev returns it so; a NumPy or LAPACK
    # release that does not fails here
    rng = np.random.default_rng(93)
    for n in range(1, 13):
        for _ in range(20):
            a = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
            assert_lapack_pairs_are_adjacent(a)
            assert_lapack_pairs_are_adjacent(np.round(a * 2.0) / 2.0)
        stack = rng.uniform(-1.0, 1.0, (9, n, n))
        assert_lapack_pairs_are_adjacent(stack)
    for _ in range(300):
        pair = random_relapse_pair(rng)[0]
        k, jacobian = (pair.F @ pair.V_inv)._a, (pair.F - pair.V)._a
        assert_lapack_pairs_are_adjacent(np.array((k, jacobian)))


def test_spectrum_is_a_value_container():
    spec = Spectrum((1.0 + 0.0j, 2.0 + 0.0j))
    assert len(spec) == 2
    assert list(spec) == [1.0 + 0.0j, 2.0 + 0.0j]


# ---------------------------------------------------------------------------
# stacked spectral radii and the real-valued fast path

def per_member_radii(raw: np.ndarray) -> list[float]:
    """Reference: the maximum of ``abs`` over each member's ``Spectrum``
    values."""
    return [max(abs(v) for v in _canonical_values(member))
            for member in raw]


def test_stacked_radii_equal_per_member_radii_on_lapack_spectra():
    # each member as a lone matrix: a real member of a complex stack comes
    # back real alone
    rng = np.random.default_rng(90)
    for n in (1, 2, 3, 7, 12):
        stack = rng.uniform(-1.0, 1.0, (9, n, n))
        stack[::4] = stack[::4] + stack[::4].transpose(0, 2, 1)  # real
        symmetric = stack + stack.transpose(0, 2, 1)
        assert eigen._eigvals(symmetric).dtype.kind == "f"
        for s in (stack, symmetric):
            assert _max_modulus(eigen._eigvals(s)).tolist() == [
                max(abs(v) for v in eigenvalues(Matrix._wrap(m)))
                for m in s]


def test_stacked_radii_snap_and_pair_like_the_member_path():
    # moduli of unsnapped values equal those the Spectrum snaps, down to
    # a value at the snapping bound just below a power of two
    below_two = 2.0 - 2.0 ** -51
    raw = np.array([
        # an exact pair and a near-real value that snaps
        [3.0 + 4.0j, 3.0 - 4.0j, -5.0 + 1e-9j],
        # values at the snapping bound
        [below_two + 1e-8 * below_two * 1j, 0.5 + 0.0j,
         -below_two - 0.99e-8 * below_two * 1j],
        # real values only, with tied -0.0 and +0.0
        [-0.0 + 0.0j, 0.0 + 0.0j, -2.0 + 0.0j],
        # a pair of near-real values, each snapped
        [7.0 + 1e-8j, 7.0 - 1e-8j, 1.0 + 0.0j],
    ])
    snapped = [v for member in raw for v in _canonical_values(member)]
    assert sum(v.imag == 0.0 for v in snapped) == 10
    got = _max_modulus(raw).tolist()
    assert got == per_member_radii(raw)
    assert [float(_max_modulus(member)) for member in raw] == got
    assert got[0] == 5.0 and got[1] == below_two and got[2] == 2.0


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
    # the threshold check's call on F - V, which comes after the pair's
    # radius is kept; the values as LAPACK returns a real spectrum, and
    # with zero imaginary parts
    for values in (raw, raw.astype(complex)):
        pair = NGMPair(zeros, identity(len(raw)), tuple("abcd"[:len(raw)]))
        calls = []

        def spy(a, values=values):
            calls.append(a.copy())
            return np.ones(len(a)) if len(calls) == 1 else values

        monkeypatch.setattr(ngm, "_eigvals", spy)
        report = dfe_threshold_check(pair)
        assert report.abscissa.hex() == expected.hex()
        assert report.r0 == 1.0
        assert np.array_equal(calls[1], (pair.F - pair.V)._a)


@pytest.mark.parametrize("a", [[[-0.0, -0.5], [0.5, 0.0]],
                               [[-0.0, 0.5], [-1.0, 0.0]],
                               [[0.0, 0.5], [-0.5, -0.0]]])
def test_abscissa_of_a_pair_with_signed_zero_real_parts(a):
    # LAPACK returns these pairs with real parts -0.0 and +0.0 in either
    # order, so the first of the tie in its order is not the Spectrum's
    a = np.array(a)
    raw = eigen._geev(a, signature="d->D")
    assert raw.real[0] == raw.real[1] == 0.0
    assert math.copysign(1.0, raw.real[0]) != math.copysign(1.0, raw.real[1])
    m = Matrix._wrap(a)
    expected = max(v.real for v in eigenvalues(m))
    assert spectral_abscissa(m).hex() == expected.hex()
    # F - V is exactly a, signed zeros included: V swaps the two
    # compartments, and F adds it back off the diagonal
    swap = Matrix([[0.0, 1.0], [1.0, 0.0]])
    f = a.copy()
    f[[0, 1], [1, 0]] += 1.0
    pair = NGMPair(Matrix._wrap(f), swap, ("a", "b"))
    assert repr((pair.F - pair.V).to_numpy().tolist()) == repr(a.tolist())
    assert dfe_threshold_check(pair).abscissa.hex() == expected.hex()


def test_radius_and_abscissa_reject_non_square_as_eigenvalues_does():
    for fn in (eigenvalues, spectral_radius, spectral_abscissa):
        with pytest.raises(ValueError, match="eigenvalues requires a square"):
            fn(Matrix([[1.0, 2.0]]))

