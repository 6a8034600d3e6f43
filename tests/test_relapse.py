import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ngmlimit import eigen, ngm, relapse
from ngmlimit.densela import Matrix, inverse, matmul
from ngmlimit.errors import ConfigError, NonFiniteError, SingularMatrixError
from ngmlimit.eigen import spectral_abscissa, spectral_radius
from ngmlimit.ngm import dfe_threshold_check, r0, remove_compartment
from ngmlimit.relapse import (HostParams, R0Result, VectorParams,
                              build_coupled_ngm, build_uncoupled_ngm,
                              r0_coupled_closed, r0_uncoupled_closed,
                              relapse_limit_experiment)
from ngmlimit.verify import random_host, random_vector

UNIT_HOST = HostParams(c=1.0, s_bar=1.0, alpha=(2.0, 1.0), mu=(1.0,))
UNIT_VEC = VectorParams(f=1.0, c_v=1.0, s_v_bar=1.0, mu_tilde=1.0)

positive_rate = st.floats(min_value=1e-2, max_value=1e2,
                          allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# parameter containers

def test_host_params_validation():
    with pytest.raises(ValueError):
        HostParams(c=0.0, s_bar=1.0, alpha=(1.0, 1.0), mu=(1.0,))
    with pytest.raises(ValueError):
        HostParams(c=1.0, s_bar=1.0, alpha=(1.0, -2.0), mu=(1.0,))
    with pytest.raises(ValueError):
        HostParams(c=1.0, s_bar=1.0, alpha=(1.0,), mu=(1.0,))
    with pytest.raises(ValueError):
        HostParams(c=1.0, s_bar=1.0, alpha=(1.0, float("nan")), mu=(1.0,))
    for fields, field in [
            (dict(c=True), "c"),
            (dict(s_bar="2"), "s_bar"),
            (dict(alpha="12"), "alpha"),
            (dict(alpha=3), "alpha"),
            (dict(alpha=(1.0, math.inf)), "alpha[1]"),
            (dict(mu=(None,)), "mu[0]"),
            (dict(alpha=(1.0,), mu=()), "mu"),
            (dict(alpha=(1.0, 2.0, 3.0)), "alpha")]:
        kwargs = dict(c=1.0, s_bar=1.0, alpha=(1.0, 1.0), mu=(1.0,))
        kwargs.update(fields)
        with pytest.raises(ConfigError) as info:
            HostParams(**kwargs)
        assert info.value.field == field


def test_params_store_floats():
    host = HostParams(c=1, s_bar=np.float64(2.0), alpha=[2, np.int64(1)],
                      mu=np.array([3.0]))
    assert host == HostParams(1.0, 2.0, (2.0, 1.0), (3.0,))
    for value in (host.c, host.s_bar) + host.alpha + host.mu:
        assert type(value) is float
    assert type(host.alpha) is tuple and type(host.mu) is tuple
    vec = VectorParams(f=1, c_v=np.float32(0.5), s_v_bar=2, mu_tilde=3)
    assert all(type(getattr(vec, name)) is float
               for name in ("f", "c_v", "s_v_bar", "mu_tilde"))


def test_host_truncation():
    host = HostParams(c=1.0, s_bar=2.0, alpha=(1.0, 2.0, 3.0, 4.0),
                      mu=(0.1, 0.2, 0.3))
    assert host.stages == 3
    cut = host.truncated(2)
    assert cut.alpha == (1.0, 2.0, 3.0)
    assert cut.mu == (0.1, 0.2)
    # the copy skips the re-check but is the value a fresh build gives
    assert cut == HostParams(1.0, 2.0, (1.0, 2.0, 3.0), (0.1, 0.2))
    assert host.truncated(3) == host and host.stages == 3
    with pytest.raises(ValueError, match="^cannot truncate a 3-stage chain "
                                         "to 0 stages$"):
        host.truncated(0)
    with pytest.raises(ValueError, match="to 4 stages$"):
        host.truncated(4)


def test_vector_params_validation():
    with pytest.raises(ValueError):
        VectorParams(f=1.0, c_v=1.0, s_v_bar=0.0, mu_tilde=1.0)
    with pytest.raises(ConfigError, match="^f: "):
        VectorParams(f="1", c_v=1.0, s_v_bar=1.0, mu_tilde=1.0)
    with pytest.raises(ConfigError, match="^mu_tilde: "):
        VectorParams(f=1.0, c_v=1.0, s_v_bar=1.0, mu_tilde=-math.inf)


def test_r0_result_validation():
    with pytest.raises(ValueError):
        R0Result(value=-0.5)


# ---------------------------------------------------------------------------
# closed-form single chain

def test_closed_form_unit_example_is_one():
    assert r0_uncoupled_closed(UNIT_HOST, UNIT_VEC, 1).value == 1.0


def test_closed_form_requires_matching_stage_count():
    with pytest.raises(ValueError):
        r0_uncoupled_closed(UNIT_HOST, UNIT_VEC, 2)


def test_closed_form_large_exit_rate_drops_last_stage():
    host = HostParams(c=0.8, s_bar=1.5, alpha=(1.2, 0.7, 1e12),
                      mu=(0.4, 0.9))
    shorter = host.truncated(1)
    full = r0_uncoupled_closed(host, UNIT_VEC, 2).value
    reduced = r0_uncoupled_closed(shorter, UNIT_VEC, 1).value
    assert full == pytest.approx(reduced, rel=1e-9)


def test_closed_form_telescoping_step():
    host = HostParams(c=0.9, s_bar=1.1, alpha=(1.5, 0.8, 1.3),
                      mu=(0.6, 0.4))
    vec = VectorParams(f=1.7, c_v=0.5, s_v_bar=2.0, mu_tilde=0.9)
    two = r0_uncoupled_closed(host, vec, 2).value
    one = r0_uncoupled_closed(host.truncated(1), vec, 1).value
    prefactor = (host.c * vec.c_v * vec.s_v_bar
                 / (vec.mu_tilde * host.s_bar)) * vec.f ** 2
    step = prefactor * (host.alpha[0] / (host.alpha[1] + host.mu[0])) \
        * (host.alpha[1] / (host.alpha[2] + host.mu[1]))
    assert two ** 2 - one ** 2 == pytest.approx(step, rel=1e-12)


@given(extra_alpha=positive_rate, extra_mu=positive_rate)
@settings(max_examples=50)
def test_closed_form_grows_when_a_stage_is_appended(extra_alpha, extra_mu):
    host = HostParams(c=0.8, s_bar=1.5, alpha=(1.2, 0.7), mu=(0.4,))
    longer = HostParams(host.c, host.s_bar,
                        host.alpha + (extra_alpha,), host.mu + (extra_mu,))
    assert (r0_uncoupled_closed(longer, UNIT_VEC, 2).value
            > r0_uncoupled_closed(host, UNIT_VEC, 1).value)


# ---------------------------------------------------------------------------
# single-chain builder

def test_uncoupled_builder_unit_example():
    pair = build_uncoupled_ngm(UNIT_HOST, UNIT_VEC, 1)
    assert pair.labels == ("I1", "Iv")
    assert pair.F == Matrix([[0.0, 2.0], [1.0, 0.0]])
    assert pair.V == Matrix([[2.0, 0.0], [0.0, 1.0]])
    assert r0(pair) == pytest.approx(1.0, rel=1e-12)


def test_uncoupled_builder_transfer_structure():
    host = HostParams(c=0.5, s_bar=2.0, alpha=(1.0, 2.0, 3.0, 4.0),
                      mu=(0.1, 0.2, 0.3))
    vec = VectorParams(f=1.3, c_v=0.7, s_v_bar=1.4, mu_tilde=0.6)
    pair = build_uncoupled_ngm(host, vec, 3)
    v = pair.V
    assert v.entry(1, 1) == 2.0 + 0.1
    assert v.entry(2, 2) == 3.0 + 0.2
    assert v.entry(3, 3) == 4.0 + 0.3
    assert v.entry(4, 4) == 0.6
    assert v.entry(2, 1) == -2.0
    assert v.entry(3, 2) == -3.0
    # zero away from the chain and the vector mortality
    for r in range(1, 5):
        for c in range(1, 5):
            if r != c and r != c + 1:
                assert v.entry(r, c) == 0.0
    f = pair.F
    assert f.entry(1, 4) == 1.3 * 0.5 * 1.0
    for col in range(1, 4):
        assert f.entry(4, col) == 1.3 * 0.7 * 1.4 / 2.0


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5, 6])
def test_uncoupled_builder_matches_closed_form(j):
    rng = np.random.default_rng(40 + j)
    for _ in range(20):
        host = random_host(rng, j)
        vec = random_vector(rng, f=float(rng.uniform(0.1, 3.0)))
        closed = r0_uncoupled_closed(host, vec, j).value
        assert r0(build_uncoupled_ngm(host, vec, j)) == \
            pytest.approx(closed, rel=1e-12)


# ---------------------------------------------------------------------------
# coupled builder and closed form

def test_coupled_builder_labels_and_order():
    rng = np.random.default_rng(50)
    pair = build_coupled_ngm(random_host(rng, 2), random_host(rng, 3),
                             random_vector(rng), 2, 3)
    assert pair.labels == ("I1.1", "I1.2", "I2.1", "I2.2", "I2.3", "Iv")


def test_coupled_decouples_when_second_host_is_inert():
    rng = np.random.default_rng(51)
    host1, vec = random_host(rng, 2), random_vector(rng)
    host2 = random_host(rng, 3)
    inert = HostParams(c=1e-18, s_bar=host2.s_bar, alpha=host2.alpha,
                       mu=host2.mu)
    coupled = r0(build_coupled_ngm(host1, inert, vec, 2, 3))
    alone = r0_uncoupled_closed(host1, vec, 2).value
    assert coupled == pytest.approx(alone, rel=1e-9)


def test_coupled_equal_stages_pythagorean():
    rng = np.random.default_rng(52)
    for j in (1, 2, 3, 4, 5):
        host1, host2 = random_host(rng, j), random_host(rng, j)
        vec = random_vector(rng, f=float(rng.uniform(0.1, 3.0)))
        pair = build_coupled_ngm(host1, host2, vec, j, j)
        r1 = r0_uncoupled_closed(host1, vec, j).value
        r2 = r0_uncoupled_closed(host2, vec, j).value
        assert r0(pair) ** 2 == pytest.approx(r1 ** 2 + r2 ** 2, rel=1e-10)


def test_coupled_mixed_stages_quadrature():
    rng = np.random.default_rng(53)
    host1, host2 = random_host(rng, 2), random_host(rng, 3)
    vec = random_vector(rng, f=float(rng.uniform(0.1, 3.0)))
    pair = build_coupled_ngm(host1, host2, vec, 2, 3)
    r1 = r0_uncoupled_closed(host1, vec, 2).value
    r2 = r0_uncoupled_closed(host2, vec, 3).value
    assert r0(pair) == pytest.approx(math.hypot(r1, r2), rel=1e-10)


def test_coupled_closed_three_four_five():
    # chains tuned so the two uncoupled values are 0.6 and 0.8
    host1 = HostParams(c=0.36, s_bar=1.0, alpha=(2.0, 1.0), mu=(1.0,))
    host2 = HostParams(c=0.64, s_bar=1.0, alpha=(2.0, 1.0), mu=(1.0,))
    assert r0_uncoupled_closed(host1, UNIT_VEC, 1).value == \
        pytest.approx(0.6, rel=1e-15)
    assert r0_uncoupled_closed(host2, UNIT_VEC, 1).value == \
        pytest.approx(0.8, rel=1e-15)
    combined = r0_coupled_closed(host1, host2, UNIT_VEC, 1, 1)
    assert combined.value == pytest.approx(1.0, rel=1e-15)
    assert combined.method == "closed_form"


def test_coupled_closed_truncates_covering_chains():
    rng = np.random.default_rng(55)
    host1, host2, vec = random_host(rng, 4), random_host(rng, 4), \
        random_vector(rng)
    value = r0_coupled_closed(host1, host2, vec, 2, 3).value
    expected = math.hypot(
        r0_uncoupled_closed(host1.truncated(2), vec, 2).value,
        r0_uncoupled_closed(host2.truncated(3), vec, 3).value)
    assert value == pytest.approx(expected, rel=1e-15)
    with pytest.raises(ValueError):
        r0_coupled_closed(host1, host2, vec, 5, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("host, vec, message", [
    # prefactor * total overflows
    (HostParams(1.0, 1e-300, (1e300, 1.0), (1.0,)), UNIT_VEC, "r0 inf"),
    # the prefactor underflows
    (HostParams(1e-300, 1e300, (1.0, 1.0), (1.0,)), UNIT_VEC,
     "r0: prefactor 0.0"),
    # mu_tilde * s_bar underflows to 0
    (HostParams(1.0, 1e-320, (1.0, 1.0), (1.0,)),
     VectorParams(1.0, 1.0, 1e-300, 1e-10), "r0: prefactor inf"),
    # an infinite prefactor times a sum that underflowed to 0
    (HostParams(1e300, 1.0, (5e-324, 5.0), (5.0,)),
     VectorParams(1.0, 1e300, 1.0, 1.0), "r0: prefactor inf"),
], ids=["overflow", "underflow", "zero-denominator", "nan"])
def test_closed_forms_beyond_the_float_range_raise_non_finite(host, vec,
                                                              message):
    expected = f"^closed-form {message} is not a positive finite float$"
    with pytest.raises(NonFiniteError, match=expected):
        r0_uncoupled_closed(host, vec, 1)
    for hosts in ((host, UNIT_HOST), (UNIT_HOST, host)):
        with pytest.raises(NonFiniteError, match=expected):
            r0_coupled_closed(*hosts, vec, 1, 1)


def test_three_species_construction_matches_its_closed_form():
    rng = np.random.default_rng(57)
    hosts = tuple(random_host(rng, j) for j in (3, 5, 2))
    vec = random_vector(rng, f=float(rng.uniform(0.1, 3.0)))
    pair = relapse._build_ngm(hosts, vec)
    assert pair.labels == ("I1.1", "I1.2", "I1.3", "I2.1", "I2.2", "I2.3",
                           "I2.4", "I2.5", "I3.1", "I3.2", "Iv")
    closed = relapse._r0_closed(hosts, vec).value
    assert r0(pair) == pytest.approx(closed, rel=1e-12)
    assert closed == math.hypot(*(relapse._r0_closed((host,), vec).value
                                  for host in hosts))


def test_builder_rejects_mismatched_stage_counts():
    rng = np.random.default_rng(56)
    host1, host2, vec = random_host(rng, 2), random_host(rng, 3), \
        random_vector(rng)
    with pytest.raises(ValueError, match="^host has 2 stages in its "
                                         "parameters but j=3 was requested$"):
        build_uncoupled_ngm(host1, vec, 3)
    # the message names each count as the caller does
    with pytest.raises(ValueError, match="^host2 has 3 stages in its "
                                         "parameters but k=2 was requested$"):
        build_coupled_ngm(host1, host2, vec, 2, 2)


# ---------------------------------------------------------------------------
# the builder's V^-1

log_rate = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e)


@st.composite
def chains(draw):
    j = draw(st.integers(min_value=1, max_value=6))
    return HostParams(draw(log_rate), draw(log_rate),
                      tuple(draw(st.lists(log_rate, min_size=j + 1,
                                          max_size=j + 1))),
                      tuple(draw(st.lists(log_rate, min_size=j,
                                          max_size=j))))


def assert_same_bits(a: Matrix, b: Matrix):
    assert a.shape == b.shape
    assert a._a.tobytes() == b._a.tobytes()


def reference_blocks(hosts, vec):
    """F and V of host chains sharing one vector, V assembled from its
    two diagonals with ``np.diag``."""
    n = sum(host.stages for host in hosts) + 1
    f = np.zeros((n, n))
    diagonal, subdiagonal = [], []
    start = 0
    for host in hosts:
        j = host.stages
        diagonal += [a + m for a, m in zip(host.alpha[1:], host.mu)]
        # nothing flows from a chain's last stage into the next row
        subdiagonal += [-a for a in host.alpha[1:j]] + [0.0]
        f[start, n - 1] = vec.f * host.c * host.alpha[0]
        f[n - 1, start:start + j] = vec.f * vec.c_v * vec.s_v_bar / host.s_bar
        start += j
    v = np.diag(diagonal + [vec.mu_tilde]) + np.diag(subdiagonal, -1)
    return Matrix._wrap(f), Matrix._wrap(v)


def assert_builder_blocks(hosts, vec):
    # the blocks against the reference assembly, and the builder's
    # bidiagonal closed form against the LU kernel's elimination of V
    pair = relapse._build_ngm(tuple(hosts), vec)
    f, v = reference_blocks(hosts, vec)
    assert_same_bits(pair.F, f)
    assert_same_bits(pair.V, v)
    assert_same_bits(pair.V_inv, inverse(pair.V))


@given(hosts=st.lists(chains(), min_size=1, max_size=3),
       vec=st.builds(VectorParams, log_rate, log_rate, log_rate, log_rate))
@settings(max_examples=150, deadline=None)
def test_builder_inverse_is_inverse_of_v_bit_for_bit(hosts, vec):
    assert_builder_blocks(hosts, vec)


@pytest.mark.parametrize("j", [10, 20, 40])
def test_builder_blocks_on_long_coupled_chains(j):
    # the (j, j) chains of the ladder workloads
    rng = np.random.default_rng(60 + j)
    assert_builder_blocks([random_host(rng, j), random_host(rng, j)],
                          random_vector(rng))


@pytest.mark.parametrize("j, k", [(1, None), (3, 2), (40, 40)])
def test_builder_blocks_refuse_writes(j, k):
    # F, V and V^-1 share one read-only buffer; V^-1 is a C-contiguous
    # block of it, as every Matrix array is
    rng = np.random.default_rng(61 + j)
    vec = random_vector(rng)
    pair = (build_uncoupled_ngm(random_host(rng, j), vec, j) if k is None
            else build_coupled_ngm(random_host(rng, j), random_host(rng, k),
                                   vec, j, k))
    for a in (pair.F._a, pair.V._a, pair.V_inv._a):
        assert a.flags.c_contiguous and not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
    assert_same_bits(pair.V_inv, inverse(pair.V))


@given(hosts=st.lists(chains(), min_size=1, max_size=3),
       vec=st.builds(VectorParams, log_rate, log_rate, log_rate, log_rate))
@settings(max_examples=150, deadline=None)
def test_threshold_report_equals_r0_and_abscissa_bit_for_bit(hosts, vec):
    # the kept radius and the call on F - V give what the public
    # functions give
    pair = relapse._build_ngm(tuple(hosts), vec)
    report = dfe_threshold_check(pair)
    assert report.r0.hex() == \
        spectral_radius(matmul(pair.F, pair.V_inv)).hex()
    assert report.abscissa.hex() == spectral_abscissa(pair.F - pair.V).hex()


@given(hosts=st.lists(chains(), min_size=1, max_size=3),
       vec=st.builds(VectorParams, log_rate, log_rate, log_rate, log_rate))
@settings(max_examples=150, deadline=None)
def test_kernel_equals_public_eigvals_on_relapse_pairs(hosts, vec):
    # K, F - V and the two stacked, as r0 and the threshold check call it
    pair = relapse._build_ngm(tuple(hosts), vec)
    k, jacobian = (pair.F @ pair.V_inv)._a, (pair.F - pair.V)._a
    for a in (k, jacobian, np.array((k, jacobian))):
        private, public = eigen._eigvals(a), np.linalg.eigvals(a)
        assert (private.dtype, private.shape) == (public.dtype, public.shape)
        assert private.tobytes() == public.tobytes()


def test_long_chain_builder_inverse_is_inverse_of_v_bit_for_bit():
    rng = np.random.default_rng(58)

    def rates(size):
        return tuple((10.0 ** rng.uniform(-3.0, 3.0, size)).tolist())

    hosts = [HostParams(1.0, 1.0, rates(41), rates(40)) for _ in range(2)]
    vec = VectorParams(*rates(4))
    pair = build_coupled_ngm(*hosts, vec, 40, 40)
    assert pair.dim == 81
    assert_same_bits(pair.V_inv, inverse(pair.V))


def test_builders_take_no_inverse_call(monkeypatch):
    calls = []

    def counting_inverse(m):
        calls.append(m)
        return inverse(m)

    monkeypatch.setattr(ngm, "inverse", counting_inverse)
    rng = np.random.default_rng(59)
    pair = build_uncoupled_ngm(random_host(rng, 3), random_vector(rng), 3)
    coupled = build_coupled_ngm(random_host(rng, 2), random_host(rng, 4),
                                random_vector(rng), 2, 4)
    assert calls == []
    # the counter sees NGMPair's own factoring, and it gives the same r0
    assert r0(pair) == r0(ngm.NGMPair(pair.F, pair.V, pair.labels))
    assert len(calls) == 1
    assert_same_bits(coupled.V_inv, inverse(coupled.V))


def transfer_block(host: HostParams, vec: VectorParams) -> Matrix:
    """A single chain's V, written out entry by entry."""
    j = host.stages
    v = np.zeros((j + 1, j + 1))
    for l in range(j):
        v[l, l] = host.alpha[l + 1] + host.mu[l]
        if l:
            v[l, l - 1] = -host.alpha[l]
    v[j, j] = vec.mu_tilde
    return Matrix._wrap(v)


def outcome(fn):
    """What ``fn()`` raises with warnings turned into errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 - compared below
            return (type(exc), str(exc), getattr(exc, "pivot", None),
                    getattr(exc, "column", None))
    return None


@pytest.mark.parametrize("host, vec, expected", [
    # pivot 2e-14 below the floor 1e-12 * 2
    (HostParams(1.0, 1.0, (1.0, 1e-14, 1.0), (1e-14, 1.0)), UNIT_VEC,
     SingularMatrixError),
    # every pivot is subnormal but above the floor; 1 / 5e-310 overflows
    (HostParams(1.0, 1.0, (5e-310,) * 3, (5e-310,) * 2),
     VectorParams(1.0, 1.0, 1.0, 5e-310), ValueError),
    # alpha + mu overflows in V itself
    (HostParams(1.0, 1.0, (1.0, 1e308, 1.0), (1e308, 1.0)), UNIT_VEC,
     ValueError),
    (HostParams(1.0, 1.0, (1e308,) * 3, (1e308,) * 2),
     VectorParams(1.0, 1.0, 1.0, 1e308), ValueError),
    # V is finite but a row sum overflows: inf_norm warns
    (HostParams(1.0, 1.0, (1.0, 1.7e308, 1.7e308), (1e-300, 1e-300)),
     UNIT_VEC, RuntimeWarning),
    # the vector's pivot 1 is 1e-12 of the largest pivot but below the
    # floor, 1e-12 of the largest row sum 1.5e12
    (HostParams(1.0, 1.0, (1.0, 5e11, 5e11), (5e11, 5e11)), UNIT_VEC,
     SingularMatrixError),
])
def test_builder_edge_inputs_fail_as_factoring_fails(host, vec, expected):
    got = outcome(lambda: build_uncoupled_ngm(host, vec, host.stages))
    if expected is ValueError:
        # an overflow raises the typed ValueError
        assert got[:2] == (NonFiniteError,
                           "matrix entries must be finite (no NaN/Inf)")
    else:
        assert got[0] is expected
    assert got == outcome(lambda: inverse(transfer_block(host, vec)))


def test_builder_warns_once_where_inf_norm_overflows():
    host = HostParams(1.0, 1.0, (1.0, 1.7e308, 1.7e308), (1e-300, 1e-300))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SingularMatrixError) as info:
            build_uncoupled_ngm(host, UNIT_VEC, 2)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert info.value.column == 1 and info.value.pivot == 1.7e308


# ---------------------------------------------------------------------------
# the limit experiment

def test_experiment_single_step_two_stages():
    rng = np.random.default_rng(60)
    host1, host2 = random_host(rng, 2), random_host(rng, 2)
    vec = random_vector(rng)
    steps = relapse_limit_experiment(host1, host2, vec, 2)
    assert len(steps) == 1
    step = steps[0]
    assert step.stage == 2
    assert step.target == r0_coupled_closed(host1, host2, vec, 1, 2).value
    assert step.final_error <= 1e-6
    assert step.final_extrapolated_error <= 1e-8


@pytest.mark.parametrize("j, k_final, removals", [(2, 1, 0), (5, 4, 0),
                                                  (4, 1, 2)])
def test_experiment_removes_no_compartment_after_the_last_step(
        monkeypatch, j, k_final, removals):
    calls = []

    def counting(pair, i):
        calls.append(i)
        return remove_compartment(pair, i)

    monkeypatch.setattr(relapse, "remove_compartment", counting)
    rng = np.random.default_rng(64)
    host1, host2 = random_host(rng, j), random_host(rng, j)
    steps = relapse_limit_experiment(host1, host2, random_vector(rng), j,
                                     k_final=k_final)
    assert len(steps) == j - k_final
    assert calls == list(range(j, j - removals, -1))


def test_experiment_rejects_single_stage_system():
    rng = np.random.default_rng(61)
    host1, host2, vec = random_host(rng, 1), random_host(rng, 1), \
        random_vector(rng)
    with pytest.raises(ValueError):
        relapse_limit_experiment(host1, host2, vec, 1)


@pytest.mark.parametrize("j", [2, 3, 4])
def test_experiment_iterated_removal_walks_the_ladder(j):
    rng = np.random.default_rng(70 + j)
    host1, host2 = random_host(rng, j), random_host(rng, j)
    vec = random_vector(rng)
    steps = relapse_limit_experiment(host1, host2, vec, j, k_final=1)
    assert [s.stage for s in steps] == list(range(j, 1, -1))
    for step in steps:
        expected = r0_coupled_closed(host1, host2, vec, step.stage - 1,
                                     j).value
        assert step.target == expected
        assert step.final_error <= 1e-6
        assert step.final_extrapolated_error <= 1e-8
        assert step.report.fitted_rate == pytest.approx(1.0, abs=0.2)


def test_experiment_accepts_explicit_schedule():
    rng = np.random.default_rng(62)
    host1, host2 = random_host(rng, 2), random_host(rng, 2)
    vec = random_vector(rng)
    schedule = tuple(10.0 ** k for k in range(2, 7))
    steps = relapse_limit_experiment(host1, host2, vec, 2,
                                     schedule=schedule)
    assert steps[0].report.schedule == schedule


def test_experiment_takes_a_one_shot_schedule():
    # the schedule is checked once, into a tuple that every step reads,
    # so a generator serves a ladder of three steps as a tuple does
    rng = np.random.default_rng(65)
    host1, host2 = random_host(rng, 4), random_host(rng, 4)
    vec = random_vector(rng)
    schedule = tuple(10.0 ** k for k in range(1, 9))
    expected = relapse_limit_experiment(host1, host2, vec, 4,
                                        schedule=schedule, k_final=1)
    steps = relapse_limit_experiment(host1, host2, vec, 4,
                                     schedule=(t for t in schedule),
                                     k_final=1)
    assert [step.stage for step in steps] == [4, 3, 2]
    for step, want in zip(steps, expected):
        assert step.report.schedule == schedule
        assert [e.hex() for e in step.report.errors] == \
            [e.hex() for e in want.report.errors]
        assert step == want
    with pytest.raises(ConfigError, match="^schedule: must be nonempty$"):
        relapse_limit_experiment(host1, host2, vec, 4, schedule=iter(()),
                                 k_final=1)


def test_experiment_k_final_bounds():
    rng = np.random.default_rng(63)
    host1, host2 = random_host(rng, 3), random_host(rng, 3)
    vec = random_vector(rng)
    with pytest.raises(ValueError):
        relapse_limit_experiment(host1, host2, vec, 3, k_final=0)
    with pytest.raises(ValueError):
        relapse_limit_experiment(host1, host2, vec, 3, k_final=3)


@pytest.mark.parametrize("bad", [2.0, True, "3"])
def test_stage_counts_must_be_integers(bad):
    # 2.0 and "3" would fail in a slice or a range, and True would count
    # as one stage
    rng = np.random.default_rng(64)
    host1, host2 = random_host(rng, 3), random_host(rng, 3)
    vec = random_vector(rng)
    calls = [("j", lambda: host1.truncated(bad)),
             ("j", lambda: relapse_limit_experiment(host1, host2, vec, bad)),
             ("k_final", lambda: relapse_limit_experiment(
                 host1, host2, vec, 3, k_final=bad))]
    for field, call in calls:
        with pytest.raises(ConfigError, match=f"^{field}: must be an "
                                              f"integer, got {bad!r}$"):
            call()



@pytest.mark.parametrize("field, bad, call", [
    ("j", 2.0, lambda h1, h3, v: build_uncoupled_ngm(h1, v, 2.0)),
    ("j", True, lambda h1, h3, v: r0_uncoupled_closed(h1.truncated(1), v,
                                                      True)),
    ("j", 2.0, lambda h1, h3, v: build_coupled_ngm(h1, h3, v, 2.0, 3)),
    ("k", 3.0, lambda h1, h3, v: build_coupled_ngm(h1, h3, v, 2, 3.0)),
    ("j", 2.0, lambda h1, h3, v: r0_coupled_closed(h1, h3, v, 2.0, 3)),
    ("k", 3.0, lambda h1, h3, v: r0_coupled_closed(h1, h3, v, 2, 3.0)),
], ids=["uncoupled-build", "uncoupled-closed", "coupled-build-j",
        "coupled-build-k", "coupled-closed-j", "coupled-closed-k"])
def test_builders_and_closed_forms_take_integer_stage_counts(field, bad,
                                                              call):
    # each equals a stage count, or truncates to one, so 2.0 and True
    # passed as one before; the error names the argument as the caller
    # names it
    rng = np.random.default_rng(65)
    host1, host3 = random_host(rng, 2), random_host(rng, 3)
    with pytest.raises(ConfigError, match=f"^{field}: must be an "
                                          f"integer, got {bad!r}$"):
        call(host1, host3, random_vector(rng))