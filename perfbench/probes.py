"""Size-swept layer probes: single public calls timed in isolation.

Every probe runs on a coupled relapse pair with ``n = j + k + 1``
compartments; n = 3, 6 and 12 match the sizes of the per-call baseline the
project recorded before this benchmark existed, 41 and 81 are the long
chains of ``ladder_long``. The ladder probe needs a (j, j) system, so it
runs at n = 2j + 1 for j = 2, 3, 6, 20 and 40.

A probe reports the fastest of ``REPEATS`` timings, each of a loop sized to
last at least ``LOOP_S``, divided by the loop length (``timeit`` style).
The ``probe.ref.*`` entries time NumPy and SciPy on the same matrices as
reference points; the library does not use them.
"""

from __future__ import annotations

import time

import numpy as np

from ngmlimit import (DiagonalRay, NGMPair, build_coupled_ngm, determinant,
                      eigenvalues, inf_norm, inverse, limit_minor_inverse,
                      matmul, r0, relapse_limit_experiment, spectral_limit)

from layers import LADDER_STAGES, PROBE_SIZES
from workloads import draw_host, draw_vector

REPEATS = 3
LOOP_S = 0.02

# stages of the two species for each probe size n = j + k + 1
_SPLIT = {3: (1, 1), 6: (2, 3), 12: (5, 6), 41: (20, 20), 81: (40, 40)}


def time_call_us(fn) -> float:
    fn()
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = time.perf_counter() - t0
        if elapsed >= LOOP_S:
            break
        number *= 2
    best = elapsed
    for _ in range(REPEATS - 1):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / number * 1e6


def run_probes(seed: int) -> dict[str, float]:
    import scipy.linalg

    rng = np.random.default_rng(seed)
    out: dict[str, float] = {}
    for n in PROBE_SIZES:
        j, k = _SPLIT[n]
        h1, h2, vec = draw_host(rng, j), draw_host(rng, k), draw_vector(rng)
        pair = build_coupled_ngm(h1, h2, vec, j, k)
        f, v, labels = pair.F, pair.V, pair.labels
        product = matmul(f, inverse(v))
        ray = DiagonalRay(v, j)
        point = (1e4 * inf_norm(v),)
        v_np, product_np = v.to_numpy(), product.to_numpy()
        cases = {
            "densela.inverse": lambda: inverse(v),
            "densela.determinant": lambda: determinant(v),
            "eigen.eigenvalues": lambda: eigenvalues(product),
            "ngm.NGMPair": lambda: NGMPair(f, v, labels),
            "ngm.r0": lambda: r0(pair),
            "minorlimit.limit_minor_inverse":
                lambda: limit_minor_inverse(ray, point),
            "minorlimit.spectral_limit": lambda: spectral_limit(f, ray, point),
            "ref.numpy_inv": lambda: np.linalg.inv(v_np),
            "ref.numpy_eigvals": lambda: np.linalg.eigvals(product_np),
            "ref.scipy_lu_factor": lambda: scipy.linalg.lu_factor(v_np),
        }
        for fn, call in cases.items():
            out[f"probe.{fn}.n{n}_us"] = time_call_us(call)
    for j in LADDER_STAGES:
        h1, h2 = draw_host(rng, j), draw_host(rng, j)
        vec = draw_vector(rng)
        out[f"probe.relapse.relapse_limit_experiment.n{2 * j + 1}_us"] = (
            time_call_us(lambda: relapse_limit_experiment(h1, h2, vec, j)))
    return out
