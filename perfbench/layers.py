"""Names, units and directions of the per-layer metrics.

Standard library only, so the parent process can name the metrics without
importing ngmlimit or NumPy.
"""

from __future__ import annotations

TIMED_FNS = {
    "densela": ("inverse", "determinant", "minor", "matmul", "set_entry",
                "inf_norm"),
    "eigen": ("eigenvalues", "spectral_radius", "spectral_abscissa"),
    "minorlimit": ("limit_minor_inverse", "spectral_limit",
                   "exact_minor_inverse", "row_col_decay"),
    "ngm": ("NGMPair", "r0", "remove_compartment", "r0_removal_limit",
            "dfe_threshold_check"),
    "relapse": ("build_coupled_ngm", "build_uncoupled_ngm",
                "r0_coupled_closed", "r0_uncoupled_closed",
                "relapse_limit_experiment"),
}
PROBE_SIZES = (3, 6, 12, 41, 81)
LADDER_STAGES = (2, 3, 6, 20, 40)
PROBE_FNS = ("densela.inverse", "densela.determinant", "eigen.eigenvalues",
             "ngm.NGMPair", "ngm.r0", "minorlimit.limit_minor_inverse",
             "minorlimit.spectral_limit", "ref.numpy_inv",
             "ref.numpy_eigvals", "ref.scipy_lu_factor")
CRITERIA = ("affine_determinant", "minor_inverse_limit", "row_col_decay",
            "spectral_radius_limit", "uncoupled_closed_form",
            "coupling_identities", "removal_limit_chain",
            "threshold_consistency")


def probe_names() -> list[str]:
    names = [f"probe.{fn}.n{n}_us" for fn in PROBE_FNS for n in PROBE_SIZES]
    names += [f"probe.relapse.relapse_limit_experiment.n{2 * j + 1}_us"
              for j in LADDER_STAGES]
    return names


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric the traced run reports."""
    spec = []
    for module, fns in TIMED_FNS.items():
        for fn in fns:
            spec.append((f"{module}.{fn}.calls", "count", "lower"))
            spec.append((f"{module}.{fn}.self_s", "s", "lower"))
    spec += [
        ("densela.inverse.raised", "ratio", "lower"),
        ("densela.inverse.flops", "flop-computed", "lower"),
        ("eigen.eigenvalues.mean_n", "n", "lower"),
        ("minorlimit.points", "count", "lower"),
        ("minorlimit.points_flagged", "count", "lower"),
        ("minorlimit.clean_ratio", "ratio", "higher"),
        ("minorlimit.rate_fit_off", "count", "lower"),
    ]
    for criterion in CRITERIA:
        spec.append((f"verify.{criterion}.s", "s", "lower"))
        spec.append((f"verify.{criterion}.cases", "count", "higher"))
    spec += [
        ("cli.import_s", "s", "lower"),
        ("cli.render_json.self_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.unattributed_ratio", "ratio", "lower"),
    ]
    spec += [(name, "us", "lower") for name in probe_names()]
    return spec
