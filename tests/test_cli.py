import json
import math

import pytest
from click.testing import CliRunner

from ngmlimit.cli import _parse_model, main, render_json
from ngmlimit.ngm import r0
from ngmlimit.relapse import _build_ngm

UNIT_UNCOUPLED = {
    "model": {
        "kind": "uncoupled",
        "host": {"c": 1.0, "s_bar": 1.0, "alpha": [2.0, 1.0], "mu": [1.0]},
        "vector": {"f": 1.0, "c_v": 1.0, "s_v_bar": 1.0, "mu_tilde": 1.0},
    }
}

THREE_FOUR_FIVE = {
    "model": {
        "kind": "coupled",
        "host1": {"c": 0.36, "s_bar": 1.0, "alpha": [2.0, 1.0],
                  "mu": [1.0]},
        "host2": {"c": 0.64, "s_bar": 1.0, "alpha": [2.0, 1.0],
                  "mu": [1.0]},
        "vector": {"f": 1.0, "c_v": 1.0, "s_v_bar": 1.0, "mu_tilde": 1.0},
    }
}

WORKED_SWEEP = {
    "matrix": [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]],
    "index": 2,
    "schedule": [100.0, 1000.0, 10000.0, 100000.0, 1000000.0],
}


def invoke(args, stdin=None):
    return CliRunner().invoke(
        main, args, input=stdin, catch_exceptions=False)


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---------------------------------------------------------------------------
# render_json

def test_render_json_floats_round_trip():
    payload = {"x": 1.0, "y": 1.0 / 3.0, "tiny": 2.5e-17, "n": 3,
               "flag": True, "none": None, "list": [0.1, 0.2]}
    text = render_json(payload)
    back = json.loads(text)
    assert back["x"] == 1.0 and isinstance(back["x"], float)
    assert back["y"] == 1.0 / 3.0
    assert back["tiny"] == 2.5e-17
    assert back["n"] == 3 and back["flag"] is True and back["none"] is None
    assert back["list"] == [0.1, 0.2]


def test_render_json_rejects_non_finite():
    with pytest.raises(ValueError):
        render_json({"x": math.nan})


# ---------------------------------------------------------------------------
# r0

def test_r0_unit_example_from_stdin():
    result = invoke(["r0", "--config", "-"],
                    stdin=json.dumps(UNIT_UNCOUPLED))
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["closed_form"] == 1.0
    assert payload["spectral"] == pytest.approx(1.0, rel=1e-12)
    assert payload["relative_gap"] <= 1e-12


def test_r0_coupled_three_four_five():
    result = invoke(["r0", "--config", "-"],
                    stdin=json.dumps(THREE_FOUR_FIVE))
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["closed_form"] == pytest.approx(1.0, rel=1e-14)
    assert payload["spectral"] == pytest.approx(1.0, rel=1e-10)


def test_r0_negative_rate_exits_2_and_names_field():
    cfg = json.loads(json.dumps(UNIT_UNCOUPLED))
    cfg["model"]["host"]["alpha"][0] = -2.0
    result = invoke(["r0", "--config", "-"], stdin=json.dumps(cfg))
    assert result.exit_code == 2
    assert "model.host.alpha[0]" in result.stderr


def _edited(base, path, value):
    cfg = json.loads(json.dumps(base))
    *parents, last = path
    node = cfg
    for key in parents:
        node = node[key]
    node[last] = value
    return json.dumps(cfg)


HOST = ("model", "host")


@pytest.mark.parametrize("command, stdin, key", [
    ("r0", _edited(UNIT_UNCOUPLED, HOST + ("alpha",), [2.0, 1.0, 1.0]),
     "model.host.alpha"),
    ("sweep", _edited(WORKED_SWEEP, ("matrix",), [[2.0]]), "matrix"),
    ("sweep", _edited(WORKED_SWEEP, ("matrix",), [[2, 1], [1, 10 ** 400]]),
     "matrix[1][1]"),
    ("sweep", _edited(WORKED_SWEEP, ("index",), 1.5), "index"),
    ("sweep", _edited(WORKED_SWEEP, ("index",), True), "index"),
    ("r0", _edited(UNIT_UNCOUPLED, HOST + ("c",), True), "model.host.c"),
    ("r0", _edited(UNIT_UNCOUPLED, HOST + ("c",), 10 ** 400),
     "model.host.c"),
    ("r0", _edited(UNIT_UNCOUPLED, HOST + ("alpha",), "12"),
     "model.host.alpha"),
    ("r0", _edited(UNIT_UNCOUPLED, HOST + ("alpha",), 3),
     "model.host.alpha"),
    ("r0", _edited(UNIT_UNCOUPLED, HOST + ("mu",), []), "model.host.mu"),
    ("sweep", _edited(WORKED_SWEEP, ("schedule",), [5.0, 4.0]), "schedule"),
    ("sweep", _edited(WORKED_SWEEP, ("schedule",), [1.0, 2.0])
     .replace("2.0]", "1e400]"), "schedule[1]"),
    ("sweep", _edited(WORKED_SWEEP, ("matrix",),
                      [["2", True, 0], [1, "3", 1], [0, 1, 4]]),
     "matrix[0][0]"),
    ("sweep", _edited(WORKED_SWEEP, ("matrix",),
                      [[2, 1, 0], [1, 3, True], [0, 1, 4]]), "matrix[1][2]"),
    ("sweep", _edited(WORKED_SWEEP, ("matrix",), ["210", "131", "014"]),
     "matrix[0][0]"),
    ("r0", json.dumps({"ngm": {"f": [[True]], "v": [["2"]]}}),
     "ngm.f[0][0]"),
    ("r0", json.dumps({"ngm": {"f": [[1, 0], [0, 1]],
                               "v": [[1, 0], [0, "2"]]}}), "ngm.v[1][1]"),
    ("r0", _edited(UNIT_UNCOUPLED, ("model", "kind"), []), "model.kind"),
    ("r0", _edited(UNIT_UNCOUPLED, ("model", "kind"), 3), "model.kind"),
], ids=["alpha-mu-lengths", "1x1-matrix", "matrix-overflow", "index-1.5", "index-true",
        "c-true", "c-overflow", "alpha-string", "alpha-number", "mu-empty",
        "schedule-decreasing", "schedule-overflow", "matrix-str-bool",
        "matrix-bool-at-1-2", "matrix-str-rows", "ngm-bool-str",
        "ngm-v-str-at-1-1", "kind-list", "kind-number"])
def test_malformed_config_exits_2_at_its_key(command, stdin, key):
    result = invoke([command, "--config", "-"], stdin=stdin)
    assert result.exit_code == 2
    assert f"config error: {key}: " in result.stderr
    assert "Traceback" not in result.output


def test_sweep_remove_stage_out_of_range_exits_2():
    cfg = json.loads(_edited(UNIT_UNCOUPLED, HOST + ("c",), 1.0))
    cfg["remove_stage"] = 3
    result = invoke(["sweep", "--config", "-"], stdin=json.dumps(cfg))
    assert result.exit_code == 2
    assert "config error: remove_stage: must be in 1..2" in result.stderr


def test_r0_missing_section_exits_2():
    result = invoke(["r0", "--config", "-"], stdin="{}")
    assert result.exit_code == 2


def test_r0_reads_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(UNIT_UNCOUPLED))
    out = tmp_path / "out.json"
    result = invoke(["r0", "--config", str(path), "--out", str(out)])
    assert result.exit_code == 0
    assert json.loads(out.read_text())["closed_form"] == 1.0


# ---------------------------------------------------------------------------
# sweep

def test_sweep_diagonal_base_errors_are_zero():
    cfg = {"matrix": [[3.0, 0.0], [0.0, 5.0]], "index": 1,
           "schedule": [10.0, 100.0, 1000.0]}
    result = invoke(["sweep", "--config", "-"], stdin=json.dumps(cfg))
    assert result.exit_code == 0
    rows = parse_csv(result.stdout)
    assert [float(r["t"]) for r in rows] == [10.0, 100.0, 1000.0]
    assert all(float(r["raw_error"]) == 0.0 for r in rows[1:])
    assert all(r["flagged"] == "false" for r in rows)


def test_sweep_worked_example_decade_ratios():
    result = invoke(["sweep", "--config", "-"], stdin=json.dumps(WORKED_SWEEP))
    assert result.exit_code == 0
    rows = parse_csv(result.stdout)
    assert math.isnan(float(rows[0]["extrapolated_error"]))
    errors = [float(r["raw_error"]) for r in rows]
    for a, b in zip(errors, errors[1:]):
        assert b / a == pytest.approx(0.1, abs=0.02)
    extrapolated = [float(r["extrapolated_error"]) for r in rows[1:]]
    assert all(e < raw for e, raw in zip(extrapolated, errors[1:]))


def test_sweep_schedule_flag_overrides_config():
    result = invoke(["sweep", "--config", "-", "--schedule", "10,100"],
                    stdin=json.dumps(WORKED_SWEEP))
    rows = parse_csv(result.stdout)
    assert [float(r["t"]) for r in rows] == [10.0, 100.0]


def test_sweep_relapse_removal_final_error():
    cfg = {
        "model": {
            "kind": "coupled",
            "host1": {"c": 0.8, "s_bar": 1.2, "alpha": [1.5, 0.9, 1.1],
                      "mu": [0.4, 0.7]},
            "host2": {"c": 1.1, "s_bar": 0.9, "alpha": [1.2, 1.4, 0.8],
                      "mu": [0.5, 0.6]},
            "vector": {"f": 1.3, "c_v": 0.8, "s_v_bar": 1.5,
                       "mu_tilde": 0.7},
        },
        "remove_stage": 2,
    }
    result = invoke(["sweep", "--config", "-"], stdin=json.dumps(cfg))
    assert result.exit_code == 0
    rows = parse_csv(result.stdout)
    assert float(rows[-1]["raw_error"]) <= 1e-6


def test_sweep_singular_minor_exits_3():
    cfg = {"matrix": [[0.0, 1.0], [1.0, 0.0]], "index": 1}
    result = invoke(["sweep", "--config", "-"], stdin=json.dumps(cfg))
    assert result.exit_code == 3
    assert "singular" in result.stderr


def _uncoupled(host=None, vector=None):
    cfg = json.loads(json.dumps(UNIT_UNCOUPLED))
    cfg["model"]["host"].update(host or {})
    cfg["model"]["vector"].update(vector or {})
    return json.dumps(cfg)


# uncoupled models whose closed-form r0 is not a positive finite float,
# while the spectral r0 of their pair is
CLOSED_FORM_OVERFLOW = _uncoupled(
    host={"c": 1.0, "s_bar": 1e-300, "alpha": [1e300, 1.0], "mu": [1.0]})
CLOSED_FORM_UNDERFLOW = _uncoupled(
    host={"c": 1e-300, "s_bar": 1e300, "alpha": [1.0, 1.0], "mu": [1.0]})
CLOSED_FORM_ZERO_DENOMINATOR = _uncoupled(
    host={"c": 1.0, "s_bar": 1e-320, "alpha": [1.0, 1.0], "mu": [1.0]},
    vector={"s_v_bar": 1e-300, "mu_tilde": 1e-10})
CLOSED_FORM_NAN = _uncoupled(
    host={"c": 1e300, "s_bar": 1.0, "alpha": [5e-324, 5.0], "mu": [5.0]},
    vector={"c_v": 1e300})


@pytest.mark.parametrize("command, stdin", [
    # F V^-1 overflows in r0
    ("r0", json.dumps({"ngm": {"f": [[1e308, 1e308], [0, 0]],
                               "v": [[0.5, 0], [0, 0.5]]}})),
    # F overflows in the builder
    ("r0", _uncoupled(vector={"f": 1e300, "c_v": 1e300, "s_v_bar": 1e300,
                              "mu_tilde": 1e-300})),
    # alpha + mu overflows in V
    ("r0", _uncoupled(host={"alpha": [1e308, 1e308], "mu": [1e308]})),
    ("ngm", _uncoupled(vector={"f": 1e200, "c_v": 1e200})),
    # the default schedule's last decade overflows
    ("sweep", json.dumps({"matrix": [[1e300, 1e300], [1e300, 1e300]],
                          "index": 1})),
    # NGMPair's V^-1 overflows, inside the constructor the CLI wraps
    ("r0", json.dumps({"ngm": {"f": [[1]], "v": [[5e-310]]}})),
    # the closed form overflows, underflows, divides by an underflowed
    # mu_tilde * s_bar, and multiplies an infinite prefactor by 0
    ("r0", CLOSED_FORM_OVERFLOW),
    ("r0", CLOSED_FORM_UNDERFLOW),
    ("r0", CLOSED_FORM_ZERO_DENOMINATOR),
    ("r0", CLOSED_FORM_NAN),
], ids=["r0-product", "r0-builder-f", "r0-builder-v", "ngm-builder-f",
        "sweep-default-schedule", "r0-pair-inverse", "r0-closed-overflow",
        "r0-closed-underflow", "r0-closed-zero-denominator",
        "r0-closed-nan"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_exits_3_without_a_traceback(command, stdin):
    # NumPy's overflow warning is not printed ahead of the typed error
    result = invoke([command, "--config", "-"], stdin=stdin)
    assert result.exit_code == 3
    assert result.stderr.startswith("numerical error: ")
    assert "Traceback" not in result.output


@pytest.mark.parametrize("stdin", [CLOSED_FORM_ZERO_DENOMINATOR,
                                   CLOSED_FORM_NAN],
                         ids=["zero-denominator", "nan"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ngm_and_sweep_do_not_compute_the_closed_form(stdin):
    # only r0 prints the closed form; the pair's own values are finite
    result = invoke(["ngm", "--config", "-"], stdin=stdin)
    assert result.exit_code == 0
    spectral = json.loads(result.stdout)["r0"]
    assert 0.0 < spectral < math.inf
    cfg = json.loads(stdin)
    cfg["remove_stage"] = 1
    result = invoke(["sweep", "--config", "-"], stdin=json.dumps(cfg))
    assert result.exit_code == 0
    assert result.stderr == ""


def test_sweep_names_the_default_schedule_decade_that_overflows():
    cfg = {"matrix": [[1e300, 1e300], [1e300, 1e300]], "index": 1}
    result = invoke(["sweep", "--config", "-"], stdin=json.dumps(cfg))
    assert result.stderr.strip() == (
        "numerical error: default schedule: inf_norm 2.000e+300 times "
        "10**8 is beyond the float range")


def test_non_finite_matrix_entry_is_a_config_error():
    # JSON's 1e400 parses as an infinite float: an input, not an overflow
    result = invoke(["sweep", "--config", "-"],
                    stdin=json.dumps(WORKED_SWEEP).replace("4.0]]", "1e400]]"))
    assert result.exit_code == 2
    assert "config error: matrix[2][2]: must be finite, got inf" in \
        result.stderr


def test_sweep_json_format():
    result = invoke(["sweep", "--config", "-", "--format", "json"],
                    stdin=json.dumps(WORKED_SWEEP))
    payload = json.loads(result.stdout)
    assert payload["rows"][0]["extrapolated_error"] is None
    assert payload["fitted_rate"] == pytest.approx(1.0, abs=0.1)


def test_sweep_rejects_bad_schedule_flag():
    result = invoke(["sweep", "--config", "-", "--schedule", "5,4"],
                    stdin=json.dumps(WORKED_SWEEP))
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# ngm dump and round trip

def test_ngm_unit_example_blocks():
    result = invoke(["ngm", "--config", "-"], stdin=json.dumps(UNIT_UNCOUPLED))
    assert result.exit_code == 0
    payload = json.loads(result.stdout)
    assert payload["labels"] == ["I1", "Iv"]
    assert payload["f"] == [[0.0, 2.0], [1.0, 0.0]]
    assert payload["v"] == [[2.0, 0.0], [0.0, 1.0]]
    assert payload["ngm"] == [[0.0, 2.0], [0.5, 0.0]]
    assert payload["r0"] == pytest.approx(1.0, rel=1e-12)
    moduli = sorted(abs(complex(e["re"], e["im"]))
                    for e in payload["eigenvalues"])
    assert moduli == pytest.approx([1.0, 1.0], rel=1e-12)


@pytest.mark.parametrize("cfg", [UNIT_UNCOUPLED, THREE_FOUR_FIVE],
                         ids=["uncoupled", "three-four-five"])
def test_ngm_r0_is_r0_of_the_pair_bit_for_bit(cfg):
    # the dump reads r0 off the spectrum it prints, with no second call
    payload = json.loads(invoke(["ngm", "--config", "-"],
                                stdin=json.dumps(cfg)).stdout)
    pair = _build_ngm(*_parse_model(cfg))
    assert payload["r0"].hex() == r0(pair).hex()
    assert payload["r0"] == max(abs(complex(e["re"], e["im"]))
                                for e in payload["eigenvalues"])


def test_ngm_labels_ordered_species_then_vector():
    cfg = {
        "model": {
            "kind": "coupled",
            "host1": {"c": 1.0, "s_bar": 1.0, "alpha": [1.0, 1.0, 1.0],
                      "mu": [1.0, 1.0]},
            "host2": {"c": 1.0, "s_bar": 1.0, "alpha": [1.0, 1.0],
                      "mu": [1.0]},
            "vector": {"f": 1.0, "c_v": 1.0, "s_v_bar": 1.0,
                       "mu_tilde": 1.0},
        }
    }
    result = invoke(["ngm", "--config", "-"], stdin=json.dumps(cfg))
    payload = json.loads(result.stdout)
    assert payload["labels"] == ["I1.1", "I1.2", "I2.1", "Iv"]


def test_ngm_malformed_json_exits_2():
    result = invoke(["ngm", "--config", "-"], stdin="{not json")
    assert result.exit_code == 2


def test_ngm_dump_round_trips_through_r0():
    dump = invoke(["ngm", "--config", "-"], stdin=json.dumps(THREE_FOUR_FIVE))
    payload = json.loads(dump.stdout)
    reingested = {"ngm": {"f": payload["f"], "v": payload["v"],
                          "labels": payload["labels"]}}
    result = invoke(["r0", "--config", "-"], stdin=json.dumps(reingested))
    assert result.exit_code == 0
    back = json.loads(result.stdout)
    assert back["closed_form"] is None
    assert abs(back["spectral"] - payload["r0"]) <= 1e-12


# ---------------------------------------------------------------------------
# verify

def test_verify_passes_and_reports(tmp_path):
    out = tmp_path / "report.json"
    result = invoke(["verify", "--seed", "42", "--out", str(out)])
    assert result.exit_code == 0
    report = json.loads(out.read_text())
    assert report["all_passed"] is True
    assert report["seed"] == 42
    names = [c["name"] for c in report["criteria"]]
    assert names == [
        "affine_determinant", "minor_inverse_limit", "row_col_decay",
        "spectral_radius_limit", "uncoupled_closed_form",
        "coupling_identities", "removal_limit_chain",
        "threshold_consistency",
    ]
    assert all(c["passed"] for c in report["criteria"])
    assert "PASS" in result.stderr
