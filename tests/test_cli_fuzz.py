"""Hypothesis fuzz of the CLI's exit-code contract.

Configs are JSON trees whose keys may be present or missing and whose
values may have the wrong type, rows may be ragged, and rates are spread
over the whole float range, with signed zeros and subnormals. Whatever
the input, ``r0``, ``ngm`` and ``sweep`` exit 0, 2 (config error) or 3
(numerical error) with the typed line first on stderr, and never print
a traceback. The profile is derandomized, so every run draws the same
examples.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ngmlimit.cli import main

FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def mostly(good, *bad):
    """``good`` fifteen times in sixteen, else one of ``bad``: a config
    has a dozen fields, and each must usually be right for the numerics
    behind them to be reached. (``st.one_of`` would pick ``bad`` about
    half the time, however often ``good`` is repeated in it.) Every
    strategy is built once: one built per draw costs more than the draw."""
    other = st.one_of(*bad)
    return st.integers(0, 15).flatmap(lambda k: other if k == 7 else good)


# Positive rates, a third between 1e-3 and 1e3 and the rest from the
# subnormals to 1e308, whose products over- and underflow; then, one time
# in twenty-five, a value that is not a positive finite number. The list
# is drawn by index, in one draw; 1.0 at both ends, where Hypothesis
# draws more often than elsewhere and shrinks to.
MODERATE = [10.0 ** (k / 20) for k in range(-60, 61)]
WIDE = [10.0 ** (k / 10) for k in range(-3230, 3080, 26)]
EDGE = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
        1.7976931348623157e308, -1e308, -1.0]
JUNK = [None, True, False, "1", "", [], [1.0], {"a": 1}]
rate = st.sampled_from([1.0, *MODERATE, *WIDE, *EDGE, *JUNK, 1.0])
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                 st.lists(st.integers(-1, 2), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(),
                                 max_size=1))
number = st.one_of(st.sampled_from([*MODERATE, *WIDE, *EDGE]),
                   st.integers(-3, 3),
                   st.floats(allow_nan=False, allow_infinity=False))


def objects(fields: dict, optional: "dict | None" = None):
    """An object holding every field and some of ``optional``; rarely
    one with fields missing, or not an object at all."""
    full = st.fixed_dictionaries(fields, optional=optional or {})
    return mostly(full, st.fixed_dictionaries({}, optional=fields), junk)


def rates(size: int):
    """``size`` rates; rarely a list of another length, or one rate."""
    return mostly(st.lists(rate, min_size=size, max_size=size),
                  st.lists(rate, max_size=5), rate)


# chains of 1 to 4 stages
hosts = st.one_of(*(objects({"c": rate, "s_bar": rate, "alpha": rates(j + 1),
                             "mu": rates(j)}) for j in range(1, 5)))


vectors = objects({"f": rate, "c_v": rate, "s_v_bar": rate,
                   "mu_tilde": rate})
models = st.one_of(
    objects({"kind": mostly(st.just("uncoupled"), junk), "host": hosts,
             "vector": vectors}),
    objects({"kind": mostly(st.just("coupled"), junk), "host1": hosts,
             "host2": hosts, "vector": vectors}))


entry = mostly(number, junk)
# n x n for n = 1 to 4; rarely ragged, or not a list of rows
matrices = mostly(
    st.one_of(*(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=n, max_size=n) for n in range(1, 5))),
    st.lists(st.lists(entry, max_size=4), max_size=4), junk)
raw_pairs = objects({"f": matrices, "v": matrices},
                    {"labels": st.one_of(junk, st.lists(st.text(max_size=2),
                                                        max_size=4))})
schedules = {"schedule": mostly(st.lists(mostly(rate, number), min_size=1,
                                         max_size=6), junk)}
stages = mostly(st.integers(1, 9), st.integers(-1, 0), junk, number)

# whole configs: an object with the command's sections, some other JSON
# value, or text that is not JSON at all
configs = {
    "r0": st.one_of(objects({"model": models}), objects({"ngm": raw_pairs})),
    "ngm": objects({"model": models}),
    "sweep": st.one_of(
        objects({"model": models, "remove_stage": stages}, schedules),
        objects({"matrix": matrices, "index": stages}, schedules)),
}


def stdin_for(command: str):
    return mostly(configs[command].map(json.dumps), st.text(max_size=8))


def assert_typed_outcome(result):
    assert "Traceback" not in result.output
    assert result.exit_code in (0, 2, 3), result.output
    # exit 0 may come with a warning on stderr, such as MMatrixWarning
    if result.exit_code:
        prefix = ("config error: " if result.exit_code == 2
                  else "numerical error: ")
        assert result.stderr.startswith(prefix), result.stderr
        assert result.stdout == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
# a raw pair whose V is not an M-matrix warns, as it should
@pytest.mark.filterwarnings("ignore::ngmlimit.ngm.MMatrixWarning")
@pytest.mark.parametrize("command, examples",
                         [("r0", 70), ("ngm", 35), ("sweep", 70)])
def test_every_config_exits_0_2_or_3_with_a_typed_line(command, examples):
    @settings(FUZZ, max_examples=examples)
    @given(stdin=stdin_for(command),
           flags=st.sampled_from([[], ["--format", "json"]]
                                 if command == "sweep" else [[]]))
    def run(stdin, flags):
        result = CliRunner().invoke(main, [command, "--config", "-", *flags],
                                    input=stdin, catch_exceptions=False)
        assert_typed_outcome(result)
        if result.exit_code == 0 and (flags or command != "sweep"):
            json.loads(result.stdout)

    run()


@settings(FUZZ, max_examples=30)
@given(flag=st.one_of(
    st.lists(number, max_size=5).map(
        lambda ts: ",".join(map(repr, ts))),
    st.text(alphabet="0123456789.,e-+ infa", max_size=10)))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_any_schedule_flag_exits_0_2_or_3_with_a_typed_line(flag):
    cfg = {"matrix": [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]],
           "index": 2}
    result = CliRunner().invoke(
        main, ["sweep", "--config", "-", f"--schedule={flag}"],
        input=json.dumps(cfg), catch_exceptions=False)
    assert_typed_outcome(result)


def _not_a_seed(text: str) -> bool:
    try:
        return int(text) < 0
    except ValueError:
        return True


@settings(FUZZ, max_examples=15)
@given(seed=st.one_of(st.integers(max_value=-1).map(str),
                      st.text(alphabet="0123456789.e-+ x",
                              max_size=6).filter(_not_a_seed)))
def test_verify_refuses_a_seed_it_cannot_use(seed):
    # a seed that the corpora's generators take runs the whole suite,
    # which test_cli.py covers; every other one is refused before any
    # check runs, with click's usage error
    result = CliRunner().invoke(main, ["verify", f"--seed={seed}"],
                                catch_exceptions=False)
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "Invalid value for '--seed'" in result.stderr
