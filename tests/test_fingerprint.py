"""tools/fingerprint.py: its keyed fields, its --src guard, its cli
section against the command's own stdout, its keys, and its comparison
of two prints against the declared moves."""

import importlib.util
import json
from dataclasses import dataclass
from pathlib import Path

import pytest
from click.testing import CliRunner

from ngmlimit.cli import main

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"
_spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
fingerprint = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprint)


@dataclass(frozen=True)
class Point:
    t: float
    flags: tuple


def test_fields_keys_dataclasses_and_sequences():
    value = [Point(0.5, (True, None)), "a", 3]
    assert list(fingerprint.fields("r", value)) == [
        ("r[0].t", "0x1.0000000000000p-1"),
        ("r[0].flags[0]", "True"),
        ("r[0].flags[1]", "None"),
        ("r[1]", "'a'"),
        ("r[2]", "3"),
    ]


@pytest.mark.parametrize("value", [{"a": 1.0}, 1j, object()])
def test_fields_refuses_an_unknown_type(value):
    with pytest.raises(TypeError, match=r"r\[0\]: cannot fingerprint"):
        list(fingerprint.fields("r", [value]))


def test_src_without_a_package_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        fingerprint.main(["--src", str(tmp_path)])
    assert exc.value.code == 2
    assert "no ngmlimit package" in capsys.readouterr().err


def test_cli_lines_rebuild_each_run_exactly():
    lines = list(fingerprint.cli_outputs())
    runner = CliRunner()
    for run in fingerprint.CLI_RUNS:
        model, command = run.split(":")
        result = runner.invoke(main, [command, "--config", "-"],
                               input=json.dumps(fingerprint.CONFIGS[model]))
        prefix = f"cli {run} "
        mine = [(key[len(prefix):], value) for key, value in lines
                if key.startswith(prefix)]
        assert mine[0] == ("exit", str(result.exit_code))
        assert all(key.split(" ")[0] == f"stdout[{k}]"
                   for k, (key, _) in enumerate(mine[1:]))
        stdout = "\n".join(value for _, value in mine[1:])
        assert stdout == result.stdout


def test_cli_keys_are_unique():
    keys = [key for key, _ in fingerprint.cli_outputs()]
    assert len(keys) == len(set(keys))
    assert sum(key.endswith(" exit") for key in keys) == 17
    # a JSON member's line names the member
    assert "cli coupled:r0 stdout[2] spectral" in keys


def test_keys_are_unique_in_every_section(monkeypatch):
    monkeypatch.syspath_prepend(str(fingerprint.ROOT / "perfbench"))
    printed = {}
    for section in fingerprint.SECTIONS:
        lines = list(section())
        records = dict(lines)
        assert len(records) == len(lines), section.__name__
        assert not printed.keys() & records.keys(), section.__name__
        printed.update(records)
    assert all("\t" not in key and "\n" not in key + value
               for key, value in printed.items())
    # each report's fitted rate is a line of its own, so that a glob on
    # the rates matches nothing else
    rates = {key: value for key, value in printed.items()
             if fingerprint._matcher("*fitted_rate")(key)}
    assert {key.split()[0] for key in rates} == {"ladder_long", "spectra"}
    assert all(key.endswith(".fitted_rate") and " " not in value
               for key, value in rates.items())


BASE = {"a x.errors": "1", "a x.fitted_rate": "2", "b stdout[3] gap": "3"}


def test_compare_groups_declared_moves_by_glob():
    head = {**BASE, "a x.fitted_rate": "5", "b stdout[3] gap": "6"}
    lines, ok = fingerprint.compare(
        BASE, head, [("*fitted_rate", "a new fit"), ("b *gap", "it reads")])
    assert ok
    assert lines == ["2 moved keys, 2 declared globs",
                     "*fitted_rate  # a new fit: 1 keys",
                     "  a x.fitted_rate",
                     "b *gap  # it reads: 1 keys",
                     "  b stdout[3] gap"]


def test_compare_fails_on_a_move_no_glob_matches():
    # a key in one print only has moved too
    head = {**BASE, "a x.errors": "0", "c new": "1"}
    del head["b stdout[3] gap"]
    lines, ok = fingerprint.compare(BASE, head, [("a x.errors", "why")])
    assert not ok
    assert lines[-3:] == ["FAILED: 2 moved keys match no glob",
                          "  b stdout[3] gap", "  c new"]


def test_compare_fails_on_a_glob_that_matches_no_move():
    head = {**BASE, "a x.errors": "0"}
    lines, ok = fingerprint.compare(
        BASE, head, [("*errors", "why"), ("*fitted_rate", "stale")])
    assert not ok
    assert lines[-1] == "FAILED: glob '*fitted_rate' matches no moved key"


def test_compare_with_nothing_declared_fails_on_any_move():
    assert fingerprint.compare(BASE, dict(BASE), []) == (
        ["0 moved keys, 0 declared globs"], True)
    assert not fingerprint.compare(BASE, {**BASE, "a x.errors": "0"}, [])[1]


def test_glob_brackets_and_dots_are_literal():
    match = fingerprint._matcher("b stdout[3] ?ap")
    assert match("b stdout[3] gap")
    assert not match("b stdout3 gap")
    assert not fingerprint._matcher("a.x")("abx")


def test_compare_command_reads_prints_and_moves(tmp_path, capsys):
    base, head, moves = (tmp_path / name for name in ("b", "h", "m"))
    base.write_text("k one\t1\nk two\t2\n")
    head.write_text("k one\t1\nk two\t3\n")
    moves.write_text("# header\n\nk t*  # the second moved\n")
    argv = ["--compare", str(base), str(head)]
    assert fingerprint.main([*argv, "--moves", str(moves)]) == 0
    assert "k t*  # the second moved: 1 keys\n  k two\n" in (
        capsys.readouterr().out)
    assert fingerprint.main(argv) == 1
    moves.write_text("k t*\n")
    with pytest.raises(ValueError, match="needs a '#' reason"):
        fingerprint.main([*argv, "--moves", str(moves)])
    head.write_text("k one\t1\nk one\t3\n")
    with pytest.raises(ValueError, match="not a line with a new key"):
        fingerprint.main(argv)
