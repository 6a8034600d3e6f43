"""tools/fingerprint.py: its keyed fields, its --src guard, and its cli
section against the command's own stdout."""

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
        mine = [line[len(prefix):] for line in lines
                if line.startswith(prefix)]
        assert mine[0] == f"exit={result.exit_code}"
        assert all(line.startswith(f"stdout[{k}]=")
                   for k, line in enumerate(mine[1:]))
        stdout = "\n".join(line.split("=", 1)[1] for line in mine[1:])
        assert stdout == result.stdout


def test_cli_keys_are_unique():
    keys = [line.split("=", 1)[0] for line in fingerprint.cli_outputs()]
    assert len(keys) == len(set(keys))
    assert sum(key.endswith(" exit") for key in keys) == 17
