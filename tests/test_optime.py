"""tools/optime.py: one round of one pass, a tree against itself, and its
--src guard."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "optime.py"
_spec = importlib.util.spec_from_file_location("optime", SCRIPT)
optime = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(optime)


def test_one_round_of_a_tree_against_itself():
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--src", src, "--src", src,
         "--workload", "ladder_long", "--rounds", "1", "--passes", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ("ladder_long seed=42, best of 1 passes per "
                        "process, µs/op")
    assert re.fullmatch(r"round 1 \(A first\): A \d+\.\d  B \d+\.\d",
                        lines[3])
    assert re.fullmatch(r"median: A \d+\.\d  B \d+\.\d  B/A \d\.\d{4}",
                        lines[4])
    assert re.fullmatch(r"faster in: A [01]  B [01] of 1 rounds", lines[5])


def test_a_failed_check_stops_the_run(tmp_path):
    # a tree whose closed-form r0 is doubled fails ladder_long's check
    shutil.copytree(ROOT / "src" / "ngmlimit", tmp_path / "ngmlimit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    relapse = tmp_path / "ngmlimit" / "relapse.py"
    text = relapse.read_text()
    assert text.count("return R0Result(value)") == 1
    relapse.write_text(text.replace("return R0Result(value)",
                                    "return R0Result(2.0 * value)"))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--src", str(ROOT / "src"),
         "--src", str(tmp_path), "--workload", "ladder_long",
         "--rounds", "1", "--passes", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "ladder_long seed=42 op=0 failed its check" in proc.stderr
    assert "the timed process exited 1" in proc.stderr


@pytest.mark.parametrize("argv, message", [
    (["--src", "{src}"], "give --src twice"),
    (["--src", "{src}", "--src", "{tmp}"], "no ngmlimit package"),
    (["--src", "{src}", "--src", "{src}", "--passes", "0"], "at least 1"),
])
def test_bad_arguments_exit_2(tmp_path, capsys, argv, message):
    argv = [arg.format(src=ROOT / "src", tmp=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        optime.main([*argv, "--workload", "ladder_long"])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
