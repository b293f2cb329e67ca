"""Golden CLI outputs: fixed commands whose stdout must not change by a byte.

``tests/data/cli_snapshot.json`` maps each command line below to the exact
stdout it printed when the snapshot was recorded.  A change that means to
alter one of these outputs re-records that entry and says why.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from gaussn.cli import main

SNAPSHOT = Path(__file__).parent / "data" / "cli_snapshot.json"
RECORDER = Path(__file__).parent.parent / "scripts" / "record_cli_snapshot.py"
MODELS = ("chi2log", "gauss", "trig", "binom")
TABLE_N = "3,4,5,10,20,30,40,50,75,100,150,155,160,165"


def _commands():
    cmds = []
    for model in MODELS:
        for mode in ("paper_rounding", "strict"):
            for threshold in ("0.1", "0.01"):
                cmds.append(("criterion", "--model", model, "--mode", mode, "--threshold", threshold))
    for sigma in ("0.5", "2"):
        cmds.append(("criterion", "--model", "gauss", "--sigma", sigma))
    cmds.append(("table", "--model", "chi2log", "--n", TABLE_N))
    cmds.append(("table", "--model", "trig", "--n", TABLE_N, "--format", "json"))
    for model in MODELS:
        for xi in ("0", "0.3", "1.1"):
            cmds.append(("fisher", "--model", model, "--xi", xi))
    for sigma in ("0.01", "2", "50"):
        cmds.append(("fisher", "--model", "gauss", "--sigma", sigma, "--xi", "0.3"))
    # Line families away from x = 0 and from unit scale, and a scale far
    # below the remainder-order probes.
    for xi in ("0", "5"):
        cmds.append(("fisher", "--model", "gauss", "--sigma", "0.5", "--xi", xi))
    for xi in ("100", "-1000"):
        cmds.append(("fisher", "--model", "chi2log", "--xi", xi))
    cmds.append(("fisher", "--model", "gauss", "--xi", "1000"))
    # Scales far from 1 on both sides, where fisher is the unit record's
    # value rescaled.
    cmds.append(("fisher", "--model", "gauss", "--sigma", "1e-20", "--xi", "0.3"))
    cmds.append(("fisher", "--model", "gauss", "--sigma", "1e20", "--xi", "5"))
    cmds.append(("criterion", "--model", "gauss", "--sigma", "1e-20"))
    cmds.append(("verify", "--format", "json"))
    for model in MODELS:
        for n in ("1", "8", "160", "5000"):
            cmds.append(("posterior", "--model", model, "--xi-true", "0.3", "--n", n, "--seed", "7"))
    for model in ("trig", "binom"):
        for n in ("1", "8", "160", "5000"):
            cmds.append(("posterior", "--model", model, "--xi-true", "1.55", "--n", n, "--seed", "7"))
    # The trig maximum-likelihood scan near a period edge and at large N.
    for xi in ("-1.2", "1.5707"):
        for n in ("2", "17", "20000"):
            cmds.append(("posterior", "--model", "trig", "--xi-true", xi, "--n", n, "--seed", "7"))
    return [" ".join(c) for c in cmds]


COMMANDS = _commands()


@pytest.fixture(scope="module")
def golden():
    return json.loads(SNAPSHOT.read_text())


def test_snapshot_covers_exactly_these_commands(golden):
    assert sorted(golden) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_is_byte_identical(command, golden, capsys):
    assert main(command.split()) == 0
    assert capsys.readouterr().out == golden[command]


def _compare_with(golden_path):
    return subprocess.run(
        [sys.executable, str(RECORDER), "--compare", str(golden_path)],
        capture_output=True, text=True, timeout=300,
    )


def test_compare_exits_1_when_an_entry_differs(golden, tmp_path):
    altered = dict(golden, **{COMMANDS[0]: golden[COMMANDS[0]] + "changed\n"})
    path = tmp_path / "altered.json"
    path.write_text(json.dumps(altered))
    proc = _compare_with(path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"1 of {len(COMMANDS)} outputs differ"


def test_compare_exits_0_on_the_golden_snapshot():
    proc = _compare_with(SNAPSHOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 of {len(COMMANDS)} outputs differ"
