#!/usr/bin/env python3
"""Record the golden CLI snapshot, or compare this tree's outputs with it.

Runs each command line of ``tests/test_snapshot.COMMANDS`` through
``gaussn.cli.main`` in this process, as the test does.  Given OUT, writes
a JSON object mapping command line to stdout to OUT.  To add entries,
extend ``COMMANDS``, record on the tree whose
outputs are the reference, and copy the new entries into
``tests/data/cli_snapshot.json``:

    python3 scripts/record_cli_snapshot.py /tmp/snapshot.json

Given ``--compare GOLDEN``, lists each entry whose output differs from
GOLDEN, with the largest relative change of each numeric field of its
JSON ``results`` (a list counts as one field), before a change re-records
them; the exit status is 1 when any entry differs, else 0:

    python3 scripts/record_cli_snapshot.py --compare tests/data/cli_snapshot.json
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_snapshot import COMMANDS  # noqa: E402

from gaussn.cli import main as cli_main  # noqa: E402


def record(commands):
    """{command line: stdout}; a command that exits non-zero is an error."""
    outputs = {}
    for command in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli_main(command.split())
        if rc != 0:
            raise SystemExit(f"{command!r} exited {rc}")
        outputs[command] = out.getvalue()
    return outputs


def _numbers(value, path=""):
    """{field path: list of numbers} of a JSON value; a list of numbers is one field."""
    if isinstance(value, dict):
        fields = {}
        for key, item in value.items():
            fields.update(_numbers(item, f"{path}.{key}" if path else key))
        return fields
    if isinstance(value, list) and all(map(_is_number, value)):
        return {path: [float(v) for v in value]}
    if _is_number(value):
        return {path: [float(value)]}
    return {}


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative_change(old, new):
    if len(old) != len(new):
        return "length changed"
    worst = 0.0
    for a, b in zip(old, new):
        if a != b:
            worst = max(worst, abs(b - a) / abs(a) if a else float("inf"))
    return f"{worst:.2g}"


def compare(golden, outputs):
    """(report lines, count of differing outputs): each differing command with its changed fields."""
    lines = []
    for command in sorted(outputs):
        old, new = golden.get(command), outputs[command]
        if old == new:
            continue
        if old is None:
            lines.append(f"{command}: not in the snapshot")
            continue
        try:
            before = _numbers(json.loads(old).get("results", {}))
            after = _numbers(json.loads(new).get("results", {}))
        except (json.JSONDecodeError, AttributeError):
            lines.append(f"{command}: output is not a JSON object; text differs")
            continue
        changes = []
        for name in sorted(before.keys() | after.keys()):
            if name not in before or name not in after:
                changes.append(f"{name} {'added' if name in after else 'removed'}")
            elif before[name] != after[name]:
                changes.append(f"{name} {_relative_change(before[name], after[name])}")
        lines.append(f"{command}: {', '.join(changes) or 'no numeric field changed; text differs'}")
    differ = sum(1 for command in outputs if golden.get(command) != outputs[command])
    lines.append(f"{differ} of {len(outputs)} outputs differ")
    return lines, differ


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("out", nargs="?", help="path of the JSON file to write")
    ap.add_argument("--compare", metavar="GOLDEN", help="snapshot to compare the outputs with")
    args = ap.parse_args()
    if args.out is None and args.compare is None:
        ap.error("give OUT, --compare GOLDEN, or both")
    outputs = record(COMMANDS)
    differ = 0
    if args.compare is not None:
        lines, differ = compare(json.loads(Path(args.compare).read_text()), outputs)
        print("\n".join(lines))
    if args.out is not None:
        text = json.dumps(outputs, indent=1, sort_keys=True) + "\n"
        Path(args.out).write_text(text)
        print(f"wrote {len(COMMANDS)} outputs to {args.out}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
