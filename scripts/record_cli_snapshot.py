#!/usr/bin/env python3
"""Record the golden CLI snapshot: the stdout of every command in the snapshot test.

Runs each command line of ``tests/test_snapshot.COMMANDS`` through
``gaussn.cli.main`` in this process, with ``GAUSSN_QUAD_TOL`` unset as the
test does, and writes a JSON object mapping command line to stdout to OUT.
To add entries, extend ``COMMANDS``, record on the tree whose outputs are the
reference, and copy the new entries into ``tests/data/cli_snapshot.json``:

    python3 scripts/record_cli_snapshot.py /tmp/snapshot.json
"""

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_snapshot import COMMANDS  # noqa: E402

from gaussn.cli import main as cli_main  # noqa: E402


def record(commands):
    """{command line: stdout}; a command that exits non-zero is an error."""
    os.environ.pop("GAUSSN_QUAD_TOL", None)
    outputs = {}
    for command in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli_main(command.split())
        if rc != 0:
            raise SystemExit(f"{command!r} exited {rc}")
        outputs[command] = out.getvalue()
    return outputs


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("out", help="path of the JSON file to write")
    args = ap.parse_args()
    text = json.dumps(record(COMMANDS), indent=1, sort_keys=True) + "\n"
    Path(args.out).write_text(text)
    print(f"wrote {len(COMMANDS)} outputs to {args.out}")


if __name__ == "__main__":
    main()
