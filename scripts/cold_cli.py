#!/usr/bin/env python3
"""Wall time of gaussn commands, each run in a fresh ``python -m gaussn`` process.

    python3 scripts/cold_cli.py TREE [TREE2] [--runs K]

A TREE is a source checkout holding ``src/gaussn``.  Every command below is
run K times per tree, cold: a new interpreter (the one running this script)
that imports gaussn from that tree and runs the one command.  With two trees the runs alternate between
them, in turns whose order flips every round, so a drift in machine speed
falls on both sides alike; the printed table compares the trees within
each row.  Each cell is the median wall time and, in brackets, the
quartiles of the K runs.

Only the standard library is used.  Output goes to a null device, the
children run in an empty temporary directory, and they write no bytecode
(PYTHONDONTWRITEBYTECODE=1), so nothing is written into the trees; every
run compiles gaussn's own sources, as a checkout that is never
byte-compiled does.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COMMANDS = (
    ("criterion", "--model", "trig"),
    ("criterion", "--model", "chi2log"),
    ("criterion", "--model", "gauss"),
    ("table", "--model", "binom", "--n", "8"),
    ("table", "--model", "chi2log", "--n", "3,160"),
    ("posterior", "--model", "trig", "--xi-true", "0.3", "--n", "2000", "--seed", "7"),
    ("fisher", "--model", "trig"),
    ("fisher", "--model", "chi2log"),
    ("verify", "--suite", "h"),
)


def run_once(src, command, workdir, env) -> float:
    """Seconds from starting one child to its exit; the command must exit 0."""
    env = dict(env, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gaussn", *command], cwd=workdir, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {proc.returncode} under {src}: "
                         f"{proc.stderr.strip()[-300:]}")
    return elapsed


def cell(times) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return f"{1e3 * q2:.0f} ms [{1e3 * q1:.0f}, {1e3 * q3:.0f}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs="+", type=Path, help="one or two source checkouts")
    parser.add_argument("--runs", type=int, default=9, help="cold runs per command and tree")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    srcs = [tree.resolve() / "src" for tree in args.trees]
    for src in srcs:
        if not (src / "gaussn" / "__init__.py").is_file():
            parser.error(f"no gaussn sources under {src}")

    times = {(i, command): [] for i in range(len(srcs)) for command in COMMANDS}
    with tempfile.TemporaryDirectory(prefix="cold_cli_") as workdir:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        for command in COMMANDS:  # untimed: every timed run then meets a warm file cache
            for src in srcs:
                run_once(src, command, workdir, env)
        for k in range(args.runs):
            order = list(range(len(srcs)))
            if k % 2:
                order.reverse()
            for command in COMMANDS:
                for i in order:
                    times[i, command].append(run_once(srcs[i], command, workdir, env))

    print(f"median [quartiles] of {args.runs} cold runs per cell, {sys.executable}")
    for i, tree in enumerate(args.trees):
        print(f"tree {i + 1}: {tree}")
    header = "| command | " + " | ".join(f"tree {i + 1}" for i in range(len(srcs))) + " |"
    print(header)
    print("|---" * (len(srcs) + 1) + "|")
    for command in COMMANDS:
        cells = " | ".join(cell(times[i, command]) for i in range(len(srcs)))
        print(f"| `{' '.join(command)}` | {cells} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
