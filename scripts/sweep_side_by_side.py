#!/usr/bin/env python3
"""Wall time of benchmark sweeps, several gaussn trees imported side by side in one process.

    python3 scripts/sweep_side_by_side.py WORKLOAD SEED SWEEPS TREE [TREE ...]

A TREE is a source checkout holding ``src/gaussn``; each is imported as its
own package, ``gaussn_<directory name>``, so give the trees distinct names.
The sweeps are those of ``perfbench/run.py`` (``workloads.sweep``) and run
through its ``run_sweep``.  Sweep 0 warms every tree up and is checked;
sweeps 1..SWEEPS are timed once per tree, in an order that rotates every
round, so a drift in machine speed falls on every tree alike.  Prints, per
tree, the minimum, median and quartiles of the sweep wall times in
milliseconds, and how many warm-up ops failed or failed their check.

Times are raw, not calibrated as ``perfbench/run.py``'s are: compare only
trees timed in the same run.
"""

import importlib.util
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import run as bench  # noqa: E402  (sets one BLAS thread before numpy loads)
import workloads  # noqa: E402


def load(tree):
    """Import ``tree``'s gaussn as package ``gaussn_<name>``, with its cli."""
    name = "gaussn_" + Path(tree).resolve().name
    pkg_dir = Path(tree) / "src" / "gaussn"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py", submodule_search_locations=[str(pkg_dir)]
    )
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module(name + ".cli")
    return name, pkg


def main():
    workload, seed, sweeps, trees = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4:]
    pkgs = [load(tree) for tree in trees]
    times = {name: [] for name, _ in pkgs}
    bad = {}
    for name, pkg in pkgs:
        outcomes = bench.run_sweep(pkg, workloads.sweep(workload, seed, 0))
        bad[name] = sum(
            out.error is not None or out.rc != 0 or out.op.check(out.output, pkg) is not None
            for out in outcomes
        )
    for i in range(sweeps):
        ops = workloads.sweep(workload, seed, i + 1)
        k = i % len(pkgs)
        for name, pkg in pkgs[k:] + pkgs[:k]:
            t0 = time.perf_counter()
            bench.run_sweep(pkg, ops)
            times[name].append((time.perf_counter() - t0) * 1e3)
    for name, ts in times.items():
        q1, q2, q3 = statistics.quantiles(ts, n=4)
        print(f"{workload} {name}: min {min(ts):.2f} median {q2:.2f} [{q1:.2f}, {q3:.2f}] ms "
              f"over {len(ts)} sweeps; warm-up ops failed {bad[name]}")


if __name__ == "__main__":
    main()
