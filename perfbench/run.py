#!/usr/bin/env python3
"""Run one gaussn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload criterion_scan --seed 3 --seconds 30 --trace 0

Run from anywhere inside a source checkout: the library is imported from the
checkout's ``src/`` and nowhere else.  The load is closed loop: one client in
one process, no threads, runs sweeps back to back (see workloads.py for what a
sweep is).  Output checks run after the timed loop.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see tracer.py) plus the tracing overhead.  Human
readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import os

# One thread everywhere, set before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

from tracer import EXACT, SELF_TIMES, Tracer
from workloads import WORKLOADS, sweep

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
MIN_SWEEPS = 11  # the tail percentile needs ten sweeps beyond it
MAX_FAILURE_LINES = 20
REPEAT = -1  # sweep id of the traced repeat of sweep 1
SPAN_BUDGET = 500_000  # the traced loop stops early past this many spans

# Calibration for machine speed.  The sizing machine's speed drifts by up to
# 1.8x over minutes (README.md), so raw wall times of runs a few minutes
# apart differ by more than any useful bound.  After every sweep, and after
# every set-up probe, the benchmark times a fixed reference kernel that does
# not touch gaussn, and scales the time measured next to it by
# REF_NOMINAL_S / (reference time): figures are in milliseconds at the
# reference kernel's median speed on the sizing machine.  Raw figures are
# printed beside them.
REF_NOMINAL_S = 0.010
REF_WINDOW = 9  # sweeps: a rolling median of reference times smooths its noise


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_gaussn():
    """Import gaussn from this checkout's src/."""
    if not (SRC / "gaussn" / "__init__.py").is_file():
        raise BenchmarkError(f"no gaussn sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gaussn
    import gaussn.cli

    if Path(gaussn.__file__).resolve().parent != (SRC / "gaussn").resolve():
        raise BenchmarkError(f"imported gaussn from {gaussn.__file__}, not from {SRC}")
    return gaussn


def cold_import_s() -> float:
    """Median over 3 fresh interpreters of the time to import gaussn and its CLI.

    Timed in a child: this process has already loaded standard-library
    modules that gaussn would otherwise import itself.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import gaussn, gaussn.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(3):
        try:
            out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                                 text=True, timeout=PROBE_TIMEOUT_S, check=True)
            times.append(float(out.stdout))
        except (subprocess.SubprocessError, ValueError) as exc:
            raise BenchmarkError(f"import probe failed: {exc}") from None
    return statistics.median(times)


@dataclass
class Outcome:
    op: object
    rc: int | None
    output: object  # stdout text of a CLI command, or a library call's value
    error: str | None  # exception type and message
    stderr: str
    warnings: list


def run_op(gaussn, op) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    rc, output, error = None, None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            if op.argv is not None:
                rc = gaussn.cli.main(list(op.argv))
                output = out.getvalue()
            else:
                output = op.call(gaussn)
                rc = 0
        except Exception as exc:  # every failure is counted and named, never raised
            error = f"{type(exc).__name__}: {exc}"
    return Outcome(op, rc, output, error, err.getvalue(), [str(w.message) for w in caught])


def run_sweep(gaussn, ops) -> list[Outcome]:
    return [run_op(gaussn, op) for op in ops]


def reference_kernel() -> float:
    """Wall time of fixed work independent of gaussn: a Python loop and a numpy pass."""
    import numpy as np  # imported by gaussn already; importing it first would hide its cost

    t0 = time.perf_counter()
    s = 0
    for i in range(100_000):
        s += i * i % 7
    float(np.exp(np.sin(np.arange(20_000.0))).sum())
    return time.perf_counter() - t0


def calibrated(times, refs):
    """Scale each time to the nominal reference speed, using the rolling
    median of the reference times measured around it."""
    half = REF_WINDOW // 2
    return [
        t * REF_NOMINAL_S / statistics.median(refs[max(0, i - half):i + half + 1])
        for i, t in enumerate(times)
    ]


def timed_loop(gaussn, workload, seed, seconds, on_sweep=None, enough=None):
    """Run sweeps 1, 2, ... until ``seconds`` have passed or ``enough()`` holds,
    and at least MIN_SWEEPS ran; time the reference kernel after each sweep.

    Returns (sweep latencies in s, reference times in s, [(index, outcomes)]).
    """
    latencies, refs, sweeps = [], [], []
    gc.collect()
    start = time.perf_counter()
    index = 0
    while True:
        index += 1
        ops = sweep(workload, seed, index)
        if on_sweep:
            on_sweep(index)
        t0 = time.perf_counter()
        outcomes = run_sweep(gaussn, ops)
        latencies.append(time.perf_counter() - t0)
        refs.append(reference_kernel())
        sweeps.append((index, outcomes))
        elapsed = time.perf_counter() - start
        if len(latencies) >= MIN_SWEEPS and (elapsed >= seconds or (enough and enough())):
            return latencies, refs, sweeps


def judge(gaussn, outcome, memo) -> str | None:
    """None when the op exited 0 and its output passed its check."""
    if outcome.error is not None:
        return f"exception {outcome.error}"
    if outcome.rc != 0:
        return f"exit {outcome.rc}: {outcome.stderr.strip()[:200]}"
    key = (outcome.op.label, outcome.output if isinstance(outcome.output, str) else repr(outcome.output))
    if key not in memo:
        try:
            memo[key] = outcome.op.check(outcome.output, gaussn)
        except Exception as exc:  # a malformed output can break a check
            memo[key] = f"check raised {type(exc).__name__}: {exc}"
    return memo[key]


def account(gaussn, sweeps, phase, failures, memo) -> tuple[int, int, int]:
    """Judge every op; returns (sweeps attempted, sweeps failed, warnings)."""
    failed = n_warnings = 0
    for index, outcomes in sweeps:
        bad = False
        for o in outcomes:
            n_warnings += len(o.warnings)
            reason = judge(gaussn, o, memo)
            if reason is not None:
                bad = True
                failures.append(f"{phase} sweep {index}: {o.op.label!r} seed={o.op.seed}: {reason}")
        failed += bad
    return len(sweeps), failed, n_warnings


def tail(latencies):
    """(value, percentile): the highest percentile with ten sweeps beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_probe_times(workload, seed) -> tuple[list[float], list[float]]:
    """Cold set-up, several times: new process, import gaussn, one warm-up sweep.

    Returns the probe times and the reference time measured after each.
    """
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchmarkError("set-up probe timed out") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
        times.append(elapsed)
        refs.append(statistics.median(reference_kernel() for _ in range(3)))
    return times, refs


def setup_probe(workload, seed) -> int:
    gaussn = import_gaussn()
    outcomes = run_sweep(gaussn, sweep(workload, seed, 0))
    broken = [o for o in outcomes if o.error is not None]
    if broken:
        print(f"warm-up failed: {broken[0].op.label}: {broken[0].error}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workload, gaussn):
    setup_raw, setup_refs = setup_probe_times(workload, args.seed)
    setup = [t * REF_NOMINAL_S / r for t, r in zip(setup_raw, setup_refs)]
    failures, memo = [], {}
    warm = run_sweep(gaussn, sweep(workload, args.seed, 0))
    raw, refs, sweeps = timed_loop(gaussn, workload, args.seed, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux
    _, warm_failed, _ = account(gaussn, [(0, warm)], "warm-up", failures, memo)
    attempted, failed, n_warnings = account(gaussn, sweeps, "timed", failures, memo)
    latencies = calibrated(raw, refs)
    tail_value, tail_pct = tail(latencies)
    ok = attempted - failed
    print(f"{workload} seed {args.seed}: {attempted} sweeps of {len(sweeps[0][1])} commands in "
          f"{sum(raw):.3f} s (closed loop, 1 client, 1 process)")
    print(f"machine speed: reference kernel median {1e3 * statistics.median(refs):.3f} ms "
          f"(nominal {1e3 * REF_NOMINAL_S:g} ms); times below are calibrated to the nominal speed")
    print(f"{workload}/setup_s = {statistics.median(setup):.4f} s "
          f"(median of {len(setup)} cold starts; raw: {', '.join(f'{t:.3f}' for t in setup_raw)})")
    print(f"{workload}/ops_per_s = {attempted / sum(latencies):.4f} op/s "
          f"(one op = one sweep; raw {attempted / sum(raw):.4f})")
    print(f"{workload}/latency_p50_ms = {1e3 * statistics.median(latencies):.3f} ms "
          f"(raw {1e3 * statistics.median(raw):.3f})")
    print(f"{workload}/latency_tail_ms = {1e3 * tail_value:.3f} ms (p{tail_pct:.1f} of {attempted} sweeps; "
          f"raw {1e3 * tail(raw)[0]:.3f})")
    print(f"{workload}/peak_rss_mb = {rss_mb:.1f} MB")
    print(f"{workload}/ok_frac = {ok / attempted:.4f} ratio ({ok}/{attempted} sweeps ok)")
    report_failures(failures, n_warnings, sweeps)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "ops_per_s": metric(attempted / sum(latencies), "op/s"),
        "latency_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": metric(1e3 * tail_value, "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "ok_frac": metric(ok / attempted, "ratio"),
    }
    return failed == 0 and warm_failed == 0, attempted, failed, metrics


def report_failures(failures, n_warnings, sweeps):
    print(f"warnings: {n_warnings} (counted, not failed)")
    if n_warnings:
        first = next(o for _, outs in sweeps for o in outs if o.warnings)
        print(f"  first: {first.op.label!r} seed={first.op.seed}: {first.warnings[0]}")
    print(f"failed ops: {len(failures)}")
    for line in failures[:MAX_FAILURE_LINES]:
        print(f"  {line}")
    if len(failures) > MAX_FAILURE_LINES:
        print(f"  ... {len(failures) - MAX_FAILURE_LINES} more")


def traced(args, workload, gaussn):
    """Half the time untraced, half traced, then sweep 1 again under tracemalloc."""
    import_s = cold_import_s()
    failures, memo = [], {}
    warm = run_sweep(gaussn, sweep(workload, args.seed, 0))
    half = args.seconds / 2.0
    plain_raw, plain_refs, plain = timed_loop(gaussn, workload, args.seed, half)

    tracer = Tracer()
    tracer.install()
    try:
        traced_raw, traced_refs, traced_sweeps = timed_loop(
            gaussn, workload, args.seed, half,
            on_sweep=lambda i: setattr(tracer, "sweep", i),
            enough=lambda: len(tracer.names) >= SPAN_BUDGET,
        )
        tracer.sweep = REPEAT  # sweep 1 again
        tracemalloc.start()
        try:
            repeat = run_sweep(gaussn, sweep(workload, args.seed, 1))
        finally:
            tracemalloc.stop()
    finally:
        tracer.uninstall()

    _, warm_failed, _ = account(gaussn, [(0, warm)], "warm-up", failures, memo)
    phases = (("untraced", plain), ("traced", traced_sweeps), ("repeat", [(1, repeat)]))
    attempted = failed = n_warnings = 0
    for phase, sweeps in phases:
        a, f, w = account(gaussn, sweeps, phase, failures, memo)
        attempted, failed, n_warnings = attempted + a, failed + f, n_warnings + w

    first, again = tracer.sweep_counts(1), tracer.sweep_counts(REPEAT)
    mismatched = [k for k in first if first[k] != again[k]]
    for key in mismatched:
        failures.append(f"count {key} differs between two runs of sweep 1: {first[key]} vs {again[key]}")

    loop_ids = [i for i, _ in traced_sweeps]
    self_ms = tracer.self_ms_per_sweep(loop_ids)
    plain_ops = len(plain) / sum(calibrated(plain_raw, plain_refs))
    traced_ops = len(traced_sweeps) / sum(calibrated(traced_raw, traced_refs))
    values = {"import.gaussn_s": (import_s, "s")}
    values.update({f"{name}.self_ms": (self_ms.get(name, 0.0), "ms") for name in SELF_TIMES})
    values["quadrature.self_ms"] = (
        sum((t for name, t in self_ms.items() if name.startswith("quadrature.")), 0.0), "ms")
    for key, count in first.items():
        if key != "criterion.minimal_n.calls":
            values[key] = (count, "B" if key.endswith("_bytes_computed") else "count")
    minimal_n_calls = first["criterion.minimal_n.calls"]
    values["criterion.ratio_evals_per_answer"] = (
        first["criterion.remainder_ratio.calls"] / minimal_n_calls if minimal_n_calls else 0.0, "ratio")
    warned = sum(tracer.counts.get(i, {}).get("models.ml_estimate.ambiguous_warnings", 0) for i in loop_ids)
    values["models.ml_estimate.ambiguous_warnings"] = (warned / len(loop_ids), "count")
    values["posterior.peak_alloc_mb"] = (tracer.peak_alloc_mb, "MB")
    values["trace.untraced_ops_per_s"] = (plain_ops, "op/s")
    values["trace.traced_ops_per_s"] = (traced_ops, "op/s")
    values["trace.overhead_ratio"] = (plain_ops / traced_ops, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans_{workload}.csv.gz"
    tracer.write_spans(spans_path)

    print(f"{workload} seed {args.seed} traced: {len(plain)} untraced sweeps in {sum(plain_raw):.3f} s, "
          f"{len(traced_sweeps)} traced sweeps in {sum(traced_raw):.3f} s, {len(tracer.names)} spans "
          f"written to {spans_path.relative_to(ROOT)}")
    print("counts are exact counts of sweep 1 (checked on a second run of it); self_ms is the raw "
          "mean per traced sweep; ops/s are calibrated to the reference kernel's nominal speed")
    for key, (value, unit) in values.items():
        print(f"{workload}/{key} = {value:.6g} {unit}" if isinstance(value, float) else f"{workload}/{key} = {value} {unit}")
    print(f"tracing overhead: {plain_ops:.4f} op/s untraced vs {traced_ops:.4f} op/s traced "
          f"(x{plain_ops / traced_ops:.3f})")
    print(f"exact counts repeat: {'yes' if not mismatched else 'NO'} ({', '.join(EXACT)})")
    report_failures(failures, n_warnings, plain + traced_sweeps + [(1, repeat)])
    metrics = {key: metric(value, unit) for key, (value, unit) in values.items()}
    return failed == 0 and warm_failed == 0 and not mismatched, attempted, failed, metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = args.workload
    try:
        if args.setup_probe:
            return setup_probe(workload, args.seed)
        gaussn = import_gaussn()
        if args.trace:
            correct, attempted, failed, metrics = traced(args, workload, gaussn)
        else:
            correct, attempted, failed, metrics = end_to_end(args, workload, gaussn)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for m in metrics.values():
        if isinstance(m["value"], float) and not math.isfinite(m["value"]):
            print("benchmark error: a metric is not finite", file=sys.stderr)
            return 2
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
