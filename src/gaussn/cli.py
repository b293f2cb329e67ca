"""Command-line surface: fisher, criterion, table, posterior, verify.

Every command emits a machine-readable envelope (JSON, or CSV where the
payload is tabular).  Output is byte-stable for fixed inputs: floats are
rendered with 17 significant digits, JSON keys are sorted, CSV uses LF
line endings and a dot decimal separator.

Exit codes: 0 success, 1 verification failure, 2 usage error (or a request
too large to allocate), 3 numerical failure (fisher also exits 3 when its
two forms differ by more than 1e-3 of the larger).  Only fisher and verify
run quadrature, and take --quad-tol to override its tolerances.  No module
reads the environment: an envelope depends on the arguments alone.  Only
gauss takes a --sigma other than 1; the other models have no length scale.
criterion in paper_rounding mode warns on stderr, and still exits 0, below a
threshold of 5e-3, where rounding can pass a ratio well over the threshold.

criterion, table and verify --suite table1 read closed forms and run
without numpy; fisher, posterior and the quadrature verify suites import
it on their first numeric step.

``main(argv)`` may be called any number of times in one process.  It builds
its argument parser on the first call and reuses it for every later one,
and each call prints the same bytes and returns the same exit code as the
same command in a fresh process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .criterion import ROUNDING_STEP, criterion_report, minimal_n, table_rows
from .divergence import h_closed_form, h_functional
from .errors import InputError, NumericalError
from .information import (
    default_probe_points,
    fisher_curvature_form,
    fisher_gradient_form,
    prior_measure,
)
from .models import ModelId, make_model, ml_estimate, sample
from .posterior import compare_to_gaussian, gaussian_reference, posterior_from_observations
from .quadrature import QuadratureConfig

MODEL_NAMES = tuple(m.value for m in ModelId)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# Relative to the larger, two Fisher forms further apart than this are not
# both right (an underflowed score, a loose quadrature): fisher exits 3.
FISHER_AGREEMENT = 1e-3

# Reference table for the chi2log criterion ratio, rounded to 3 decimals.
TABLE1_GOLDEN = (
    (3, 3.263), (4, 2.241), (5, 1.711), (10, 0.817), (20, 0.437),
    (30, 0.316), (40, 0.254), (50, 0.216), (75, 0.163), (100, 0.135),
    (150, 0.104), (155, 0.102), (160, 0.100), (165, 0.098),
)


def _jdump(obj) -> str:
    """Canonical JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(int(obj))
    if isinstance(obj, float):  # numpy's float64 too
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_jdump(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_jdump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _envelope(command: str, model: str | None, parameters: dict, results: dict) -> str:
    return _jdump(
        {
            "command": command,
            "model": model,
            "parameters": parameters,
            "results": results,
            "tool_version": __version__,
        }
    ) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _quad_config(args) -> QuadratureConfig | None:
    return None if args.quad_tol is None else QuadratureConfig(args.quad_tol, args.quad_tol)


def cmd_fisher(args) -> int:
    model = make_model(args.model, args.sigma)
    cfg = _quad_config(args)
    grad = fisher_gradient_form(model, args.xi, cfg)
    curv = fisher_curvature_form(model, args.xi, cfg)
    if abs(grad - curv) > FISHER_AGREEMENT * max(abs(grad), abs(curv)):
        raise NumericalError(
            f"the Fisher forms disagree at xi={args.xi!r}: gradient_form {grad!r}, "
            f"curvature_form {curv!r} (more than {FISHER_AGREEMENT} of the larger apart)"
        )
    text = _envelope(
        "fisher",
        model.id.value,
        {"xi": args.xi, "sigma": model.sigma_param},
        {
            "gradient_form": grad,
            "curvature_form": curv,
            "discrepancy": abs(grad - curv),
            "prior_measure": prior_measure(model),
        },
    )
    _emit(text, args.out)
    return EXIT_OK


def cmd_criterion(args) -> int:
    model = make_model(args.model, args.sigma)
    n_min = minimal_n(model, args.threshold, args.mode)
    report = criterion_report(model, n_min, args.threshold, args.mode)
    if args.mode == "paper_rounding" and args.threshold < 10 * ROUNDING_STEP:
        print(f"warning: paper_rounding passes a raw ratio up to {ROUNDING_STEP} over threshold "
              f"{args.threshold!r}; --mode strict compares the raw ratio", file=sys.stderr)
    text = _envelope(
        "criterion",
        model.id.value,
        {"threshold": args.threshold, "mode": args.mode, "sigma": model.sigma_param},
        {
            "minimal_n": n_min,
            "report": {
                "n": report.n,
                "fisher": report.fisher,
                "sigma": report.sigma,
                "halfwidth": report.halfwidth,
                "remainder_order": report.remainder_order,
                "h_max": report.h_max,
                "ratio": report.ratio,
                "ratio_raw": report.ratio_raw,
                "threshold": report.threshold,
                "passes": report.passes,
            },
        },
    )
    _emit(text, args.out)
    return EXIT_OK


def _parse_n_list(text: str) -> list[int]:
    try:
        ns = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise InputError(f"bad N list {text!r}: expected comma-separated integers") from exc
    if not ns or any(n < 1 for n in ns):
        raise InputError("N list must contain positive integers")
    return ns


def cmd_table(args) -> int:
    model = make_model(args.model, args.sigma)
    rows = table_rows(model, _parse_n_list(args.n))
    if args.format == "csv":
        lines = ["N,ratio_raw,ratio_3dp"]
        for n, raw, rounded in rows:
            lines.append(f"{n},{format(raw, '.17g')},{rounded:.3f}")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    text = _envelope(
        "table",
        model.id.value,
        {"n": [n for n, _, _ in rows]},
        {
            "rows": [
                {"n": n, "ratio_raw": raw, "ratio_3dp": rounded} for n, raw, rounded in rows
            ]
        },
    )
    _emit(text, args.out)
    return EXIT_OK


def cmd_posterior(args) -> int:
    model = make_model(args.model, args.sigma)
    obs = sample(model, args.xi_true, args.n, args.seed)
    xi_ml = ml_estimate(model, obs)
    post = posterior_from_observations(model, obs, args.grid_size, xi_ml=xi_ml)
    ref = gaussian_reference(xi_ml, model.analytic_fisher, obs.n, grid=post.xi_values)
    report = compare_to_gaussian(post, ref)
    companion = criterion_report(model, obs.n)
    if args.grid_out:
        lines = ["xi,density,gaussian_density"]
        for x, d, g in zip(post.xi_values, post.densities, ref.densities):
            lines.append(f"{format(x, '.17g')},{format(d, '.17g')},{format(g, '.17g')}")
        _emit("\n".join(lines) + "\n", args.grid_out)
    text = _envelope(
        "posterior",
        model.id.value,
        {
            "xi_true": args.xi_true,
            "n": args.n,
            "seed": args.seed,
            "grid_size": args.grid_size,
            "sigma": model.sigma_param,
        },
        {
            "xi_ml": xi_ml,
            "sup_log_deviation": report.sup_log_deviation,
            "kl_to_gaussian": report.kl_to_gaussian,
            "interval": list(report.interval),
            "criterion": {
                "n": companion.n,
                "ratio": companion.ratio,
                "threshold": companion.threshold,
                "passes": companion.passes,
            },
        },
    )
    _emit(text, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: cross-module invariant suite
# ---------------------------------------------------------------------------


def _verify_fisher(cfg):
    checks = []
    for name in MODEL_NAMES:
        model = make_model(name, sigma=2.0 if name == "gauss" else 1.0)
        expected = model.analytic_fisher
        probes = default_probe_points(model, count=3)
        for form, fn in (("gradient", fisher_gradient_form), ("curvature", fisher_curvature_form)):
            got = fn(model, probes[0], cfg)
            checks.append(
                (f"fisher.{name}.{form}", abs(got - expected) <= 1e-5,
                 f"got {got:.9g}, expected {expected:.9g}")
            )
        g1 = fisher_gradient_form(model, probes[-1], cfg)
        checks.append(
            (f"fisher.{name}.xi_independence", abs(g1 - expected) <= 1e-5,
             f"probe {probes[-1]:.4g} gave {g1:.9g}")
        )
    return checks


def _verify_h(cfg):
    checks = []
    for name, reach in (("chi2log", 2.0), ("gauss", 2.0), ("trig", 1.4)):
        model = make_model(name)
        step = 2.0 * reach / 8
        deltas = [-reach + k * step for k in range(8)] + [reach]  # numpy's linspace, bit for bit
        worst = 0.0
        nonpos = True
        for d in deltas:
            ev = h_functional(model, d, cfg)
            worst = max(worst, abs(ev.value - h_closed_form(model, d)))
            if ev.value > 0.0 or (d != 0.0 and ev.value == 0.0):
                nonpos = False
        checks.append(
            (f"h.{name}.closed_form_agreement", worst <= 1e-7, f"max deviation {worst:.3e}")
        )
        checks.append((f"h.{name}.nonpositive", nonpos, "H <= 0 with equality only at 0"))
    return checks


def _verify_table1(cfg):
    model = make_model("chi2log")
    rows = table_rows(model, [n for n, _ in TABLE1_GOLDEN])
    matched = sum(
        1 for (n, _, r3), (_, want) in zip(rows, TABLE1_GOLDEN) if abs(r3 - want) < 5e-4
    )
    ok = matched == len(TABLE1_GOLDEN)
    return [("table1.rows", ok, f"{matched}/{len(TABLE1_GOLDEN)} rows matched")]


VERIFY_SUITES = {
    "fisher": _verify_fisher,
    "h": _verify_h,
    "table1": _verify_table1,
}


def cmd_verify(args) -> int:
    cfg = _quad_config(args)
    names = list(VERIFY_SUITES) if args.suite == "all" else [args.suite]
    checks = []
    for name in names:
        checks.extend(VERIFY_SUITES[name](cfg))
    failed = [c for c in checks if not c[1]]
    if args.format == "json":
        text = _envelope(
            "verify",
            None,
            {"suite": args.suite},
            {
                "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
                "passed": len(checks) - len(failed),
                "failed": len(failed),
            },
        )
        _emit(text, args.out)
    else:
        lines = []
        for n, ok, d in checks:
            lines.append(f"{'PASS' if ok else 'FAIL'} {n}: {d}")
        lines.append(f"{len(checks) - len(failed)}/{len(checks)} checks passed")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p, model=True, quadrature=False):
    if model:
        p.add_argument("--model", required=True, choices=MODEL_NAMES)
        p.add_argument("--sigma", type=float, default=1.0, help="length scale of gauss (others take 1)")
    if quadrature:
        p.add_argument("--quad-tol", type=float, default=None, help="override quadrature tolerances")
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussn",
        description="Minimal observation count for a Gaussian posterior approximation",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fisher", help="Fisher information by both definitions")
    _add_common(p, quadrature=True)
    p.add_argument("--xi", type=float, default=0.0)
    p.set_defaults(fn=cmd_fisher)

    p = sub.add_parser("criterion", help="minimal N for the Gaussian approximation")
    _add_common(p)
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--mode", choices=("paper_rounding", "strict"), default="paper_rounding")
    p.set_defaults(fn=cmd_criterion)

    p = sub.add_parser("table", help="remainder ratios for a list of N")
    _add_common(p)
    p.add_argument("--n", required=True, help="comma-separated sample sizes")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("posterior", help="sampled posterior vs Gaussian reference")
    _add_common(p)
    p.add_argument("--xi-true", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid-size", type=int, default=2001)
    p.add_argument("--grid-out", default=None, help="dump the grid as CSV to this path")
    p.set_defaults(fn=cmd_posterior)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    _add_common(p, model=False, quadrature=True)
    p.add_argument("--suite", choices=("all",) + tuple(VERIFY_SUITES), default="all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'the request is too large'}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
