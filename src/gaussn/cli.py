"""Command-line surface: fisher, criterion, table, posterior, verify.

Every command emits a machine-readable envelope (JSON, or CSV where the
payload is tabular).  Output is byte-stable for fixed inputs: floats are
rendered with 17 significant digits, JSON keys are sorted, CSV uses LF
line endings and a dot decimal separator.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure (fisher also exits 3 when its two forms differ by more than 1e-3 of
the larger).  For fisher and verify, the environment variable
GAUSSN_QUAD_TOL overrides the default quadrature tolerances, and their
--quad-tol flag overrides both.  criterion, table and posterior run no
quadrature and accept neither.

``main(argv)`` may be called any number of times in one process.  It builds
its argument parser on the first call and reuses it for every later one,
and each call prints the same bytes and returns the same exit code as the
same command in a fresh process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .criterion import criterion_report, minimal_n, table_rows
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


@dataclass(frozen=True)
class OutputEnvelope:
    command: str
    model: str | None
    parameters: dict
    results: dict
    tool_version: str = __version__


def _jdump(obj) -> str:
    """Canonical JSON: sorted keys, floats at 17 significant digits."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{_jdump(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_jdump(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def envelope_json(env: OutputEnvelope) -> str:
    return _jdump(
        {
            "command": env.command,
            "model": env.model,
            "parameters": env.parameters,
            "results": env.results,
            "tool_version": env.tool_version,
        }
    ) + "\n"


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _quad_config(args) -> QuadratureConfig | None:
    tol = args.quad_tol
    if tol is None:
        env = os.environ.get("GAUSSN_QUAD_TOL")
        if env is not None:
            try:
                tol = float(env)
            except ValueError as exc:
                raise InputError(f"GAUSSN_QUAD_TOL is not a number: {env!r}") from exc
    if tol is None:
        return None
    return QuadratureConfig(abs_tol=tol, rel_tol=tol)


def _model_from_args(args):
    return make_model(args.model, sigma=getattr(args, "sigma", 1.0))


def cmd_fisher(args) -> int:
    model = _model_from_args(args)
    cfg = _quad_config(args)
    xi = args.xi if args.xi is not None else 0.0
    grad = fisher_gradient_form(model, xi, cfg)
    curv = fisher_curvature_form(model, xi, cfg)
    if abs(grad - curv) > FISHER_AGREEMENT * max(abs(grad), abs(curv)):
        raise NumericalError(
            f"the Fisher forms disagree at xi={xi!r}: gradient_form {grad!r}, "
            f"curvature_form {curv!r} (more than {FISHER_AGREEMENT} of the larger apart)"
        )
    env = OutputEnvelope(
        command="fisher",
        model=model.id.value,
        parameters={"xi": xi, "sigma": model.sigma_param},
        results={
            "gradient_form": grad,
            "curvature_form": curv,
            "discrepancy": abs(grad - curv),
            "prior_measure": prior_measure(model),
        },
    )
    _emit(envelope_json(env), args.out)
    return EXIT_OK


def cmd_criterion(args) -> int:
    model = _model_from_args(args)
    n_min = minimal_n(model, args.threshold, args.mode)
    report = criterion_report(model, n_min, args.threshold, args.mode)
    env = OutputEnvelope(
        command="criterion",
        model=model.id.value,
        parameters={"threshold": args.threshold, "mode": args.mode, "sigma": model.sigma_param},
        results={
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
    _emit(envelope_json(env), args.out)
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
    model = _model_from_args(args)
    rows = table_rows(model, _parse_n_list(args.n))
    if args.format == "csv":
        lines = ["N,ratio_raw,ratio_3dp"]
        for n, raw, rounded in rows:
            lines.append(f"{n},{format(raw, '.17g')},{rounded:.3f}")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    env = OutputEnvelope(
        command="table",
        model=model.id.value,
        parameters={"n": [n for n, _, _ in rows]},
        results={
            "rows": [
                {"n": n, "ratio_raw": raw, "ratio_3dp": rounded} for n, raw, rounded in rows
            ]
        },
    )
    _emit(envelope_json(env), args.out)
    return EXIT_OK


def cmd_posterior(args) -> int:
    model = _model_from_args(args)
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
        with open(args.grid_out, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    env = OutputEnvelope(
        command="posterior",
        model=model.id.value,
        parameters={
            "xi_true": args.xi_true,
            "n": args.n,
            "seed": args.seed,
            "grid_size": args.grid_size,
            "sigma": model.sigma_param,
        },
        results={
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
    _emit(envelope_json(env), args.out)
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
    for name, deltas in (
        ("chi2log", np.linspace(-2.0, 2.0, 9)),
        ("gauss", np.linspace(-2.0, 2.0, 9)),
        ("trig", np.linspace(-1.4, 1.4, 9)),
    ):
        model = make_model(name)
        worst = 0.0
        nonpos = True
        for d in deltas:
            ev = h_functional(model, float(d), cfg)
            worst = max(worst, abs(ev.value - h_closed_form(model, float(d))))
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
        env = OutputEnvelope(
            command="verify",
            model=None,
            parameters={"suite": args.suite},
            results={
                "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
                "passed": len(checks) - len(failed),
                "failed": len(failed),
            },
        )
        _emit(envelope_json(env), args.out)
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
        p.add_argument("--sigma", type=float, default=1.0, help="sigma of the gauss model")
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
    p.add_argument("--xi", type=float, default=None)
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


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
