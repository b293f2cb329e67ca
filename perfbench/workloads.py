"""The benchmark's workloads: fixed command lists, run one sweep at a time.

One op of a workload is one *sweep*: a pass over its whole command list.
Command costs inside a list span 1.5 ms to 120 ms, so a per-command latency
median lands on the boundary between command kinds and jumps between runs;
a sweep's latency does not.  The workload seed fixes the order of the
commands in every sweep and, for ``posterior_sampled``, the sampler seed of
every command.

Every check here is independent of the code it checks: remainder ratios,
Fisher constants, derivatives and maximum-likelihood estimates are
recomputed from the closed forms in the paper (the trig estimate, which has
none, is held against a dense likelihood scan), and the reference table is
copied from it.  Checks return ``None`` for a correct output and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# Reference table of the chi2log criterion ratio, rounded to 3 decimals.
TABLE1 = (
    (3, "3.263"), (4, "2.241"), (5, "1.711"), (10, "0.817"), (20, "0.437"),
    (30, "0.316"), (40, "0.254"), (50, "0.216"), (75, "0.163"), (100, "0.135"),
    (150, "0.104"), (155, "0.102"), (160, "0.100"), (165, "0.098"),
)
# Published minimal N at threshold 0.1, keyed by (model, mode).
PUBLISHED_MINIMAL_N = {
    ("chi2log", "paper_rounding"): 160,
    ("chi2log", "strict"): 161,
    ("trig", "paper_rounding"): 8,
    ("binom", "paper_rounding"): 8,
    ("gauss", "paper_rounding"): 1,
}
FISHER = {"chi2log": 1.0, "gauss": 1.0, "trig": 4.0, "binom": 4.0}  # sigma = 1
FISHER_TOL = 1e-5
# Finite differences of order 3 and 4 carry truncation error; the library's
# own test suite holds them to 1e-3 absolute, and so does the benchmark.
DERIVATIVE_TOL = 1e-3
ML_TOL = 1e-12
POSTERIOR_XI_TRUE = 0.3


@dataclass(frozen=True)
class Op:
    """One command of a sweep: a CLI argv or a library call, and its check."""

    label: str
    check: Callable  # (output, gaussn package) -> None or a reason
    argv: tuple[str, ...] | None = None  # run as gaussn.cli.main(argv)
    call: Callable | None = None  # run as call(gaussn package)
    seed: int | None = None


def _cli(argv, check, seed=None) -> Op:
    return Op(label=" ".join(argv), check=check, argv=tuple(argv), seed=seed)


def _json_results(text):
    try:
        return json.loads(text)["results"]
    except (ValueError, KeyError, TypeError) as exc:
        raise _CheckFailed(f"output is not a JSON envelope: {exc}") from None


class _CheckFailed(Exception):
    pass


def _checked(fn):
    """Turn a check that raises _CheckFailed into one that returns the reason."""

    def check(output, gaussn):
        try:
            fn(output, gaussn)
        except _CheckFailed as exc:
            return str(exc)
        return None

    return check


def _expect(cond, reason):
    if not cond:
        raise _CheckFailed(reason)


def _close(got, want, rel):
    return abs(got - want) <= rel * max(1.0, abs(want))


def _is_number(x):
    # The envelope prints an integral float without a decimal point.
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# ---------------------------------------------------------------------------
# criterion_scan
# ---------------------------------------------------------------------------


def reference_ratio(model: str, n: int) -> float:
    """Remainder-to-quadratic ratio from the closed forms of H.

    chi2log: |H'''| = e^delta peaks at the window edge 3/sqrt(N) (F = 1),
    so r3 = e^(3/sqrt N) / sqrt N.  trig and binom: |H''''| <= 16 with
    F = 4, so r4 = 3*16 / (4 N 16).  gauss: H is exactly quadratic.
    """
    if model == "chi2log":
        return math.exp(3.0 / math.sqrt(n)) / math.sqrt(n)
    if model in ("trig", "binom"):
        return 3.0 * 16.0 / (4.0 * n * 16.0)
    return 0.0


def _effective(raw, mode):
    return round(raw, 3) if mode == "paper_rounding" else raw


def _criterion_check(model, threshold, mode):
    @_checked
    def check(text, gaussn):
        res = _json_results(text)
        n = res["minimal_n"]
        _expect(isinstance(n, int) and n >= 1, f"minimal_n {n!r} is not a positive integer")
        _expect(
            _effective(reference_ratio(model, n), mode) <= threshold,
            f"ratio at minimal_n={n} is above the threshold {threshold}",
        )
        _expect(
            n == 1 or _effective(reference_ratio(model, n - 1), mode) > threshold,
            f"minimal_n={n} is not minimal: N={n - 1} already passes",
        )
        if threshold == 0.1:
            want = PUBLISHED_MINIMAL_N[(model, mode)]
            _expect(n == want, f"minimal_n={n}, published {want}")
        report = res["report"]
        _expect(report["n"] == n and report["passes"] is True, "report does not pass at minimal_n")
        _expect(
            _close(report["ratio_raw"], reference_ratio(model, n), 1e-12),
            f"report ratio_raw {report['ratio_raw']!r} != {reference_ratio(model, n)!r}",
        )

    return check


@_checked
def _table_check(text, gaussn):
    lines = text.splitlines()
    _expect(lines and lines[0] == "N,ratio_raw,ratio_3dp", "table header missing")
    rows = [line.split(",") for line in lines[1:]]
    _expect(len(rows) == len(TABLE1), f"{len(rows)} table rows, expected {len(TABLE1)}")
    for (n_text, raw_text, r3_text), (n, want) in zip(rows, TABLE1):
        _expect(int(n_text) == n, f"row for N={n_text}, expected N={n}")
        _expect(r3_text == want, f"N={n}: ratio_3dp {r3_text}, reference {want}")
        _expect(_close(float(raw_text), reference_ratio("chi2log", n), 1e-12), f"N={n}: ratio_raw {raw_text}")


def _criterion_commands(seed, index):
    ops = []
    for threshold in ("0.1", "0.03", "0.01"):
        for mode in ("paper_rounding", "strict"):
            argv = ["criterion", "--model", "chi2log", "--threshold", threshold, "--mode", mode]
            ops.append(_cli(argv, _criterion_check("chi2log", float(threshold), mode)))
    for sigma in ("0.5", "2"):
        argv = ["criterion", "--model", "gauss", "--sigma", sigma]
        ops.append(_cli(argv, _criterion_check("gauss", 0.1, "paper_rounding")))
    for model in ("trig", "binom"):
        for threshold in ("0.1", "0.001"):
            argv = ["criterion", "--model", model, "--threshold", threshold]
            ops.append(_cli(argv, _criterion_check(model, float(threshold), "paper_rounding")))
    ns = ",".join(str(n) for n, _ in TABLE1)
    ops.append(_cli(["table", "--model", "chi2log", "--n", ns], _table_check))
    return ops


# ---------------------------------------------------------------------------
# quadrature_fisher_h
# ---------------------------------------------------------------------------


def _fisher_check(model):
    @_checked
    def check(text, gaussn):
        res = _json_results(text)
        for form in ("gradient_form", "curvature_form"):
            got = res[form]
            _expect(
                _is_number(got) and abs(got - FISHER[model]) <= FISHER_TOL,
                f"{form} {got!r} not within {FISHER_TOL} of {FISHER[model]}",
            )

    return check


@_checked
def _verify_check(text, gaussn):
    res = _json_results(text)
    _expect(res["failed"] == 0 and res["passed"] > 0, f"verify: {res['failed']} failed, {res['passed']} passed")


def _derivative_op(model, order, want):
    def call(gaussn):
        return gaussn.h_derivative_numeric(gaussn.make_model(model), order, 0.0)

    @_checked
    def check(value, gaussn):
        _expect(
            _is_number(value) and abs(value - want) <= DERIVATIVE_TOL,
            f"H^({order})(0) = {value!r}, closed form {want}",
        )

    return Op(label=f"h_derivative_numeric({model}, {order}, 0.0)", check=check, call=call)


def _quadrature_commands(seed, index):
    ops = []
    for model in ("chi2log", "gauss", "trig", "binom"):
        for xi in ("0.3", "1.1"):
            ops.append(_cli(["fisher", "--model", model, "--xi", xi], _fisher_check(model)))
    for suite in ("h", "fisher"):
        ops.append(_cli(["verify", "--suite", suite, "--format", "json"], _verify_check))
    # H = cos(2 delta) - 1 gives H''''(0) = 16; H = delta + 1 - e^delta gives H'''(0) = -1.
    ops.append(_derivative_op("trig", 4, 16.0))
    ops.append(_derivative_op("chi2log", 3, -1.0))
    return ops


# ---------------------------------------------------------------------------
# posterior_sampled
# ---------------------------------------------------------------------------

POSTERIOR_SIZES = (("chi2log", 5000), ("gauss", 5000), ("trig", 500), ("binom", 5000))


def closed_form_ml(model, xs):
    """Maximum-likelihood estimate from the closed forms (chi2log, gauss, binom)."""
    n = len(xs)
    if model == "chi2log":  # argmax of sum(x - xi - e^(x - xi)) is ln mean e^x
        top = max(xs)
        return top + math.log(math.fsum(math.exp(x - top) for x in xs)) - math.log(n)
    if model == "gauss":
        return math.fsum(xs) / n
    return math.acos(math.sqrt(math.fsum(xs) / n))  # binom: cos^2(xi) = share of ones


TRIG_SCAN = [-math.pi / 2 + math.pi * k / 3000 for k in range(3001)]


def trig_loglik(xs, xis):
    """sum_k ln cos^2(x_k - xi) at each xi (the constant ln(2/pi) dropped)."""
    import numpy as np  # not at module level: import.gaussn_s must include numpy

    x = np.asarray(xs, dtype=float)[:, None]
    with np.errstate(divide="ignore"):
        return np.sum(2.0 * np.log(np.abs(np.cos(x - np.asarray(xis)[None, :]))), axis=0)


def _posterior_check(model, n, seed):
    @_checked
    def check(text, gaussn):
        res = _json_results(text)
        xi_ml, kl = res["xi_ml"], res["kl_to_gaussian"]
        _expect(_is_number(kl) and math.isfinite(kl) and kl >= 0.0, f"KL {kl!r} not finite and >= 0")
        obs = gaussn.sample(gaussn.make_model(model), POSTERIOR_XI_TRUE, n, seed)
        if model == "trig":
            # No closed form, and the likelihood has a zero next to every
            # observation, so the maximum can sit several 1/sqrt(N F) away
            # from the truth.  It must beat every point of a dense scan.
            best = max(trig_loglik(obs.values, TRIG_SCAN))
            got = trig_loglik(obs.values, [xi_ml])[0]
            _expect(got >= best - 1e-9, f"xi_ml {xi_ml!r}: log-likelihood {got!r} below scan maximum {best!r}")
        else:
            want = closed_form_ml(model, obs.values)
            _expect(_close(xi_ml, want, ML_TOL), f"xi_ml {xi_ml!r} != closed form {want!r}")
        companion = res["criterion"]
        _expect(
            companion["n"] == n and companion["ratio"] == round(reference_ratio(model, n), 3),
            f"companion criterion {companion!r}",
        )

    return check


def command_seed(seed, index, k):
    """Sampler seed of the k-th posterior command of sweep ``index``."""
    return seed * 100_000 + index * len(POSTERIOR_SIZES) + k


def _posterior_commands(seed, index):
    ops = []
    for k, (model, n) in enumerate(POSTERIOR_SIZES):
        s = command_seed(seed, index, k)
        argv = ["posterior", "--model", model, "--xi-true", str(POSTERIOR_XI_TRUE),
                "--n", str(n), "--seed", str(s)]
        ops.append(_cli(argv, _posterior_check(model, n, s), seed=s))
    return ops


# Why each workload was chosen, and the layers it stresses and bypasses,
# are recorded in README.md beside the command lists.
WORKLOADS = {
    "criterion_scan": _criterion_commands,
    "quadrature_fisher_h": _quadrature_commands,
    "posterior_sampled": _posterior_commands,
}


def sweep(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of sweep ``index`` of ``workload``, in their seeded order."""
    ops = WORKLOADS[workload](seed, index)
    random.Random(seed * 1_000_003 + index).shuffle(ops)
    return ops
