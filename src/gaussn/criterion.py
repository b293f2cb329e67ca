"""The Taylor-remainder test deciding when the posterior is Gaussian enough.

After N observations the log posterior is N * H(delta) with
delta = xi_ml - xi.  Expanding H around delta = 0, the quadratic term
-(F/2) delta^2 is the Gaussian; the test asks whether the Lagrange
remainder stays one order of magnitude below the quadratic term everywhere
on the window |delta| <= 3 sigma / sqrt(N), sigma = F^(-1/2), which carries
99.73 percent of the Gaussian mass.

For a skewed model the remainder is third order and the ratio to compare
against the threshold is

    r3(N) = |H'''|_max / (sqrt(N) F^(3/2)),

with |H'''|_max taken over the window (so r3 still depends on N through the
window width).  A mirror-symmetric H has no third-order term; the remainder
is fourth order and

    r4(N) = 3 |H''''|_max / (4 N F^2).

The order is read off the carrier's closed H (``detect_remainder_order``),
so nothing in this module runs quadrature.

``paper_rounding`` mode compares the ratio after rounding to three decimals
(the convention of the published reference table, which makes N = 160 the
chi2log answer); ``strict`` compares the raw ratio (first true at N = 161).
Rounding makes every ratio below 5e-4 read 0.000, so ``paper_rounding``
refuses a threshold below that step; ``strict`` takes any threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

from .divergence import max_abs_derivative
from .errors import InputError
from .models import ModelId, ModelSpec

__all__ = [
    "CriterionReport",
    "Mode",
    "detect_remainder_order",
    "remainder_ratio",
    "criterion_report",
    "minimal_n",
    "table_rows",
]

Mode = Literal["strict", "paper_rounding"]
DEFAULT_THRESHOLD = 0.1
ROUNDING_STEP = 5e-4  # every ratio below this rounds to 0.000


@dataclass(frozen=True)
class CriterionReport:
    model: ModelId
    n: int
    fisher: float
    sigma: float
    halfwidth: float
    remainder_order: int
    h_max: float
    ratio: float  # mode-effective ratio; equals ratio_raw in strict mode
    ratio_raw: float
    threshold: float
    mode: str
    passes: bool


def _fisher(model: ModelSpec) -> float:
    return float(model.analytic_fisher)


@lru_cache(maxsize=None)
def _detect_cached(model: ModelSpec) -> int:
    family = model._family.carrier
    if abs(family.h_derivative(3, 0.0)) > 1e-4 * _fisher(model) ** 1.5:
        return 3
    for probe in (0.2, 0.45, 0.7):
        if abs(family.h(-probe) - family.h(probe)) > 1e-8:
            return 3
    return 4


def detect_remainder_order(model: ModelSpec) -> int:
    """4 when H is mirror symmetric with vanishing third derivative, else 3.

    Read off the carrier's closed forms, exact at any scale: 3 when
    |H'''(0)| > 1e-4 F^(3/2) or |H(-p) - H(p)| > 1e-8 at p = 0.2, 0.45 or
    0.7, else 4.  Like any test at these points it misses an H that is
    mirror symmetric but not C^3 at 0, such as the Laplace shift family's
    -(|d| + e^(-|d|) - 1), whose remainder is |d|^3 / 6.
    """
    return _detect_cached(model)


def _remainder_terms(model: ModelSpec, n: int) -> tuple[float, float, float, int, float, float]:
    """(fisher, sigma, halfwidth, order, h_max, raw ratio) at sample size ``n``."""
    if n < 1:
        raise InputError("sample size must be at least 1")
    f = _fisher(model)
    sigma = f**-0.5
    halfwidth = 3.0 * sigma / math.sqrt(n)
    order = detect_remainder_order(model)
    h_max = max_abs_derivative(model, order, halfwidth)
    if order == 3:
        raw = h_max / (math.sqrt(n) * f**1.5)
    else:
        raw = 3.0 * h_max / (4.0 * n * f**2)
    return f, sigma, halfwidth, order, h_max, raw


def remainder_ratio(model: ModelSpec, n: int) -> float:
    """Raw remainder-to-quadratic ratio at sample size ``n``."""
    return _remainder_terms(model, n)[-1]


def _check_threshold(threshold: float, mode: str):
    if not 0.0 < threshold < 1.0:
        raise InputError("threshold must lie in (0, 1)")
    if mode == "paper_rounding" and threshold < ROUNDING_STEP:
        raise InputError(
            f"threshold {threshold!r} is below {ROUNDING_STEP}: paper_rounding rounds the ratio "
            "to 3 decimals, so every ratio that rounds to 0.000 would pass; use --mode strict"
        )


def _effective(raw: float, mode: str) -> float:
    if mode == "paper_rounding":
        return round(raw, 3)
    if mode == "strict":
        return raw
    raise InputError(f"unknown mode {mode!r}")


def criterion_report(
    model: ModelSpec,
    n: int,
    threshold: float = DEFAULT_THRESHOLD,
    mode: Mode = "paper_rounding",
) -> CriterionReport:
    _check_threshold(threshold, mode)
    f, sigma, halfwidth, order, h_max, raw = _remainder_terms(model, n)
    eff = _effective(raw, mode)
    return CriterionReport(
        model=model.id,
        n=n,
        fisher=f,
        sigma=sigma,
        halfwidth=halfwidth,
        remainder_order=order,
        h_max=h_max,
        ratio=eff,
        ratio_raw=raw,
        threshold=threshold,
        mode=mode,
        passes=eff <= threshold,  # equality passes
    )


def minimal_n(
    model: ModelSpec,
    threshold: float = DEFAULT_THRESHOLD,
    mode: Mode = "paper_rounding",
    n_max: int = 10**6,
) -> int:
    """Smallest N whose (mode-effective) ratio is at or below the threshold.

    The window width, and with it |H^(k)|_max, changes with N, so the scan
    walks N upward one step at a time, and its cost is linear in the answer:
    160 ratio evaluations for chi2log at the default threshold, but 9,642 at
    threshold 0.01 and 10,601 at 0.01 in strict mode.  Past ``n_max`` it
    stops with ``InputError``, so ``criterion --model chi2log --threshold
    0.0003 --mode strict`` exits 2.  The search on a declared remainder
    order planned in ROADMAP.md would take logarithmic time and lift the cap.
    """
    _check_threshold(threshold, mode)
    for n in range(1, n_max + 1):
        if _effective(remainder_ratio(model, n), mode) <= threshold:
            return n
    raise InputError(f"no N at or below {n_max} satisfies the criterion")


def table_rows(model: ModelSpec, n_values) -> list[tuple[int, float, float]]:
    """(n, raw ratio, ratio rounded to 3 decimals) for each requested n."""
    ns = [int(n) for n in n_values]
    if not ns:
        raise InputError("n_values must not be empty")
    rows = []
    for n in ns:
        raw = remainder_ratio(model, n)
        rows.append((n, raw, round(raw, 3)))
    return rows
