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

Each carrier record declares its order (``order``: 3 for chi2log, 4 for
gauss and trig; binom reads its trig carrier's), and |H^(k)|_max comes from
the carrier's closed forms, so nothing in this module runs quadrature.

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
from .errors import InputError, UnsupportedModelError
from .models import ModelId, ModelSpec, _check_count

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
N_MAX = 10**6  # minimal_n gives up past this N


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


@lru_cache(maxsize=None)
def detect_remainder_order(model: ModelSpec) -> int:
    """The order of the Taylor remainder of H at 0, as the carrier declares it.

    4 where H is even and smooth at 0 (gauss, trig, and binom through its
    trig carrier), 3 otherwise (chi2log).  Declared rather than inferred
    from H, it also holds where H is even with a kink at 0, such as the
    Laplace shift family's -(|d| + e^(-|d|) - 1), whose remainder |d|^3 / 6
    is third order.  A record that declares neither 3 nor 4 raises
    UnsupportedModelError.
    """
    order = model._family.carrier.order
    if order not in (3, 4):
        raise UnsupportedModelError(f"{model.id.value} declares no remainder order of 3 or 4")
    return order


def _remainder_terms(model: ModelSpec, n: int) -> tuple[float, float, float, int, float, float]:
    """(fisher, sigma, halfwidth, order, h_max, raw ratio) at sample size ``n``."""
    if n < 1:
        raise InputError("sample size must be at least 1")
    f = model.analytic_fisher
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
    _check_count(n, "sample size")
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
) -> int:
    """Smallest N whose (mode-effective) ratio is at or below the threshold.

    The window width, and with it |H^(k)|_max, changes with N, so the scan
    walks N upward one step at a time, and its cost is linear in the answer:
    160 ratio evaluations for chi2log at the default threshold, but 9,642 at
    threshold 0.01 and 10,601 at 0.01 in strict mode.  Past ``N_MAX`` it
    stops with ``InputError``, so ``criterion --model chi2log --threshold
    0.0003 --mode strict`` exits 2.  Inverting the criterion in closed form
    would lift the cap; ROADMAP item 3 says why that waits.
    """
    _check_threshold(threshold, mode)
    for n in range(1, N_MAX + 1):
        if _effective(remainder_ratio(model, n), mode) <= threshold:
            return n
    raise InputError(f"no N at or below {N_MAX} satisfies the criterion")


def table_rows(model: ModelSpec, n_values) -> list[tuple[int, float, float]]:
    """(n, raw ratio, ratio rounded to 3 decimals) for each requested n."""
    ns = [_check_count(n, "sample size") for n in n_values]
    if not ns:
        raise InputError("n_values must not be empty")
    rows = []
    for n in ns:
        raw = remainder_ratio(model, n)
        rows.append((n, raw, round(raw, 3)))
    return rows
