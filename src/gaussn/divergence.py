"""The expected log-likelihood-ratio functional H and its derivatives.

For a translation family p(x - xi), the expected per-observation log
likelihood relative to its maximum is

    H(delta) = integral  p(u) ln[ p(u + delta) / p(u) ] du,

the negative Kullback-Leibler divergence between the density at the
maximum-likelihood point and at a parameter a distance ``delta`` away.
The convention throughout this module is

    delta = xi_ml - xi,

and every derivative below is taken with respect to delta.  H is
nonpositive, vanishes at delta = 0, and its negative second derivative at
zero is the Fisher information.  The periodic trig and binom also have
H(+-pi) = cos 2 pi - 1 = 0, one period away, where quadrature gives
rounding of either sign (+6.1e-17).

The closed forms live in the family records of ``models`` (validated
against quadrature by the test suite): H = delta + 1 - e^delta (chi2log),
-delta^2 / (2 sigma^2) (gauss) and cos(2 delta) - 1 (trig).  The binomial
model uses the H of its trigonometric carrier.  The two share their Fisher
information (H''(0) = -4 at every xi), not their shape: the binomial's own
H at xi0 has H'''(0) = 4 (tan xi0 - cot xi0), and at xi0 = pi/4, where that
vanishes, H''''(0) = -32 against the carrier's +16.  So binom's minimal N
of 8 is the carrier's answer.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass

from ._lazy import LazyNumpy
from .errors import InputError, UnsupportedModelError
from .models import ModelSpec
from .quadrature import IntegrationResult, QuadratureConfig, lockstep

np = LazyNumpy(globals())

__all__ = [
    "HEvaluation",
    "h_functional",
    "h_closed_form",
    "h_derivative_numeric",
    "max_abs_derivative",
]


@dataclass(frozen=True)
class HEvaluation:
    delta: float
    value: float
    error_estimate: float


def h_functional(model: ModelSpec, delta: float, cfg: QuadratureConfig | None = None) -> HEvaluation:
    """Evaluate H(delta) = H_1(delta / scale) by quadrature over u.

    H does not change under u -> u / scale, so it is integrated on the
    carrier's unit record (``_h_unit``).  The result keeps H <= 0 for
    |delta / scale| >= 4e-13 (chi2log), 3e-17 (gauss) and 1e-8 (trig, binom),
    measured at 100 shifts per decade.  Smaller shifts can give a small
    positive H: +2.01e-18 for chi2log at 1e-15, whose absolute tolerance
    stops at 1e-17, and +1.9e-17 for trig at 2e-9.

    This is ``_h_shifts`` on one shift; ``verify --suite h`` calls that
    batch entry on a grid of shifts.
    """
    (ev,) = _h_shifts(model, [delta], cfg)
    return ev


def _h_shifts(model: ModelSpec, deltas, cfg: QuadratureConfig | None) -> list[HEvaluation]:
    """``h_functional`` at each of ``deltas``, in one ``_h_unit`` batch.

    Every shift is checked before any is integrated.  Each H keeps the bits
    it has alone, and an error is the one the first failing shift, in the
    order given, raises.
    """
    family = model._family.carrier
    for delta in deltas:
        family.check_shift(delta)
    deltas = [float(d) for d in deltas]
    results = _h_unit(family.unit, [d / family.scale for d in deltas], cfg)
    return [HEvaluation(d, res.value, res.error_estimate) for d, res in zip(deltas, results)]


def _h_integrand(unit, us, deltas):
    """p ln(p'/p) at each of ``us``, shifted by its own entry of ``deltas``."""
    ld, ratio = unit.h_terms(us, deltas)
    p0 = np.exp(ld)
    # p ln(p'/p) -> 0 where p underflows; only that limit is masked,
    # a non-finite ratio against positive weight must surface
    return np.multiply(p0, ratio, out=np.zeros_like(p0), where=p0 > 0.0)


def _h_unit(unit, deltas, cfg: QuadratureConfig | None):
    """H_1 at each of ``deltas`` on the unit record ``unit``, in one lockstep run.

    Each shift's integral is the one the record's ``integral_over_x``
    makes.  Where the density has zeros (trig), the integrand diverges
    logarithmically at the shifted zeros, and the integral is split there.
    A line family is integrated about u = 0 at an absolute tolerance
    tightened for small shifts.  The pieces of all the integrals go through
    one ``lockstep`` run, which calls the integrand once per round; each
    result keeps the bits it has alone.  Raises the error of the first
    shift, in the order given, whose integral fails.
    """

    def integral(delta):
        points = None if unit.zeros is None else unit.zeros(-delta)
        shift_cfg = cfg
        if points is None:
            # For small shifts H ~ -F delta^2 / 2 sits far below the default
            # absolute tolerance; tighten it so the nonpositivity theorem
            # survives the quadrature (the integrand scale shrinks with delta,
            # so the tighter target stays reachable).
            shift_cfg = cfg or QuadratureConfig()
            predicted = 0.5 * unit.fisher * delta * delta
            shift_cfg = dataclasses.replace(
                shift_cfg, abs_tol=min(shift_cfg.abs_tol, max(1e-3 * predicted, 1e-17))
            )
        return unit.integral_over_x(shift_cfg, points)

    shifts = [d for d in deltas if d != 0.0]  # the integrand is identically zero at 0
    integrand = functools.partial(_h_integrand, unit)
    outcomes = lockstep(integrand, [integral(d) for d in shifts], shifts)
    failure = next((res for res in outcomes if isinstance(res, Exception)), None)
    if failure is not None:
        raise failure
    computed = iter(outcomes)
    return [next(computed) if d != 0.0 else IntegrationResult(0.0, 0.0, 0) for d in deltas]


def h_closed_form(model: ModelSpec, delta: float) -> float:
    family = model._family
    if family.h is None:
        raise UnsupportedModelError(f"no closed-form H for {model.id.value}; use its carrier")
    family.check_shift(delta)
    return family.h(delta)


# Central differences as in Fornberg (1988): order -> (offsets in steps,
# weights, divisor), so H^(order) ~ sum_k w_k H(delta + k step) / (divisor step^order).
_STENCILS = {
    1: ((1, -1), (1.0, -1.0), 2.0),
    2: ((1, 0, -1), (1.0, -2.0, 1.0), 1.0),
    3: ((2, 1, -1, -2), (1.0, -2.0, 2.0, -1.0), 2.0),
    4: ((2, 1, 0, -1, -2), (1.0, -4.0, 6.0, -4.0, 1.0), 1.0),
}


def h_derivative_numeric(
    model: ModelSpec, order: int, delta: float, cfg: QuadratureConfig | None = None
) -> float:
    """Central finite difference of the quadrature H, Richardson extrapolated once.

    The stencil runs on the carrier's unit record at delta / scale, and
    H^(order)(delta) = H_1^(order)(delta / scale) / scale^order.  Steps, in
    units of the scale: 1e-4 for orders 1 and 2, 1e-2 for orders 3 and 4
    (the higher orders divide by h^3, h^4 and need the larger step to stay
    above the quadrature noise).  The inner quadrature runs at a tightened
    tolerance for the same reason.

    Each order is one row of ``_STENCILS``; an order with no row is an
    input error.  The distinct shifts of the coarse (step h) and fine
    (step h / 2) arms, rounded to 15 decimals, are integrated in one
    ``_h_unit`` batch, coarse first, in offset order.  Each H keeps the bits
    it has alone, and an error is the one the first failing shift in that
    order raises.
    """
    if order not in _STENCILS:
        raise InputError("numeric derivatives support orders 1 through 4")
    offsets, weights, divisor = _STENCILS[order]
    family = model._family.carrier
    unit, scale = family.unit, family.scale
    h = 1e-4 if order <= 2 else 1e-2
    family.check_shift(delta)
    if family.period is not None and abs(delta) + 2.0 * h > family.period:
        raise InputError("delta too close to the period boundary for the stencil")
    delta = delta / scale
    base = cfg or QuadratureConfig()
    inner = dataclasses.replace(
        base, abs_tol=min(base.abs_tol, 1e-13), rel_tol=min(base.rel_tol, 1e-13)
    )
    steps = (h, h / 2.0)
    arms = [[round(delta + k * step, 15) for k in offsets] for step in steps]
    shifts = list(dict.fromkeys(arms[0] + arms[1]))
    values = {d: res.value for d, res in zip(shifts, _h_unit(unit, shifts, inner))}
    coarse, fine = [
        # left to right: ``sum`` compensates from Python 3.12 on
        functools.reduce(operator.add, [w * values[d] for w, d in zip(weights, arm)])
        / (divisor * step**order)
        for arm, step in zip(arms, steps)
    ]
    return float((4.0 * fine - coarse) / 3.0) / scale**order


def max_abs_derivative(model: ModelSpec, order: int, interval_halfwidth: float) -> float:
    """Largest |H^(order)| over |delta| <= interval_halfwidth, in closed form.

    The family's record has it for the orders the criterion asks for
    (chi2log order 3, trig order 4, gauss orders 3 and up); any other order
    raises ``UnsupportedModelError``.
    """
    if not interval_halfwidth > 0:
        raise InputError("interval halfwidth must be positive")
    closed = model._family.carrier.h_max(order, interval_halfwidth)
    if closed is None:
        raise UnsupportedModelError(f"no closed max |H^({order})| for {model.id.value}")
    return closed
