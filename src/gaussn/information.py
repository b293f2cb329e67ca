"""Fisher information by both definitions, plus the invariant prior measure.

The two definitions (expected squared score, negative expected log-density
curvature) are evaluated by genuinely independent numerical routes so that
their agreement is a real cross-check:

* gradient form: the score is a Richardson-extrapolated central difference
  of the *density*, divided by the density.  Differencing the density rather
  than its logarithm keeps the integrand bounded and smooth where the
  density has zeros (the trigonometric model), where a differenced log
  squared would pick up a spurious ln^2 boundary layer of order 1e-4.
* curvature form: a plain central second difference of the log density,
  integrated against the density.  The quadrature layer splits the
  integral at the log singularities of the shifted stencil arms and at
  the density's zeros.

Both run on the family's unit record, integrating over the observations
through its ``over_x`` at its ``nudge`` of xi (xi = 0 on a line family), and
apply the scale once: under x -> x / sigma a shift family's F is exactly
F_1 / sigma^2.  So the finite-difference steps never need to follow sigma.

Each integrand makes one family call for its stencil, on a column of xi
against the row of abscissae: the score's four density arms (xi +- h / 2,
xi +- h) as a (4, n) array, and ln p at xi and at the curvature arms xi +-
h as a (3, n) array.  The family formulas are elementwise, so every value
has the bits of a call per arm, which the tests check.

Both forms are independent of xi for every bundled model; the constant
prior measure is sqrt(F) with the proportionality constant fixed to 1 (it
cancels in every posterior).
"""

from __future__ import annotations

import dataclasses
import functools
import math

from ._lazy import LazyNumpy
from .models import ModelSpec, _check_xi
from .quadrature import QuadratureConfig

np = LazyNumpy(globals())

__all__ = [
    "fisher_gradient_form",
    "fisher_curvature_form",
    "prior_measure",
]

_GRAD_STEP = 1e-5
_CURV_STEP = 1e-4

# Finite differencing of machine-precision values divides roundoff by h (or
# h^2), so the integrands carry irreducible pointwise noise.  Quadrature
# cannot certify tolerances below that floor; the noise is zero-mean, so the
# returned values are still far more accurate than the floor itself.  The
# floor is a fraction of the expected result, F of the unit record (at
# least 1), so neither tolerance asks for accuracy below the noise.
_GRAD_TOL_FLOOR = 1e-9
_CURV_TOL_FLOOR = 5e-8


def _floored(unit, cfg: QuadratureConfig | None, floor: float) -> QuadratureConfig:
    cfg = cfg or QuadratureConfig()
    abs_tol = max(cfg.abs_tol, unit.fisher * floor)
    return dataclasses.replace(cfg, abs_tol=abs_tol, rel_tol=max(cfg.rel_tol, floor))


def _score_fd(family, xs, xi: float, p, h: float):
    """Numerical score d/dxi ln p, as a density difference over the density.

    ``p`` is the density at ``xs`` and ``xi``, which every caller already
    holds.  The central difference of p with step ``h`` is Richardson
    extrapolated once; where the density underflows to zero the score is
    reported as zero (those points carry no weight).  The four arms, xi +-
    h / 2 and xi +- h, are one density call on a (4, n) array of xi.
    """
    hh = h / 2.0
    arms = family.density(xs, np.array([[xi + hh], [xi - hh], [xi + h], [xi - h]]))
    d = (4.0 * ((arms[0] - arms[1]) / (2.0 * hh)) - (arms[2] - arms[3]) / (2.0 * h)) / 3.0
    return np.divide(d, p, out=np.zeros_like(p), where=p > 0.0)


def fisher_gradient_form(model: ModelSpec, xi: float, cfg: QuadratureConfig | None = None) -> float:
    """Expected squared score, E[(d/dxi ln p)^2]."""
    _check_xi(model, xi)
    unit = model._family.unit
    xi = unit.nudge(xi)

    def integrand(xs):
        p = unit.density(xs, xi)
        return p * _score_fd(unit, xs, xi, p, _GRAD_STEP) ** 2

    f1 = unit.over_x(integrand, _floored(unit, cfg, _GRAD_TOL_FLOOR)).value
    return f1 / model._family.scale**2


def _curvature_integrand(family, stencil, h: float, xs):
    """p times the second difference of ln p in xi, at ``xs``.

    ``stencil`` is the (3, 1) array of xi and the arms xi + h, xi - h: ln p
    at all three is one log-density call.
    """
    ld, up, down = family.log_density(xs, stencil)
    return np.exp(ld) * ((up - 2.0 * ld + down) / h**2)


def fisher_curvature_form(model: ModelSpec, xi: float, cfg: QuadratureConfig | None = None) -> float:
    """Negative expected curvature of the log density, -E[d^2/dxi^2 ln p]."""
    _check_xi(model, xi)
    unit = model._family.unit
    h = _CURV_STEP
    xi = unit.nudge(xi)
    stencil = np.array([[xi], [xi + h], [xi - h]])
    integrand = functools.partial(_curvature_integrand, unit, stencil, h)

    points = None
    if unit.zeros is not None:
        # The stencil arms ln p(x | xi -+ h) diverge at h-shifted images of
        # the density zeros; the zeros themselves are harmless but sharp.
        points = [s for z in unit.zeros(xi) for s in (z - h, z, z + h)]
    f1 = -unit.over_x(integrand, _floored(unit, cfg, _CURV_TOL_FLOOR), points).value
    return f1 / model._family.scale**2


def default_probe_points(model: ModelSpec, count: int = 10) -> tuple[float, ...]:
    """Evenly spaced interior probe points for xi-independence checks.

    Unbounded domains are probed on [-3, 3]; the trigonometric interval is
    probed away from its ends, and the binomial away from its degenerate
    parameter values as well.
    """
    return tuple(np.linspace(*model._family.probe_span, count))


def prior_measure(model: ModelSpec) -> float:
    """The constant invariant measure on the parameter scale, sqrt(F)."""
    return math.sqrt(model.analytic_fisher)
