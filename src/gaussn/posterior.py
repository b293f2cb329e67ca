"""Exact, asymptotic and Gaussian-reference posteriors on a common grid.

All densities are tabulated over a grid spanning eight reference standard
deviations around the center and normalized by the trapezoid rule, with
likelihood products accumulated in log space so that large N cannot
underflow.  Asymptotic grids are clipped to the parameter domain.  Sampled
trig and binomial grids are not: their likelihood is pi-periodic in xi, so
the grid runs on into the next period, with a halfwidth of at most pi/2.

The sample log-likelihood on the grid comes from the family's record in
``models``: O(N + G) time and O(G) memory beyond the N observations for
G grid points (sufficient statistics; trig takes O(N G) time in blocks).

Comparisons report

* the sup over the 3-sigma window (grid points on its edges included) of
  |log density difference| after matching the two peaks (shape
  deviation, insensitive to normalizers),
* the Kullback-Leibler divergence to the Gaussian over the whole grid.

The asymptotic posterior of a periodic family is built with its center
shifted to zero: the parameter lives on one period, so distances are only
meaningful once the maximum-likelihood point is moved to the middle of the
interval.  Comparisons for those models are restricted to |delta| <= pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import LazyNumpy
from .errors import InputError
from .models import ModelSpec, Observations, ml_estimate

np = LazyNumpy(globals())

__all__ = [
    "PosteriorGrid",
    "ComparisonReport",
    "posterior_from_observations",
    "posterior_asymptotic",
    "gaussian_reference",
    "compare_to_gaussian",
]

DEFAULT_GRID_SIZE = 2001
_MIN_GRID_SIZE = 201


@dataclass(frozen=True)
class PosteriorGrid:
    xi_values: np.ndarray
    densities: np.ndarray


@dataclass(frozen=True)
class ComparisonReport:
    sup_log_deviation: float
    kl_to_gaussian: float
    interval: tuple[float, float]


def _make_grid(center: float, halfwidth: float, domain, size: int) -> np.ndarray:
    """``size`` points from center - halfwidth to center + halfwidth, clipped to the domain.

    A window only a few doubles wide would repeat points, and a grid step
    of zero has no curvature or trapezoid weight, so a grid whose points
    are not strictly increasing is an input error.
    """
    lo = max(center - halfwidth, domain[0])
    hi = min(center + halfwidth, domain[1])
    if not lo < hi:
        collapsed = center - halfwidth == center + halfwidth
        if not (collapsed and math.isfinite(center) and domain[0] <= center <= domain[1]):
            raise InputError("degenerate grid: window does not intersect the domain")
    grid = np.linspace(lo, hi, size)
    if not np.all(grid[1:] > grid[:-1]):
        raise InputError(
            f"degenerate grid: halfwidth {halfwidth:.17g} around center {center:.17g} is too "
            f"close to the spacing of doubles there for {size} strictly increasing points"
        )
    return grid


def _normalize(grid: np.ndarray, log_dens: np.ndarray) -> np.ndarray:
    """exp-normalize a log density on the grid, trapezoid mass one."""
    peak = np.max(log_dens)
    if not np.isfinite(peak):
        raise InputError("log density is nowhere finite on the grid")
    dens = np.exp(log_dens - peak)
    mass = np.trapezoid(dens, grid)
    return dens / mass


def _check_grid_size(size: int):
    if size < _MIN_GRID_SIZE:
        raise InputError(f"grid_size must be at least {_MIN_GRID_SIZE}")


def _reference_sigma(model: ModelSpec, n: int) -> float:
    return 1.0 / math.sqrt(n * model.analytic_fisher)


def posterior_from_observations(
    model: ModelSpec,
    obs: Observations,
    grid_size: int = DEFAULT_GRID_SIZE,
    *,
    xi_ml: float | None = None,
) -> PosteriorGrid:
    """Normalized posterior of xi given the observations, constant prior.

    The grid spans xi_ml +- 8 sigma/sqrt(N); pass ``xi_ml`` when the caller
    already holds the estimate, so it is not computed twice.  The trig and
    binomial likelihoods are pi-periodic in xi, so their grid is never
    clipped to the parameter domain: it runs past +-pi/2 into the next
    period, and its halfwidth stops at pi/2, one period in all.  For the
    binomial model the likelihood is the score form and the grid is
    centered on the nonnegative maximum-likelihood root; cos^2 is even and
    pi-periodic, so the mirrored mode at -xi_ml (or pi - xi_ml, next to
    pi/2) is in frame whenever it lies within the halfwidth.
    """
    _check_grid_size(grid_size)
    center = ml_estimate(model, obs) if xi_ml is None else float(xi_ml)
    halfwidth = 8.0 * _reference_sigma(model, obs.n)
    domain = model.xi_domain
    family = model._family
    if family.period is not None:
        halfwidth, domain = min(halfwidth, family.period / 2.0), (-math.inf, math.inf)
    grid = _make_grid(center, halfwidth, domain, grid_size)
    return PosteriorGrid(grid, _normalize(grid, family.log_lik(obs.as_array(), grid)))


def posterior_asymptotic(
    model: ModelSpec, xi_ml: float, n: int, grid_size: int = DEFAULT_GRID_SIZE
) -> PosteriorGrid:
    """Posterior proportional to exp(N * H(xi_ml - xi)) on the grid.

    Uses the closed-form H of the model's carrier (every carrier has one).
    The trigonometric model (and the binomial, which borrows its H) is first
    recentered at zero, so ``xi_ml`` only selects which posterior is meant,
    not where the grid sits.
    """
    _check_grid_size(grid_size)
    if n < 1:
        raise InputError("sample size must be at least 1")
    family = model._family
    center = 0.0 if family.period is not None else float(xi_ml)
    grid = _make_grid(center, 8.0 * _reference_sigma(model, n), model.xi_domain, grid_size)
    deltas = center - grid
    h = family.carrier.h  # the binomial borrows its carrier's H
    h_values = np.array([h(d) for d in deltas])
    return PosteriorGrid(grid, _normalize(grid, n * h_values))


def gaussian_reference(
    xi_ml: float,
    fisher: float,
    n: int,
    grid_size: int = DEFAULT_GRID_SIZE,
    grid: np.ndarray | None = None,
) -> PosteriorGrid:
    """Normal density, mean xi_ml and variance 1/(n * fisher), tabulated.

    Pass ``grid`` to evaluate on an existing grid (required for
    comparisons, which insist on identical grids).  The tabulated values
    are renormalized by the trapezoid rule so that a grid clipped by a
    finite domain still integrates to one.
    """
    if not fisher > 0:
        raise InputError("fisher must be positive")
    if n < 1:
        raise InputError("sample size must be at least 1")
    sigma = 1.0 / math.sqrt(n * fisher)
    if grid is None:
        _check_grid_size(grid_size)
        grid = np.linspace(xi_ml - 8.0 * sigma, xi_ml + 8.0 * sigma, grid_size)
    else:
        grid = np.asarray(grid, dtype=float)
    log_dens = -((grid - xi_ml) ** 2) / (2.0 * sigma**2)
    return PosteriorGrid(grid, _normalize(grid, log_dens))


def compare_to_gaussian(post: PosteriorGrid, ref: PosteriorGrid) -> ComparisonReport:
    """Shape deviation and KL divergence of ``post`` against a Gaussian ``ref``.

    The 3-sigma window is centered on the reference mode, with sigma read
    off the reference's own log-curvature (exact for a tabulated Gaussian).
    Peak matching: both log densities are taken relative to their maxima, so
    normalization constants drop out of the sup deviation.
    """
    if post.xi_values.shape != ref.xi_values.shape or not np.array_equal(
        post.xi_values, ref.xi_values
    ):
        raise InputError("posterior and reference must share one grid")
    grid = ref.xi_values
    with np.errstate(divide="ignore"):
        lp = np.log(post.densities)
        lr = np.log(ref.densities)
    i0 = int(np.argmax(ref.densities))
    ic = min(max(i0, 1), grid.size - 2)
    step = grid[1] - grid[0]
    curv = (lr[ic + 1] - 2.0 * lr[ic] + lr[ic - 1]) / step**2
    if not curv < 0:
        raise InputError("reference grid has no concave log peak")
    sigma = 1.0 / math.sqrt(-curv)
    center = grid[i0]
    lo, hi = center - 3.0 * sigma, center + 3.0 * sigma
    # On the default grid the window edges fall on grid points; a relative
    # slack of 1e-9 keeps them in the window whatever the rounding of sigma.
    window = np.abs(grid - center) <= 3.0 * sigma * (1.0 + 1e-9)
    dev = np.abs((lp - np.max(lp)) - (lr - np.max(lr)))
    sup = float(np.max(dev[window]))

    mask = post.densities > 0.0
    kl_terms = np.zeros_like(post.densities)
    kl_terms[mask] = post.densities[mask] * (lp[mask] - lr[mask])
    kl = float(np.trapezoid(kl_terms, grid))
    return ComparisonReport(
        sup_log_deviation=sup,
        kl_to_gaussian=max(kl, 0.0),
        interval=(float(lo), float(hi)),
    )
