"""The four bundled one-parameter statistical models.

Every model is translation form invariant: the density depends on the
observation and the parameter only through their difference (the binomial
variant inherits the property through its trigonometric carrier).  The
variants are

* ``chi2log``  exp(u - e^u) on the whole line, u = x - xi.  This is a
  chi-squared distribution with two degrees of freedom after a log
  transform of both the variable and the scale parameter.  Fisher
  information 1.
* ``gauss``    the Gaussian shift family with fixed sigma.  Fisher 1/sigma^2.
* ``trig``     (2/pi) cos^2(x - xi) on [-pi/2, pi/2].  Fisher 4.
* ``binom``    the yes/no model with response probability cos^2(xi) for
  x = 1.  Fisher 4, matching its trigonometric carrier.

All operations are pure; sampling is deterministic given the seed.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InputError
from .quadrature import QuadratureConfig, integrate

__all__ = [
    "ModelId",
    "ModelSpec",
    "Observations",
    "AmbiguousMaximumWarning",
    "make_model",
    "density",
    "log_density",
    "normalization_check",
    "ml_estimate",
    "sample",
]

_HALF_PI = math.pi / 2.0
# Observations x grid points evaluated at once by the trig likelihood kernel
# (2**16 doubles, 512 kB per temporary): a block stays in cache, and memory
# stays bounded in N.
_BLOCK_ELEMENTS = 1 << 16
# Rows of |cos| multiplied before one log is taken.  Each factor is at least
# about 6e-17, the cosine of the double nearest pi/2 (entries below
# _COS_FLOOR are recomputed directly), so a product of 16 stays above 1e-261.
_LOG_GROUP = 16
# Below this |cos| the angle-addition form, accurate to a few 1e-16 absolute,
# has lost more than about 1e-10 of relative precision, and the entry is
# recomputed as |cos(x - xi)|.
_COS_FLOOR = 2.0**-20
# Log-likelihood gap, and distance, below which two trig maxima are one.
_TRIG_TIE_TOL = 1e-9


class ModelId(Enum):
    CHI_SQUARED_LOG = "chi2log"
    GAUSSIAN_SHIFT = "gauss"
    TRIG_TRANSLATIONAL = "trig"
    BINOMIAL_TRIG_IRF = "binom"


class AmbiguousMaximumWarning(UserWarning):
    """The likelihood has several global maxima; the smallest one is returned."""


@dataclass(frozen=True)
class ModelSpec:
    id: ModelId
    x_domain: tuple[float, float]
    xi_domain: tuple[float, float]
    sigma_param: float = 1.0
    analytic_fisher: float | None = None

    @property
    def discrete_x(self) -> bool:
        return self.id is ModelId.BINOMIAL_TRIG_IRF


@dataclass(frozen=True)
class Observations:
    """Observed values: a tuple of floats, and one read-only array of them.

    ``values`` may be given as any sequence of numbers, a float array
    included; the array is built once here and shared by every reader.
    """

    values: tuple[float, ...]
    _array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        array = np.array(self.values, dtype=float)
        if array.size < 1:
            raise InputError("Observations needs at least one value")
        array.flags.writeable = False
        object.__setattr__(self, "values", tuple(array.tolist()))
        object.__setattr__(self, "_array", array)

    @property
    def n(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return self._array


def make_model(model_id: ModelId | str, sigma: float = 1.0) -> ModelSpec:
    """Build the description of one of the bundled models.

    ``sigma`` only affects the Gaussian shift family and must be positive.
    """
    mid = ModelId(model_id) if not isinstance(model_id, ModelId) else model_id
    if not sigma > 0:
        raise InputError("sigma must be strictly positive")
    inf = math.inf
    if mid is ModelId.CHI_SQUARED_LOG:
        return ModelSpec(mid, (-inf, inf), (-inf, inf), sigma, analytic_fisher=1.0)
    if mid is ModelId.GAUSSIAN_SHIFT:
        return ModelSpec(mid, (-inf, inf), (-inf, inf), sigma, analytic_fisher=1.0 / sigma**2)
    if mid is ModelId.TRIG_TRANSLATIONAL:
        return ModelSpec(mid, (-_HALF_PI, _HALF_PI), (-_HALF_PI, _HALF_PI), sigma, analytic_fisher=4.0)
    return ModelSpec(mid, (0.0, 1.0), (-_HALF_PI, _HALF_PI), sigma, analytic_fisher=4.0)


def _check_xi(model: ModelSpec, xi: float):
    lo, hi = model.xi_domain
    if not (lo <= xi <= hi):
        raise InputError(f"parameter {xi!r} outside domain [{lo!r}, {hi!r}]")


def _check_x(model: ModelSpec, x):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise InputError("observations must be finite")
    if model.discrete_x:
        if not np.all((xs == 0.0) | (xs == 1.0)):
            raise InputError("binomial observations must be 0 or 1")
        return
    lo, hi = model.x_domain
    if not np.all((xs >= lo) & (xs <= hi)):
        raise InputError(f"observation outside domain [{lo!r}, {hi!r}]")


def _log_density_unchecked(model: ModelSpec, x, xi):
    """Vectorized log density without domain validation.

    Internal evaluators (finite differences, posterior grids) probe slightly
    outside the nominal parameter domain; the formulas below are well defined
    there.  Values of exactly -inf mark genuine zeros of the density.
    """
    x = np.asarray(x, dtype=float)
    mid = model.id
    if mid is ModelId.CHI_SQUARED_LOG:
        u = x - xi
        return u - np.exp(u)
    if mid is ModelId.GAUSSIAN_SHIFT:
        s2 = model.sigma_param**2
        return -0.5 * math.log(2.0 * math.pi * s2) - (x - xi) ** 2 / (2.0 * s2)
    if mid is ModelId.TRIG_TRANSLATIONAL:
        with np.errstate(divide="ignore"):
            return math.log(2.0 / math.pi) + 2.0 * np.log(np.abs(np.cos(x - xi)))
    # binomial: log cos^2(xi) for x = 1, log sin^2(xi) for x = 0
    with np.errstate(divide="ignore"):
        lc = 2.0 * np.log(np.abs(np.cos(xi)))
        ls = 2.0 * np.log(np.abs(np.sin(xi)))
    return np.where(x == 1.0, lc, ls)


def _density_unchecked(model: ModelSpec, x, xi):
    return np.exp(_log_density_unchecked(model, x, xi))


def _line_config(model: ModelSpec, center: float, cfg: QuadratureConfig | None) -> QuadratureConfig:
    """Config with the truncation window widened to cover the density.

    The default cutoff assumes an integrand concentrated near the origin at
    unit scale.  Integrals over the line models are centered at ``center``
    and, for the Gaussian family, spread over sigma, so the window must
    grow with both; a flat far-out integrand would otherwise slip past the
    negligibility check at the cutoff.
    """
    base = cfg or QuadratureConfig()
    need = abs(center) + 40.0
    if model.id is ModelId.GAUSSIAN_SHIFT:
        need = abs(center) + 12.0 * model.sigma_param
    if need <= base.tail_cutoff:
        return base
    return dataclasses.replace(base, tail_cutoff=need)


def density(model: ModelSpec, x: float, xi: float) -> float:
    """Probability density (or probability mass, for the binomial) p(x|xi)."""
    _check_xi(model, xi)
    _check_x(model, x)
    return float(_density_unchecked(model, np.asarray(x, dtype=float), xi))


def log_density(model: ModelSpec, x: float, xi: float) -> float:
    _check_xi(model, xi)
    _check_x(model, x)
    return float(_log_density_unchecked(model, np.asarray(x, dtype=float), xi))


def normalization_check(model: ModelSpec, xi: float, cfg: QuadratureConfig | None = None) -> float:
    """Total probability over the observation domain; must come out 1."""
    _check_xi(model, xi)
    if model.discrete_x:
        return float(np.cos(xi) ** 2 + np.sin(xi) ** 2)
    if math.isinf(model.x_domain[0]):
        cfg = _line_config(model, xi, cfg)
    res = integrate(lambda xs: _density_unchecked(model, xs, xi), model.x_domain, cfg)
    return res.value


def ml_estimate(model: ModelSpec, obs: Observations) -> float:
    """Parameter value maximizing the likelihood of ``obs``.

    Closed forms exist for three variants: the log-mean-exp for chi2log, the
    mean for gauss, and the share of ones for binom.  The binomial model
    returns the nonnegative root; cos^2 is even, so its mirror image is an
    equally good estimate.

    The trigonometric model scans the log-likelihood on a 4001-point grid
    over one period with the kernel ``_trig_log_lik`` (angle addition, one
    log per 16 observations; within about 1e-11 of the exact sum at
    N = 500), then refines every grid point within 1e-6 of the best by
    safeguarded Newton on the analytic score 2 sum tan(x_k - xi): the
    log-likelihood is concave between its poles xi = x_k +- pi/2, so each
    refinement has one maximum to find.  Refined maxima closer than 1e-9
    to each other are one maximum.  When several distinct global maxima
    tie (possible because the density is pi-periodic in the difference),
    the smallest maximizer is returned and an
    :class:`AmbiguousMaximumWarning` is emitted.
    """
    xs = obs.as_array()
    _check_x(model, xs)
    mid = model.id
    if mid is ModelId.CHI_SQUARED_LOG:
        # argmax of sum(x_k - xi - e^(x_k - xi)) is ln(mean(e^(x_k)))
        return float(_logsumexp(xs) - math.log(obs.n))
    if mid is ModelId.GAUSSIAN_SHIFT:
        return float(np.mean(xs))
    if mid is ModelId.BINOMIAL_TRIG_IRF:
        score = float(np.sum(xs))
        return float(math.acos(math.sqrt(min(max(score / obs.n, 0.0), 1.0))))
    return _ml_trig(model, xs)


def _logsumexp(xs: np.ndarray) -> float:
    """ln(sum(e^x)) of a 1-d array, shifted by its maximum so nothing overflows.

    The terms at the maximum leave the sum and enter through the log of
    their count; the rest enter through log1p, which keeps full precision
    when the largest term dominates.
    """
    top = np.max(xs)
    at_top = xs == top
    count = np.count_nonzero(at_top)
    rest = np.sum(np.where(at_top, 0.0, np.exp(xs - top))) / count
    return float(np.log1p(rest) + np.log(count) + top)


def _trig_log_lik(xs: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """sum_k ln((2/pi) cos^2(x_k - xi)) at every grid point xi.

    cos(x - xi) is formed by angle addition, cos x cos xi + sin x sin xi,
    from N + G sines and cosines; entries whose magnitude falls below
    _COS_FLOOR, where that form has lost its relative precision, are
    recomputed as |cos(x_k - xi)|, so no entry is zero.  The log is taken
    once per _LOG_GROUP rows, of the product of their |cos|; left-over rows
    take one log each.  Rows are processed in blocks of about
    _BLOCK_ELEMENTS entries, a multiple of _LOG_GROUP rows each, written
    into two buffers allocated once (a fresh allocation per block would
    page-fault its memory every time).
    """
    cos_x, sin_x = np.cos(xs)[:, None], np.sin(xs)[:, None]
    cos_g, sin_g = np.cos(grid), np.sin(grid)
    rows = max(1, _BLOCK_ELEMENTS // (grid.size * _LOG_GROUP)) * _LOG_GROUP
    buffer = np.empty((min(rows, xs.size), grid.size))
    scratch = np.empty_like(buffer)
    total = np.zeros(grid.size)
    for start in range(0, xs.size, rows):
        block = np.multiply(cos_x[start : start + rows], cos_g, out=buffer[: xs.size - start])
        block += np.multiply(sin_x[start : start + rows], sin_g, out=scratch[: block.shape[0]])
        np.abs(block, out=block)
        if np.min(block) < _COS_FLOOR:
            i, j = np.nonzero(block < _COS_FLOOR)
            block[i, j] = np.abs(np.cos(xs[start + i] - grid[j]))
        whole = block.shape[0] - block.shape[0] % _LOG_GROUP
        groups = block[:whole].reshape(-1, _LOG_GROUP, grid.size)
        total += np.sum(np.log(np.prod(groups, axis=1)), axis=0)
        total += np.sum(np.log(block[whole:]), axis=0)
    return 2.0 * total + xs.size * math.log(2.0 / math.pi)


def _trig_refine(xs: np.ndarray, t0: float, a: float, b: float) -> float:
    """Maximizer of sum_k ln cos^2(x_k - xi) on [a, b] in the cell holding t0.

    The poles xi = x_k - pi/2 + j pi split [a, b] into cells (the bracket
    is shorter than one period, so each observation adds at most one pole).
    On the cell holding the grid point t0 the log-likelihood is strictly
    concave, so its maximum is the zero of the decreasing score, or an end
    of the cell that is not a pole.  Newton steps that leave the bracket
    are replaced by bisection.
    """
    base = xs - _HALF_PI
    poles = base + math.pi * np.ceil((a - base) / math.pi)
    left, right = poles[poles < t0], poles[(poles > t0) & (poles <= b)]
    lo = float(np.max(left)) if left.size else a
    hi = float(np.min(right)) if right.size else b
    if not left.size and 2.0 * np.sum(np.tan(xs - lo)) <= 0.0:
        return lo
    if not right.size and 2.0 * np.sum(np.tan(xs - hi)) >= 0.0:
        return hi
    t = t0
    for _ in range(200):
        tan = np.tan(xs - t)
        score = 2.0 * np.sum(tan)
        if score == 0.0:
            return t
        if score > 0.0:
            lo = t
        else:
            hi = t
        nxt = t + score / (2.0 * np.sum(1.0 + tan * tan))  # curvature -2 sum sec^2
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - t) <= 4.0 * np.finfo(float).eps:
            return float(nxt)
        t = float(nxt)
    return t


def _ml_trig(model: ModelSpec, xs) -> float:
    lo, hi = model.xi_domain
    grid = np.linspace(lo, hi, 4001)
    ll = _trig_log_lik(xs, grid)
    best = np.max(ll)
    step = grid[1] - grid[0]
    # Local maxima whose grid value is within resolution of the global one.
    refined = []
    for i in np.flatnonzero(ll >= best - 1e-6):
        a = max(grid[max(i - 1, 0)] - step, lo)
        b = min(grid[min(i + 1, grid.size - 1)] + step, hi)
        t = _trig_refine(xs, float(grid[i]), float(a), float(b))
        refined.append((t, float(np.sum(_log_density_unchecked(model, xs, t)))))
    top = max(v for _, v in refined)
    ties = sorted(t for t, v in refined if v >= top - _TRIG_TIE_TOL)
    winners = ties[:1] + [t for prev, t in zip(ties, ties[1:]) if t - prev > _TRIG_TIE_TOL]
    if len(winners) > 1:
        warnings.warn(
            f"likelihood has {len(winners)} global maxima {winners}; returning the smallest",
            AmbiguousMaximumWarning,
        )
    return winners[0]


def _trig_inverse_cdf(us: np.ndarray, xi: float) -> np.ndarray:
    """x with CDF(x) = u for each u, by bisection on the whole array at once.

    CDF(x) = prim(x - xi) - prim(-pi/2 - xi), prim(v) = (v + sin(2v)/2) / pi,
    the antiderivative of (2/pi) cos^2(v).  Where the density is small the
    computed CDF equals u over a band of x wider than the tolerance, so two
    brackets are halved side by side, one closing on each end of that band,
    until both are narrower than 1e-14; the middle of the band is returned.
    """
    offset = -_HALF_PI - xi
    floor = (offset + 0.5 * math.sin(2.0 * offset)) / math.pi
    lo = np.full((2, us.size), -_HALF_PI)
    hi = np.full((2, us.size), _HALF_PI)
    while np.max(hi - lo) > 1e-14:
        mid = 0.5 * (lo + hi)
        v = mid - xi
        cdf = (v + 0.5 * np.sin(2.0 * v)) / math.pi - floor
        below = np.stack([cdf[0] < us, cdf[1] <= us])
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.25 * np.sum(lo + hi, axis=0)


def sample(model: ModelSpec, xi_true: float, n: int, seed: int) -> Observations:
    """Draw ``n`` observations at ``xi_true``, reproducibly for a given seed.

    The line models use exact transforms of standard generator output; the
    trigonometric model inverts its closed-form CDF at n uniform draws by
    one vectorised bisection to 1e-14, so no rejection loop perturbs the
    stream.
    """
    _check_xi(model, xi_true)
    if n < 1:
        raise InputError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    mid = model.id
    if mid is ModelId.CHI_SQUARED_LOG:
        # e^(x - xi) is standard exponential under this density
        values = xi_true + np.log(rng.standard_exponential(n))
    elif mid is ModelId.GAUSSIAN_SHIFT:
        values = xi_true + model.sigma_param * rng.standard_normal(n)
    elif mid is ModelId.BINOMIAL_TRIG_IRF:
        values = (rng.random(n) < math.cos(xi_true) ** 2).astype(float)
    else:
        values = _trig_inverse_cdf(rng.random(n), xi_true)
    return Observations(values)
