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

Each family is one private record here (a ``_Family`` subclass, built per
``ModelSpec`` at its sigma), the one place that tells the families apart;
``divergence``, ``information`` and ``posterior`` are generic code reading
it.  A record holds the domains and the Fisher information; the log
density, sampler, ML estimator and sample log-likelihood on a grid; the
length scale (sigma for gauss, 1 otherwise), the record at unit scale, a
line family's tail and the probe span; the discrete support (binom) and the
period (trig, binom); the carrier whose H it uses (binom -> trig); and, on
carriers, the order of H's Taylor remainder, the closed H, its derivatives
and closed maxima, the stable log ratio (``h_terms`` gives it with ln p
from shared terms) and the density zeros where the H and curvature
integrands are singular (trig).  The ``integral_over_x`` of a
unit record makes every integral over the observations (normalization,
both Fisher forms, H), and ``over_x`` evaluates one; the numeric routes
apply the scale once, by change of variables.  All operations are
pure; sampling is deterministic given the seed.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings
from dataclasses import dataclass, field
from enum import Enum

from ._lazy import LazyNumpy
from .errors import InputError, QuadratureError
from .quadrature import Integral, IntegrationResult, QuadratureConfig

np = LazyNumpy(globals())

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
# Observations x grid points summed as one block by the trig likelihood
# kernel (2**16): the rows of a block are fixed by the grid's size, so each
# column's bits are, and memory stays bounded in N.  The kernel evaluates a
# block in column chunks of at most _PASS_ELEMENTS entries.
_BLOCK_ELEMENTS = 1 << 16
# Entries per pass of the trig kernel and of its bounds (128 kB per
# temporary, which stays in cache; a pass over fewer points takes more
# rows).  Buffers this small are reused by the allocator.
_PASS_ELEMENTS = 1 << 14
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
# Grid points of the trig ML scan whose kernel value is within this of the
# best one are refined as candidates.
_TRIG_CANDIDATE_GAP = 1e-6
# Grid steps per block at each level of the trig ML scan's branch and bound,
# coarse to fine; each width divides the one before it, and blocks stay
# narrower than pi.
_SCAN_LEVELS = (256, 32, 4)
# Bound on the absolute error of any |cos(x - xi)| formed by angle addition
# from numpy's sines and cosines (two products of rounded unit-size factors
# and a sum, about 2e-15 at 4 ulp per sine or cosine), or of an entry the
# kernel recomputes as |cos(x - xi)| (about 1.2e-15).
_TRIG_ROUNDING = 4e-15
# Bisection passes of the trig sampler before its Newton steps (a bracket of
# pi/64, from which Newton converges in a few steps wherever the density is
# not small), and the Newton passes after which open draws are bisected.
_SAMPLE_BISECTIONS = 6
_SAMPLE_NEWTON_PASSES = 12


class ModelId(Enum):
    CHI_SQUARED_LOG = "chi2log"
    GAUSSIAN_SHIFT = "gauss"
    TRIG_TRANSLATIONAL = "trig"
    BINOMIAL_TRIG_IRF = "binom"


class AmbiguousMaximumWarning(UserWarning):
    """The likelihood has several global maxima; the smallest one is returned."""


@dataclass(frozen=True)
class ModelSpec:
    """One model family at one sigma; the other fields are read from its record."""

    id: ModelId
    x_domain: tuple[float, float] = field(init=False)
    xi_domain: tuple[float, float] = field(init=False)
    sigma_param: float = 1.0
    analytic_fisher: float = field(init=False)
    _family: _Family = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        family = _FAMILIES[self.id](self.sigma_param)
        object.__setattr__(self, "x_domain", family.x_domain)
        object.__setattr__(self, "xi_domain", family.xi_domain)
        object.__setattr__(self, "analytic_fisher", family.fisher)
        object.__setattr__(self, "_family", family)

    @property
    def discrete_x(self) -> bool:
        return self._family.support is not None


class Observations:
    """Observed values, held as one read-only float array shared by every reader.

    Built from any one-dimensional sequence of numbers, a float array
    included.  ``values``, the same numbers as a tuple of Python floats, is
    built on first access; the length, equality and hash read the array and
    keep the tuple's semantics (0.0 equals -0.0 and hashes alike; a NaN
    makes two instances unequal).  Instances are immutable.
    """

    __slots__ = ("_array", "_values")

    def __init__(self, values):
        array = np.array(values, dtype=float)
        if array.ndim != 1 or array.size < 1:
            raise InputError("Observations needs a one-dimensional sequence of at least one value")
        array.flags.writeable = False
        object.__setattr__(self, "_array", array)
        object.__setattr__(self, "_values", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"Observations is immutable; cannot set {name!r}")

    @property
    def values(self) -> tuple[float, ...]:
        if self._values is None:
            object.__setattr__(self, "_values", tuple(self._array.tolist()))
        return self._values

    @property
    def n(self) -> int:
        return self._array.size

    def as_array(self) -> np.ndarray:
        return self._array

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or bool(np.array_equal(self._array, other._array))

    def __hash__(self):
        return hash((self._array + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0

    def __repr__(self):
        return f"Observations(values={self.values!r})"

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return Observations, (self._array,)


class _Family:
    """What gaussn knows about one model family, at one sigma.

    The vectorized formulas do no domain validation: finite differences and
    posterior grids probe slightly outside the parameter domain, where they
    are still defined; a log density of -inf marks a zero of the density.
    An attribute left at None does not apply to the family.
    """

    scale = 1.0  # length scale of x and xi
    tail = None  # line families: half-width about 0 beyond which the unit record's p is negligible
    support = None  # the observation values of a discrete family
    period = None  # the period in xi of a periodic likelihood
    # Carriers: the order of H's Taylor remainder at 0 (4 where H is even and
    # smooth, else 3), H(delta), H^(order)(delta), max |H^(order)| on |delta|
    # <= w (None if not closed), ln p(u + delta) - ln p(u) elementwise for an
    # array of delta aligned with u, zeros in x of p(x | xi).  The quadrature
    # H keeps H <= 0 only down to a shift, measured at 100 shifts per decade:
    # |delta| >= 4e-13 for chi2log, 3e-17 for gauss and 1e-8 for trig.  Below
    # it, a line family's H sits under the 1e-17 floor of _h_unit's absolute
    # tolerance (chi2log H(1e-15) is +2.01e-18, gauss H(1e-17) +5.5e-35);
    # without the floor the tolerance is unreachable.  Trig's log ratio
    # subtracts two logs: H(2e-9) is +1.9e-17, where cos 2 delta - 1 is -8e-18.
    order = h = h_derivative = h_max = log_ratio = zeros = None

    def __init__(self, sigma: float):
        if not math.isfinite(sigma):
            raise InputError(f"sigma must be finite, got {sigma!r}")
        if sigma != 1.0:
            raise InputError(
                f"sigma must be 1 for a model without a length scale, got {sigma!r}; "
                "gauss is the one model with a scale"
            )

    @property
    def carrier(self) -> _Family:
        """The family whose H this one uses."""
        return self

    @property
    def unit(self) -> _Family:
        """This family at scale 1, which the numeric routes integrate.

        Under x -> x / scale, F = F_1 / scale^2 and H(delta) = H_1(delta / scale).
        """
        return self

    def density(self, x, xi):
        return np.exp(self.log_density(x, xi))

    def nudge(self, xi):
        """Where the numeric routes evaluate in place of xi.

        F and the total probability do not depend on xi: a line family is
        evaluated at xi = 0, the centre of its integration window.
        """
        return xi if self.tail is None else 0.0

    def over_x(self, f, cfg: QuadratureConfig | None = None, log_points=None):
        """The integral of ``f`` (array of x to values) over the observations.

        A discrete family sums over its support (error estimate 0); any
        other is integrated as ``integral_over_x`` says.
        """
        if self.support is not None:
            return IntegrationResult(float(np.sum(f(np.array(self.support)))), 0.0, 0)
        return self.integral_over_x(cfg, log_points)(f)

    def integral_over_x(self, cfg: QuadratureConfig | None = None, log_points=None) -> Integral:
        """The integral over the observations of a family with continuous x.

        ``log_points``, the x where the integrand diverges logarithmically or
        has a kink, split the integral.  A line family is truncated at |x| =
        ``tail`` (the family's window replaces ``cfg.tail_cutoff``), which
        holds its unit record's density at xi = 0.
        """
        cfg = cfg or QuadratureConfig()
        if log_points is not None:
            return Integral(self.x_domain, cfg, log_points)
        if self.tail is not None:
            cfg = dataclasses.replace(cfg, tail_cutoff=self.tail)
        return Integral(self.x_domain, cfg)

    def h_terms(self, us, deltas):
        """ln p(u) at xi = 0 and the log ratio at ``deltas``: the terms of H's integrand.

        A carrier whose two terms share work computes it once here.
        """
        return self.log_density(us, 0.0), self.log_ratio(us, deltas)

    def check_shift(self, delta: float):
        if self.period is not None and abs(delta) > self.period:
            raise InputError(f"shift {delta!r} exceeds one period (|delta| <= pi)")


class _Chi2Log(_Family):
    x_domain = xi_domain = (-math.inf, math.inf)
    fisher = 1.0
    order = 3  # H''' = -e^delta is -1 at 0
    tail = 40.0
    probe_span = (-3.0, 3.0)

    def log_density(self, x, xi):
        u = x - xi
        return u - np.exp(u)

    def sample(self, rng, xi, n):
        # e^(x - xi) is standard exponential under this density
        return xi + np.log(rng.standard_exponential(n))

    def ml(self, xs):
        # argmax of sum(x_k - xi - e^(x_k - xi)) is ln(mean(e^(x_k)))
        return float(_logsumexp(xs) - math.log(xs.size))

    def log_lik(self, xs, grid):
        # sum_k (x_k - xi - e^(x_k - xi)) = -N (d + e^(-d) - 1) + const, d = xi - xi_ml
        d = grid - self.ml(xs)
        return -xs.size * (d + np.expm1(-d))

    # e^delta, and with it H, its derivatives and the log ratio, overflows a
    # double beyond this shift.
    max_shift = math.log(sys.float_info.max)

    def h(self, delta):
        try:
            return float(delta + 1.0 - math.exp(delta))
        except OverflowError:
            raise self._overflow("H", delta) from None

    def h_derivative(self, order, delta):
        try:
            return float(1.0 - math.exp(delta)) if order == 1 else float(-math.exp(delta))
        except OverflowError:
            raise self._overflow(f"H^({order})", delta) from None

    def h_max(self, order, w):
        try:
            return float(math.exp(w)) if order == 3 else None  # H''' = -e^delta is monotone
        except OverflowError:
            raise self._overflow("max |H'''| over the halfwidth", w) from None

    def _overflow(self, what, delta):
        return InputError(
            f"chi2log {what} at {float(delta)!r} overflows: "
            f"e^delta is finite only for delta <= {self.max_shift!r}"
        )

    def log_ratio(self, us, delta):
        return self._log_ratio(np.exp(us), delta)

    def h_terms(self, us, deltas):
        eu = np.exp(us)  # once, for both terms
        return us - eu, self._log_ratio(eu, deltas)

    def _log_ratio(self, eu, delta):
        """The log ratio at ``delta`` from e^u."""
        with np.errstate(over="ignore"):
            growth = np.expm1(delta)
            first = growth.argmax()  # the first overflow, if any, in the order given
            if growth.flat[first] == math.inf:
                shift = float(np.asarray(delta).flat[first])
                raise QuadratureError(
                    f"expm1({shift!r}) overflowed: the chi2log log ratio is finite "
                    f"only for delta <= {self.max_shift!r}"
                )
            return delta - eu * growth


class _Gauss(_Family):
    x_domain = xi_domain = (-math.inf, math.inf)
    order = 4  # H is exactly quadratic
    tail = 12.0
    probe_span = (-3.0, 3.0)

    # F = 1/sigma^2 and F^2, which the fourth-order criterion divides by, are
    # normal doubles for sigma strictly inside this range (set by the float
    # limits, about 1e-77 and 1e77).
    sigma_range = (sys.float_info.max**-0.25, sys.float_info.min**-0.25)

    def __init__(self, sigma: float):
        lo, hi = self.sigma_range
        if not lo < sigma < hi:
            raise InputError(
                f"gauss sigma {sigma!r} out of range: 1/sigma^2 and its square must be "
                f"finite, nonzero doubles at full precision, so {lo:.3g} < sigma < {hi:.3g}"
            )
        self.sigma = sigma
        self.fisher = 1.0 / sigma**2
        self.scale = sigma

    @property
    def unit(self) -> _Gauss:
        return self if self.sigma == 1.0 else _Gauss(1.0)

    def log_density(self, x, xi):
        s2 = self.sigma**2
        return -0.5 * math.log(2.0 * math.pi * s2) - (x - xi) ** 2 / (2.0 * s2)

    def sample(self, rng, xi, n):
        return xi + self.sigma * rng.standard_normal(n)

    def ml(self, xs):
        return float(np.mean(xs))

    def log_lik(self, xs, grid):
        return -xs.size * (grid - np.mean(xs)) ** 2 / (2.0 * self.sigma**2)

    def h(self, delta):
        return float(-(delta**2) / (2.0 * self.sigma**2))

    def h_derivative(self, order, delta):
        s2 = self.sigma**2
        if order == 1:
            return float(-delta / s2)
        return float(-1.0 / s2) if order == 2 else 0.0

    def h_max(self, order, w):
        return 0.0 if order >= 3 else None  # H is exactly quadratic

    def log_ratio(self, us, delta):
        return -(2.0 * us + delta) * delta / (2.0 * self.sigma**2)


class _Trig(_Family):
    x_domain = xi_domain = (-_HALF_PI, _HALF_PI)
    fisher = 4.0
    order = 4  # H is even
    probe_span = (-1.4, 1.4)
    period = math.pi

    def log_density(self, x, xi):
        with np.errstate(divide="ignore"):
            return math.log(2.0 / math.pi) + 2.0 * np.log(np.abs(np.cos(x - xi)))

    def sample(self, rng, xi, n):
        return _trig_inverse_cdf(rng.random(n), xi)

    def ml(self, xs):
        """Refine every point of a 4001-point grid within 1e-6 of its best value.

        The grid values are those of the kernel ``_trig_log_lik`` over the
        whole grid, but only the columns that can come within 1e-6 of the
        best are computed (``_trig_scan``), bit for bit as in the whole
        scan; every other column is shown to lie below that line by an
        upper bound.  So the candidates, and the estimate, are the whole
        scan's.
        """
        lo, hi = self.xi_domain
        grid = np.linspace(lo, hi, 4001)
        columns, ll = _trig_scan(xs, grid)
        best = np.max(ll)
        step = grid[1] - grid[0]
        # Local maxima whose grid value is within resolution of the global one.
        refined = []
        for i in columns[ll >= best - _TRIG_CANDIDATE_GAP]:
            a = max(grid[max(i - 1, 0)] - step, lo)
            b = min(grid[min(i + 1, grid.size - 1)] + step, hi)
            t = _trig_refine(xs, float(grid[i]), float(a), float(b))
            refined.append((t, float(np.sum(self.log_density(xs, t)))))
        top = max(v for _, v in refined)
        ties = sorted(t for t, v in refined if v >= top - _TRIG_TIE_TOL)
        winners = ties[:1] + [t for prev, t in zip(ties, ties[1:]) if t - prev > _TRIG_TIE_TOL]
        if len(winners) > 1:
            warnings.warn(
                f"likelihood has {len(winners)} global maxima {winners}; returning the smallest",
                AmbiguousMaximumWarning,
            )
        return winners[0]

    def log_lik(self, xs, grid):
        return _trig_log_lik(xs, grid)

    def h(self, delta):
        return float(math.cos(2.0 * delta) - 1.0)

    def h_derivative(self, order, delta):
        return float(2.0**order * math.cos(2.0 * delta + order * _HALF_PI))

    def h_max(self, order, w):
        return 16.0 if order == 4 else None  # cosine peak at zero

    def log_ratio(self, us, delta):
        with np.errstate(divide="ignore"):
            return 2.0 * (np.log(np.abs(np.cos(us + delta))) - np.log(np.abs(np.cos(us))))

    def h_terms(self, us, deltas):
        with np.errstate(divide="ignore"):
            lc = np.log(np.abs(np.cos(us)))  # once, for both terms
            ratio = 2.0 * (np.log(np.abs(np.cos(us + deltas))) - lc)
        return math.log(2.0 / math.pi) + 2.0 * lc, ratio

    def zeros(self, xi):
        return [xi + k * _HALF_PI for k in (-3, -1, 1, 3)]


class _Binom(_Family):
    x_domain = (0.0, 1.0)
    xi_domain = (-_HALF_PI, _HALF_PI)
    fisher = 4.0
    probe_span = (0.15, 1.4)
    support = (0.0, 1.0)
    period = math.pi
    carrier = _Trig(1.0)  # one record, shared by every binom model

    def log_density(self, x, xi):
        # log cos^2(xi) for x = 1, log sin^2(xi) for x = 0
        with np.errstate(divide="ignore"):
            lc = 2.0 * np.log(np.abs(np.cos(xi)))
            ls = 2.0 * np.log(np.abs(np.sin(xi)))
        return np.where(x == 1.0, lc, ls)

    def nudge(self, xi):
        """Move xi off 0 and +-pi/2, where one outcome has probability zero.

        There the Fisher sum holds a 0 * inf limit that a pointwise finite
        difference cannot represent.  F is constant in xi, so evaluating a
        short distance away is exact; 0.05 keeps the second-difference
        truncation error below 1e-5.
        """
        margin = 0.05
        if abs(xi) < margin:
            return margin
        if xi > _HALF_PI - margin:
            return _HALF_PI - margin
        if xi < -_HALF_PI + margin:
            return -_HALF_PI + margin
        return xi

    def sample(self, rng, xi, n):
        return (rng.random(n) < math.cos(xi) ** 2).astype(float)

    def ml(self, xs):
        score = float(np.sum(xs))
        return float(math.acos(math.sqrt(min(max(score / xs.size, 0.0), 1.0))))

    def log_lik(self, xs, grid):
        n = xs.size
        score = float(np.sum(xs))
        with np.errstate(divide="ignore"):
            log_lik = np.zeros_like(grid)
            # guard the coefficients so 0 * log(0) cannot produce NaN
            if score > 0:
                log_lik = log_lik + 2.0 * score * np.log(np.abs(np.cos(grid)))
            if n - score > 0:
                log_lik = log_lik + 2.0 * (n - score) * np.log(np.abs(np.sin(grid)))
        return log_lik


_FAMILIES = {
    ModelId.CHI_SQUARED_LOG: _Chi2Log,
    ModelId.GAUSSIAN_SHIFT: _Gauss,
    ModelId.TRIG_TRANSLATIONAL: _Trig,
    ModelId.BINOMIAL_TRIG_IRF: _Binom,
}


def make_model(model_id: ModelId | str, sigma: float = 1.0) -> ModelSpec:
    """Build the description of one of the bundled models.

    ``sigma`` is the Gaussian shift family's length scale and must be
    finite and positive; the other families have no scale and take only 1.
    """
    mid = ModelId(model_id) if not isinstance(model_id, ModelId) else model_id
    if math.isnan(sigma):  # before the sign test, which NaN also fails
        raise InputError(f"sigma must be finite, got {sigma!r}")
    if not sigma > 0:
        raise InputError("sigma must be strictly positive")
    return ModelSpec(mid, sigma)


def _check_xi(model: ModelSpec, xi: float):
    if not math.isfinite(xi):
        raise InputError(f"parameter {xi!r} must be finite")
    lo, hi = model.xi_domain
    if not (lo <= xi <= hi):
        raise InputError(f"parameter {xi!r} outside domain [{lo!r}, {hi!r}]")


def _check_x(model: ModelSpec, x):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(xs)):
        raise InputError("observations must be finite")
    if model.discrete_x and not np.all(np.isin(xs, model._family.support)):
        raise InputError(f"{model.id.value} observations must be one of {model._family.support}")
    lo, hi = model.x_domain
    if not np.all((xs >= lo) & (xs <= hi)):
        raise InputError(f"observation outside domain [{lo!r}, {hi!r}]")


def density(model: ModelSpec, x: float, xi: float) -> float:
    """Probability density (or probability mass, for the binomial) p(x|xi)."""
    _check_xi(model, xi)
    _check_x(model, x)
    return float(model._family.density(np.asarray(x, dtype=float), xi))


def log_density(model: ModelSpec, x: float, xi: float) -> float:
    _check_xi(model, xi)
    _check_x(model, x)
    return float(model._family.log_density(np.asarray(x, dtype=float), xi))


def normalization_check(model: ModelSpec, xi: float, cfg: QuadratureConfig | None = None) -> float:
    """Total probability over the observation domain; must come out 1.

    It does not change under x -> x / scale, nor with xi, so it is the
    unit record's, at its ``nudge`` of xi.
    """
    _check_xi(model, xi)
    unit = model._family.unit
    xi = unit.nudge(xi)
    return unit.over_x(lambda xs: unit.density(xs, xi), cfg).value


def ml_estimate(model: ModelSpec, obs: Observations) -> float:
    """Parameter value maximizing the likelihood of ``obs``.

    Closed forms exist for three variants: the log-mean-exp for chi2log, the
    mean for gauss, and the share of ones for binom.  The binomial model
    returns the nonnegative root; cos^2 is even, so its mirror image is an
    equally good estimate.

    The trigonometric model takes the log-likelihood on a 4001-point grid
    over one period from the kernel ``_trig_log_lik`` (angle addition, one
    log per 16 observations; within about 1e-11 of the exact sum at
    N = 500), then refines every grid point within 1e-6 of the best by
    safeguarded Newton on the analytic score 2 sum tan(x_k - xi): the
    log-likelihood is concave between its poles xi = x_k +- pi/2, so each
    refinement has one maximum to find.  The kernel runs only on the grid
    points that upper bounds cannot place more than 1e-6 below a proven
    lower bound on the best (about 90 of the 4001 at N of 8 and more).
    A bound over a block of the grid takes, per observation, the largest
    |cos(x_k - xi)| over the block, which is 1 where x_k lies in the block
    and otherwise sits at an end, and is widened by the rounding of the
    kernel and of its sums.  The points the kernel evaluates get the whole
    grid's bits, so the candidates, and the estimate, are those of the
    whole 4001-point scan.  Refined maxima closer than 1e-9
    to each other are one maximum.  When several distinct global maxima
    tie (possible because the density is pi-periodic in the difference),
    the smallest maximizer is returned and an
    :class:`AmbiguousMaximumWarning` is emitted.
    """
    xs = obs.as_array()
    _check_x(model, xs)
    return model._family.ml(xs)


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
    take one log each.  Rows are summed in blocks of about _BLOCK_ELEMENTS
    entries, a multiple of _LOG_GROUP rows each (``_kernel_rows``).  The
    grid is split evenly into column chunks whose blocks hold at most
    _PASS_ELEMENTS entries (128 kB), so the two buffers of a chunk stay in
    cache.  A chunk takes three columns where such a block would take
    fewer (grids below 12 points), so none has one column unless the grid
    has: taking the rows of the whole grid, every chunk of two or more
    columns gets the whole grid's bits (``_trig_columns``).
    """
    rows = _kernel_rows(grid.size)
    cos_x, sin_x, cos_g, sin_g = np.cos(xs), np.sin(xs), np.cos(grid), np.sin(grid)
    chunks = -(-grid.size // max(3, _PASS_ELEMENTS // rows))
    edges = [j * grid.size // chunks for j in range(chunks + 1)]
    return np.concatenate(
        [
            _trig_columns(xs, cos_x, sin_x, grid[a:b], cos_g[a:b], sin_g[a:b], rows)
            for a, b in zip(edges, edges[1:])
        ]
    )


def _kernel_rows(columns: int) -> int:
    """Rows per block of the trig kernel on a grid of ``columns`` points."""
    return max(1, _BLOCK_ELEMENTS // (columns * _LOG_GROUP)) * _LOG_GROUP


def _trig_columns(xs, cos_x, sin_x, grid, cos_g, sin_g, rows: int) -> np.ndarray:
    """The trig kernel at the points ``grid``, summed in blocks of ``rows`` rows.

    A block adds the logs of its _LOG_GROUP-row products in order (then,
    in the last block, the logs of its left-over rows), and the total adds
    the block sums in order.  A column's value therefore depends only on
    its own entries and on ``rows``: any two or more columns of a grid,
    evaluated with the rows of the whole grid, get the whole scan's bits.
    (With one column numpy would sum eight or more left-over rows along
    contiguous memory, pairwise, which rounds in another order.)  One pass
    fills one block, or several up to about _PASS_ELEMENTS entries when the
    columns are few, into two buffers allocated once (a fresh allocation
    per pass would page-fault its memory every time).
    """
    n, g = xs.size, grid.size
    per_pass = max(1, _PASS_ELEMENTS // (rows * g)) * rows
    buffer = np.empty((min(per_pass, n), g))
    scratch = np.empty_like(buffer)
    total = np.zeros(g)
    for start in range(0, n, per_pass):
        stop = min(start + per_pass, n)
        block, products = buffer[: stop - start], scratch[: stop - start]
        np.copyto(block, cos_x[start:stop, None])
        block *= cos_g
        np.copyto(products, sin_x[start:stop, None])
        products *= sin_g
        block += products
        np.abs(block, out=block)
        if np.min(block) < _COS_FLOOR:
            i, j = np.nonzero(block < _COS_FLOOR)
            block[i, j] = np.abs(np.cos(xs[start + i] - grid[j]))
        full = block.shape[0] // rows * rows
        groups = block[:full].reshape(-1, rows // _LOG_GROUP, _LOG_GROUP, g)
        for block_sum in np.sum(np.log(np.prod(groups, axis=2)), axis=1):
            total += block_sum
        if full < block.shape[0]:  # the last block, shorter than ``rows``
            whole = block.shape[0] - block.shape[0] % _LOG_GROUP
            groups = block[full:whole].reshape(-1, _LOG_GROUP, g)
            total += np.sum(np.log(np.prod(groups, axis=1)), axis=0)
            total += np.sum(np.log(block[whole:]), axis=0)
    return 2.0 * total + n * math.log(2.0 / math.pi)


def _trig_scan(xs: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``grid`` that may hold trig ML candidates, and their kernel values.

    Returns (columns, values), columns ascending.  ``values`` equal
    ``_trig_log_lik(xs, grid)[columns]`` bit for bit, and every other
    column's kernel value is below max(values) - _TRIG_CANDIDATE_GAP.

    Branch and bound over blocks of grid steps (``_trig_bounds``).  The
    line is the best lower bound on the kernel found so far: at the nine
    points around the circular-mean estimate arg(sum e^(2ix))/2, then at
    the edges of each level's blocks.  Blocks of _SCAN_LEVELS[0] steps
    whose upper bound falls below line - _TRIG_CANDIDATE_GAP are dropped,
    the others are split into the next width and bounded again, and the
    kernel evaluates the columns of the finest blocks left (whole blocks,
    so at least two columns).  A dropped column cannot be a candidate: its
    value is at most its block's upper bound, and the line is at most the
    best value.
    """
    cos_x, sin_x = np.cos(xs), np.sin(xs)
    cos_g, sin_g = np.cos(grid), np.sin(grid)
    last = grid.size - 1
    # arg(sum e^(2ix)) / 2, from sin 2x = 2 sin x cos x and cos 2x = cos^2 x - sin^2 x
    centre = 0.5 * math.atan2(2.0 * np.sum(sin_x * cos_x), np.sum((cos_x - sin_x) * (cos_x + sin_x)))
    nearest = round((centre - grid[0]) / (grid[1] - grid[0]))
    near = np.arange(max(nearest - 4, 0), min(nearest + 4, last) + 1)
    line = np.max(_trig_bounds(xs, cos_x, sin_x, grid[near], cos_g[near], sin_g[near])[0])
    lo = np.arange(0, last, _SCAN_LEVELS[0])
    for width, finer in zip(_SCAN_LEVELS, _SCAN_LEVELS[1:] + (None,)):
        # Blocks [lo, lo + width] are the spans between consecutive edges;
        # the spans between blocks are bounded along with them and dropped.
        edges = _grid_points(grid.size, lo, np.minimum(lo + width, last))
        below, above = _trig_bounds(xs, cos_x, sin_x, grid[edges], cos_g[edges], sin_g[edges])
        line = max(line, np.max(below))
        lo = lo[above[np.searchsorted(edges, lo)] >= line - _TRIG_CANDIDATE_GAP]
        if finer is not None:
            lo = (lo[:, None] + np.arange(0, width, finer)).ravel()
            lo = lo[lo < last]
    leaves = np.minimum(lo[:, None] + np.arange(_SCAN_LEVELS[-1] + 1), last)
    columns = _grid_points(grid.size, leaves)
    rows = _kernel_rows(grid.size)
    values = _trig_columns(xs, cos_x, sin_x, grid[columns], cos_g[columns], sin_g[columns], rows)
    return columns, values


def _grid_points(size: int, *indices: np.ndarray) -> np.ndarray:
    """The distinct grid indices among ``indices``, ascending.

    (np.unique would do, but its first call in a process adds about 1 MB
    of resident memory.)
    """
    hit = np.zeros(size, dtype=bool)
    for i in indices:
        hit[i] = True
    return np.flatnonzero(hit)


def _trig_bounds(xs, cos_x, sin_x, points, cos_p, sin_p) -> tuple[np.ndarray, np.ndarray]:
    """(Lower bounds on the trig kernel at points, upper bounds over the spans between them).

    ``points`` are ascending grid values in [-pi/2, pi/2]; the
    observations ``xs`` and the points come with their cosines and sines.
    Both bounds are sums sum_k ln((2/pi) f_k^2) over factors f_k that
    bound the kernel's entries |cos(x_k - xi)|.  Each entry, and each
    |cos(x_k - p)| formed here by angle addition, is within
    _TRIG_ROUNDING of the exact value.

    Below at a point: f_k = |cos(x_k - p)| - 2 _TRIG_ROUNDING.  Above over
    a span: |cos(x_k - xi)| peaks at xi = x_k + j pi and is monotone in
    between, so over a span without a peak inside it is largest at an end.
    Only xi = x_k can lie inside a span; x_k +- pi lies beyond +-pi/2, or on
    it.  So f_k = 1 where x_k lies inside the span, and otherwise the
    larger |cos(x_k - p)| at the ends, plus 2 _TRIG_ROUNDING (which also
    covers a peak on an end, where |cos| is 1 to rounding).

    Each bound is moved away from the kernel by the rounding of the two
    sums compared: the kernel adds about N/16 rounded logs of products in
    order, the bound sums N rounded logs pairwise per pass and adds the
    passes in order, so each is within (N/16 + 16) 2^-53 (|S| + N) of its
    exact value S, the N covering the products, the logs and terms just
    above 0.  The kernel's exact sum lies beyond the bound's exact sum B on
    the side of 0 (both are at most about 0), so the kernel's error, a
    fraction of its own magnitude, is at most that fraction of |B|.  The
    margin is twice the sum of both errors.  Observations are taken in
    passes of about _PASS_ELEMENTS entries (at most _BLOCK_ELEMENTS),
    written into buffers allocated once.
    """
    n, count = xs.size, points.size
    rows = max(1, _PASS_ELEMENTS // count)
    cos_p, sin_p = cos_p[:, None], sin_p[:, None]
    buffers = np.empty((2, count * min(rows, n)))
    lower = upper = 0.0
    with np.errstate(divide="ignore"):
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            cos, scratch = (b[: count * (stop - start)].reshape(count, -1) for b in buffers)
            cos = np.multiply(cos_p, cos_x[start:stop], out=cos)
            cos += np.multiply(sin_p, sin_x[start:stop], out=scratch)
            np.abs(cos, out=cos)
            peak = np.maximum(cos[:-1], cos[1:], out=scratch[:-1])
            # the span holding x: points[span] < x <= points[span + 1]
            span = np.searchsorted(points, xs[start:stop]) - 1
            inside = np.flatnonzero((span >= 0) & (span < count - 1))
            peak[span[inside], inside] = 1.0
            peak += 2.0 * _TRIG_ROUNDING
            upper = upper + np.sum(np.log(peak, out=peak), axis=1)
            cos -= 2.0 * _TRIG_ROUNDING
            lower = lower + np.sum(np.log(np.maximum(cos, 0.0, out=cos), out=cos), axis=1)
    sums = 2.0 * np.concatenate([lower, upper]) + n * math.log(2.0 / math.pi)
    margin = 4.0 * np.finfo(float).eps * (n / _LOG_GROUP + _LOG_GROUP) * (np.abs(sums) + n)
    return sums[:count] - margin[:count], sums[count:] + margin[count:]


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


def _trig_inverse_cdf(us: np.ndarray, xi: float) -> np.ndarray:
    """x with CDF(x) = u for each u, by safeguarded Newton on the whole array at once.

    CDF(x) = prim(x - xi) - prim(-pi/2 - xi), prim(v) = (v + sin(2v)/2) / pi,
    the antiderivative of the density f(x) = (2/pi) cos^2(x - xi).  Each
    draw keeps a bracket, first halved _SAMPLE_BISECTIONS times, then
    narrowed by Newton steps x <- x - (CDF(x) - u) / f(x) from its middle:
    the sign of CDF(x) - u moves the bracket, and a step that leaves it is
    replaced by the bracket's middle.  Steps are clipped to [-pi/2, pi/2]
    first, so a root on an end of the domain (u = 0 where the density is
    large there) is stepped onto, not bisected towards.  A draw is done
    when its step is at most 1e-15 or its bracket at most 1e-14.  Draws
    still open after _SAMPLE_NEWTON_PASSES steps (where the density is
    small, and Newton steps overshoot) finish by bisection of their
    brackets (``_trig_bisect_cdf``), which returns the middle of the band
    of x over which the computed CDF equals u.
    """
    floor = _trig_prim(-_HALF_PI - xi)
    lo = np.full(us.size, -_HALF_PI)
    hi = np.full(us.size, _HALF_PI)
    for _ in range(_SAMPLE_BISECTIONS):
        mid = 0.5 * (lo + hi)
        below = _trig_prim(mid - xi) - floor < us
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    xs = np.empty(us.size)
    todo = np.arange(us.size)
    x = 0.5 * (lo + hi)
    for _ in range(_SAMPLE_NEWTON_PASSES):
        v = x - xi
        excess = _trig_prim(v) - floor - us
        lo = np.where(excess < 0.0, x, lo)
        hi = np.where(excess > 0.0, x, hi)
        # |v| <= pi, so cos(v)^2 is at least about 4e-33 and the step is finite
        nxt = np.clip(x - excess / ((2.0 / math.pi) * np.cos(v) ** 2), -_HALF_PI, _HALF_PI)
        outside = (nxt < lo) | (nxt > hi)
        nxt[outside] = 0.5 * (lo[outside] + hi[outside])
        done = (np.abs(nxt - x) <= 1e-15) | (hi - lo <= 1e-14)
        xs[todo[done]] = nxt[done]
        left = ~done
        todo, x, lo, hi, us = todo[left], nxt[left], lo[left], hi[left], us[left]
        if not todo.size:
            return xs
    xs[todo] = _trig_bisect_cdf(us, xi, lo, hi)
    return xs


def _trig_prim(v):
    """(v + sin(2v)/2) / pi, the antiderivative of (2/pi) cos^2(v)."""
    return (v + 0.5 * np.sin(2.0 * v)) / math.pi


def _trig_bisect_cdf(us: np.ndarray, xi: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """x with CDF(x) = u for each u, by bisection of the brackets [lo, hi].

    Where the density is small the computed CDF equals u over a band of x
    wider than the tolerance, so two copies of each bracket are halved side
    by side, one closing on each end of that band, until both are narrower
    than 1e-14; the middle of the band is returned.
    """
    floor = _trig_prim(-_HALF_PI - xi)
    lo = np.stack([lo, lo])
    hi = np.stack([hi, hi])
    while np.max(hi - lo) > 1e-14:
        mid = 0.5 * (lo + hi)
        cdf = _trig_prim(mid - xi) - floor
        below = np.stack([cdf[0] < us, cdf[1] <= us])
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.25 * np.sum(lo + hi, axis=0)


def sample(model: ModelSpec, xi_true: float, n: int, seed: int) -> Observations:
    """Draw ``n`` observations at ``xi_true``, reproducibly for a given seed.

    The line models use exact transforms of standard generator output; the
    trigonometric model inverts its closed-form CDF at n uniform draws by
    vectorised Newton steps kept inside a bracket, to within rounding of
    the CDF (``_trig_inverse_cdf``), so no rejection loop perturbs the
    stream.
    """
    _check_xi(model, xi_true)
    if n < 1:
        raise InputError("sample size must be at least 1")
    if seed < 0:
        raise InputError(f"seed must be nonnegative, got {seed!r}")
    return Observations(model._family.sample(np.random.default_rng(seed), xi_true, n))
