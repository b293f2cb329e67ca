"""One-dimensional adaptive quadrature with explicit treatment of
integrable logarithmic divergences.

Design
------
Panels are refined by bisection, worst estimated error first.  Each panel is
evaluated with a fixed 15-point Gauss-Kronrod rule; the embedded 7-point
Gauss rule supplies the error estimate (sharpened with the usual QUADPACK
heuristic so that machine-converged panels are not refined forever).
Unbounded ends are truncated at ``+-tail_cutoff`` after checking that the
integrand is already negligible there.

Integrands with logarithmic divergences (``ln cos^2`` and friends) or kinks
at known points are split there, as QUADPACK's QAGP does.  Each piece is
integrated through a cubic change of variables whose derivative vanishes at
both of its ends, which turns a divergence or kink at an end into a mild
``(1 - s) ln(1 - s)`` term that a few bisections resolve.

Integrand convention: callables receive a numpy array of abscissae and must
return an array of values (all integrands in this package are numpy
vectorized).

Integrand calls: a split evaluates both halves in one call on their 30
abscissae.  Each half is rated from its own 15 values by its own dot
products, so the partition and the totals do not depend on how the abscissae
are grouped into calls.

Panel sums: each is one 15-term ``ndarray.dot`` of a weight vector and a
panel's values (BLAS ddot), and the tests pin its bits against the same sum
written with ``@``.  The sums of several panels are not batched into one
matrix product: which BLAS kernel numpy picks for such a product depends on
its shapes, and some of those kernels round differently from ddot, so a
batched sum would move output bits.

Determinism: panels are totalled in ascending interval order with
compensated summation, so results do not depend on refinement scheduling.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import sys
from dataclasses import dataclass

from ._lazy import LazyNumpy
from .errors import InputError, QuadratureError

np = LazyNumpy(globals())

__all__ = [
    "QuadratureConfig",
    "IntegrationResult",
    "integrate",
    "integrate_with_log_singularity",
]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1].  The
# literals are Python floats; ``_build_rule`` makes the arrays the rule
# multiplies (_NODES, _WK, _WG) from them on the first integration, so
# importing this module loads no numpy.
_XGK_HALF = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WGK_HALF = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)
_WGK_CENTER = 0.209482141084728
# Gauss-7 weights sit on Kronrod nodes 1, 3, 5 (half) and the centre.
_WG_HALF = (0.129484966168870, 0.279705391489277, 0.381830050505119)
_WG_CENTER = 0.417959183673469

_EPS = sys.float_info.epsilon


def _build_rule():
    """Bind _NODES, _WK and _WG: the 15 nodes, Kronrod and Gauss weights."""
    global _NODES, _WK, _WG
    xgk_half, wgk_half, wg_half = np.array(_XGK_HALF), np.array(_WGK_HALF), np.array(_WG_HALF)
    _NODES = np.concatenate([-xgk_half, [0.0], xgk_half[::-1]])
    _WK = np.concatenate([wgk_half, [_WGK_CENTER], wgk_half[::-1]])
    wg = np.zeros(15)
    wg[[1, 3, 5]] = wg_half
    wg[7] = _WG_CENTER
    wg[[9, 11, 13]] = wg_half[::-1]
    _WG = wg


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and limits for the adaptive integrator.

    ``tail_cutoff`` is the truncation half-width used for unbounded
    intervals.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    tail_cutoff: float = 40.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "tail_cutoff"):
            if not getattr(self, name) > 0:
                raise InputError(f"{name} must be strictly positive")
        if self.max_subdivisions <= 0:
            raise InputError("max_subdivisions must be strictly positive")
        if self.tail_cutoff < 10:
            raise InputError("tail_cutoff must be at least 10")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegrationResult:
    value: float
    error_estimate: float
    subdivisions_used: int


def _abscissae(a, b):
    """The 15 Kronrod abscissae of the panel [a, b]."""
    return 0.5 * (a + b) + 0.5 * (b - a) * _NODES


def _values(f, xs):
    """Integrand values at the abscissae ``xs``, checked for shape."""
    y = np.asarray(f(xs), dtype=float)
    if y.shape != xs.shape:
        raise InputError("integrand must map an array of abscissae to values")
    return y


def _rule(y, a, b):
    """Gauss-Kronrod 7-15 estimate of the panel [a, b] from its 15 values.

    Every Kronrod weight is positive, so an inf or NaN among the values
    makes the Kronrod sum non-finite; only then are the values inspected
    one by one (a finite panel whose sum overflows is not an error).
    """
    h = 0.5 * (b - a)
    s = float(_WK.dot(y))
    if not math.isfinite(s) and not np.all(np.isfinite(y)):
        raise QuadratureError(f"integrand not finite inside panel [{a!r}, {b!r}]")
    k = h * s
    g = h * float(_WG.dot(y))
    err = abs(k - g)
    resabs = h * float(_WK.dot(np.abs(y)))
    resasc = h * float(_WK.dot(np.abs(y - k / (b - a))))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    # Roundoff floor: a panel cannot honestly claim less than ~50 eps of its
    # absolute mass.
    err = max(err, 50.0 * _EPS * resabs)
    return k, err


def _adaptive(f, a, b, cfg):
    if "_WG" not in globals():  # the first integration in this process
        _build_rule()
    value0, err0 = _rule(_values(f, _abscissae(a, b)), a, b)
    # Max-heap on error; (a, b) breaks ties so scheduling is deterministic.
    heap = [(-err0, a, b, value0, err0)]
    stuck = []  # panels at machine resolution, no longer splittable
    nsub = 0
    run_val = value0
    run_err = err0

    def _exact_totals():
        items = sorted(
            [(pa, pb, pv, pe) for (_, pa, pb, pv, pe) in heap]
            + [(pa, pb, pv, pe) for (pa, pb, pv, pe) in stuck]
        )
        return (
            math.fsum(t[2] for t in items),
            math.fsum(t[3] for t in items),
        )

    while True:
        tol = max(cfg.abs_tol, cfg.rel_tol * abs(run_val))
        if run_err <= tol:
            val, err = _exact_totals()
            if err <= max(cfg.abs_tol, cfg.rel_tol * abs(val)):
                return IntegrationResult(val, err, nsub)
            run_val, run_err = val, err  # drift correction; keep refining
        if not heap:
            val, err = _exact_totals()
            raise QuadratureError(
                "tolerance unreachable: all panels at machine resolution",
                value=val, error_estimate=err, subdivisions_used=nsub,
            )
        if nsub >= cfg.max_subdivisions:
            val, err = _exact_totals()
            raise QuadratureError(
                f"tolerance not reached within {cfg.max_subdivisions} subdivisions "
                f"(best estimate {val!r} +- {err!r})",
                value=val, error_estimate=err, subdivisions_used=nsub,
            )
        _, pa, pb, pv, pe = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        if not (pa < pm < pb):
            stuck.append((pa, pb, pv, pe))
            continue
        # Both halves in one integrand call; each keeps its own 15 values.
        y = _values(f, np.concatenate([_abscissae(pa, pm), _abscissae(pm, pb)]))
        v1, e1 = _rule(y[:15], pa, pm)
        v2, e2 = _rule(y[15:], pm, pb)
        heapq.heappush(heap, (-e1, pa, pm, v1, e1))
        heapq.heappush(heap, (-e2, pm, pb, v2, e2))
        run_val += v1 + v2 - pv
        run_err += e1 + e2 - pe
        nsub += 1


def _truncate_end(f, point, cutoff, threshold, side):
    """Replace an infinite endpoint by +-cutoff, verifying negligibility."""
    edge = cutoff if side == "upper" else -cutoff
    mag = abs(float(_values(f, np.array([edge]))[0]))
    if not mag <= threshold:
        raise QuadratureError(
            f"integrand magnitude {mag:.3e} at truncation point {edge!r} "
            f"exceeds {threshold:.3e}; increase tail_cutoff or tolerances"
        )
    return edge


def integrate(f, interval, cfg: QuadratureConfig | None = None) -> IntegrationResult:
    """Adaptively integrate ``f`` over ``interval`` (either end may be infinite).

    The integrand must be finite on the interior of the interval; use
    :func:`integrate_with_log_singularity` when it has logarithmic
    divergences at known points.
    """
    cfg = cfg or DEFAULT_CONFIG
    a, b = float(interval[0]), float(interval[1])
    if math.isnan(a) or math.isnan(b):
        raise InputError("integration limits must not be NaN")
    if a > b:
        raise InputError(f"empty interval: lower limit {a!r} above upper limit {b!r}")
    if a == b:
        return IntegrationResult(0.0, 0.0, 0)
    threshold = cfg.abs_tol / 100.0
    if math.isinf(a):
        a = _truncate_end(f, a, cfg.tail_cutoff, threshold, "lower")
    if math.isinf(b):
        b = _truncate_end(f, b, cfg.tail_cutoff, threshold, "upper")
    return _adaptive(f, a, b, cfg)


def integrate_with_log_singularity(
    f,
    interval,
    singular_points,
    cfg: QuadratureConfig | None = None,
) -> IntegrationResult:
    """Integrate ``f`` over a finite interval despite logarithmic divergences.

    ``singular_points`` lists the abscissae where ``f`` diverges at most
    logarithmically or has a kink; points outside the interval are ignored.
    The interval is cut at the distinct points strictly inside it, and each
    piece, at ``abs_tol`` over the number of pieces, is integrated over s in
    [-1, 1] with x = m + r s (3 - s^2) / 2, where m is the piece's midpoint
    and r its half-width.  A non-finite value of ``f`` raises
    QuadratureError naming the panel in s.  A piece that misses its
    tolerance does not stop the others: the QuadratureError raised after
    all pieces carries the whole interval's best estimate, the sum over
    the pieces.
    """
    cfg = cfg or DEFAULT_CONFIG
    a, b = float(interval[0]), float(interval[1])
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        raise InputError("interval must be finite for singular integration")
    if a > b:
        raise InputError(f"empty interval: lower limit {a!r} above upper limit {b!r}")
    if a == b:
        return IntegrationResult(0.0, 0.0, 0)
    cuts = [a, *sorted({p for p in map(float, singular_points) if a < p < b}), b]
    piece_cfg = dataclasses.replace(cfg, abs_tol=cfg.abs_tol / (len(cuts) - 1))
    results, failure = [], None
    for lo, hi in zip(cuts, cuts[1:]):
        m, r = 0.5 * (lo + hi), 0.5 * (hi - lo)

        def g(s, m=m, r=r):
            return _values(f, m + r * s * (3.0 - s * s) / 2.0) * (1.5 * r * (1.0 - s * s))

        try:
            results.append(_adaptive(g, -1.0, 1.0, piece_cfg))
        except QuadratureError as exc:
            if exc.value is None:  # not finite inside a panel: no estimate to add
                raise
            results.append(exc)  # carries the piece's best estimate
            failure = failure or exc
    value = math.fsum(res.value for res in results)
    error = math.fsum(res.error_estimate for res in results)
    used = sum(res.subdivisions_used for res in results)
    if failure is None:
        return IntegrationResult(value, error, used)
    if len(results) == 1:
        raise failure  # one piece: its estimate is the whole interval's
    reason = str(failure).partition(" (best estimate")[0]
    raise QuadratureError(
        f"{reason} on a piece of [{a!r}, {b!r}]; best estimate over the whole "
        f"interval {value!r} +- {error!r}",
        value=value, error_estimate=error, subdivisions_used=used,
    )
