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

Integrands with isolated logarithmic divergences (``ln cos^2`` and friends)
are handled by excising an ``epsilon`` interval around each declared singular
point.  The excised mass matters at the 1e-7 level, so it is not dropped:
the integrand next to each excision is fitted to

    A2*ln(|u|)^2 + A1*ln(|u|) + A0,   u = distance to the singular point,

and the fit is integrated in closed form over the excised interval.  The
residual of that restoration is bounded empirically (fit mismatch at a
held-out distance, scaled by the excision width, which grows like
``epsilon*ln(epsilon)``) and added to the error estimate.

Integrand convention: callables receive a numpy array of abscissae and must
return an array of values (all integrands in this package are numpy
vectorized).

Integrand calls: a split evaluates both halves in one call on their 30
abscissae, and the probes of one excision (every side, held-out point
included) take one call.  Each half is rated from its own 15 values by its
own dot products, so the partition and the totals do not depend on how the
abscissae are grouped into calls.

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
    intervals; ``singularity_epsilon`` is the half-width of the interval
    excised around each declared logarithmic singularity.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    tail_cutoff: float = 40.0
    singularity_epsilon: float = 1e-8

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "tail_cutoff", "singularity_epsilon"):
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
    s = float(_WK @ y)
    if not math.isfinite(s) and not np.all(np.isfinite(y)):
        raise QuadratureError(f"integrand not finite inside panel [{a!r}, {b!r}]")
    k = h * s
    g = h * float(_WG @ y)
    err = abs(k - g)
    resabs = h * float(_WK @ np.abs(y))
    resasc = h * float(_WK @ np.abs(y - k / (b - a)))
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


def _fit_log_poly(f, s0, sides, eps):
    """Fit f(s0 + u) ~ A2 ln^2|u| + A1 ln|u| + A0 next to an excision.

    Sampling distances are 2, 4 and 8 epsilon on every available side;
    sides are averaged so the odd part of the smooth factor cancels.
    Returns (coeffs, mismatch) where mismatch is the fit residual at the
    held-out distance 16 epsilon.  All probes of all sides take one
    integrand call.  A probe value that is not finite, the held-out one
    included (it enters the error estimate), raises QuadratureError.
    """
    dists = np.array([2.0, 4.0, 8.0]) * eps
    logs = np.log(dists)
    vander = np.column_stack([logs**2, logs, np.ones(3)])
    d_chk = 16.0 * eps
    lc = math.log(d_chk)
    probes = np.append(dists, d_chk)
    ys = _values(f, np.concatenate([s0 + sign * probes for sign in sides]))
    coeff_sets = []
    mismatches = []
    for row in ys.reshape(len(sides), 4):
        if not np.all(np.isfinite(row)):
            raise QuadratureError(f"integrand not finite while probing singularity at {s0!r}")
        fit, y_chk = row[:3], float(row[3])
        coeffs = np.linalg.solve(vander, fit)
        mismatches.append(abs(y_chk - (coeffs[0] * lc**2 + coeffs[1] * lc + coeffs[2])))
        coeff_sets.append(coeffs)
    coeffs = np.mean(coeff_sets, axis=0)
    return coeffs, max(mismatches)


def _excision_correction(f, s0, lo, hi, eps):
    """Closed-form integral of the local log fit over the excised interval.

    ``lo``/``hi`` flag whether the left/right half of the excision lies
    inside the integration interval (a singular point sitting on an endpoint
    only contributes one half).
    """
    sides = []
    if hi:
        sides.append(1.0)
    if lo:
        sides.append(-1.0)
    if not sides:
        return 0.0, 0.0
    (a2, a1, a0), mismatch = _fit_log_poly(f, s0, sides, eps)
    le = math.log(eps)
    # One-sided primitives of ln^2, ln, 1 over (0, eps).
    half = a2 * eps * (le * le - 2.0 * le + 2.0) + a1 * eps * (le - 1.0) + a0 * eps
    n_halves = (1 if lo else 0) + (1 if hi else 0)
    correction = n_halves * half
    residual = n_halves * eps * mismatch + 50.0 * _EPS * abs(correction)
    return correction, residual


def integrate_with_log_singularity(
    f,
    interval,
    singular_points,
    cfg: QuadratureConfig | None = None,
) -> IntegrationResult:
    """Integrate ``f`` over a finite interval despite logarithmic divergences.

    ``singular_points`` lists the abscissae where ``f`` diverges at most
    logarithmically.  Points outside the interval are ignored.  Points
    closer together than four excision widths are rejected, since their
    excisions and fit probes would interfere.
    """
    cfg = cfg or DEFAULT_CONFIG
    a, b = float(interval[0]), float(interval[1])
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        raise InputError("interval must be finite for singular integration")
    if a > b:
        raise InputError(f"empty interval: lower limit {a!r} above upper limit {b!r}")
    eps = cfg.singularity_epsilon
    points = sorted({float(s) for s in singular_points if a <= float(s) <= b})
    if not points:
        return integrate(f, (a, b), cfg)
    if np.any(np.diff(points) < 4.0 * eps):
        raise InputError(
            f"singular points closer than 4*epsilon = {4.0 * eps!r}; "
            "shrink singularity_epsilon or merge the points"
        )

    # Segments left over once each excision is removed.
    cuts = [a]
    for s0 in points:
        cuts.append(max(s0 - eps, a))
        cuts.append(min(s0 + eps, b))
    cuts.append(b)
    segments = [(cuts[i], cuts[i + 1]) for i in range(0, len(cuts), 2)]
    segments = [(lo, hi) for lo, hi in segments if hi - lo > 0.0]

    seg_cfg = dataclasses.replace(cfg, abs_tol=cfg.abs_tol / max(len(segments), 1))
    values = []
    errors = []
    nsub = 0
    for lo, hi in segments:
        res = _adaptive(f, lo, hi, seg_cfg)
        values.append(res.value)
        errors.append(res.error_estimate)
        nsub += res.subdivisions_used

    for s0 in points:
        # Probe room: the fit samples up to 16 eps beyond the excision and
        # must not run off the interval or into a neighbouring excision.
        room = 16.0 * eps
        right_ok = (s0 + room) <= b and all(
            other <= s0 or other - s0 > room + eps for other in points
        )
        left_ok = (s0 - room) >= a and all(
            other >= s0 or s0 - other > room + eps for other in points
        )
        has_lo = s0 - eps > a  # left half of the excision is inside [a, b]
        has_hi = s0 + eps < b
        sides_lo = has_lo and left_ok
        sides_hi = has_hi and right_ok
        if not (sides_lo or sides_hi):
            # No room to probe: drop the excised mass and bound it by the
            # epsilon*ln(epsilon) scale it can carry.
            errors.append(4.0 * eps * abs(math.log(eps)))
            continue
        correction, residual = _excision_correction(f, s0, sides_lo, sides_hi, eps)
        # Halves without probe room reuse the fit from the other side.
        if has_lo != sides_lo or has_hi != sides_hi:
            want = (1 if has_lo else 0) + (1 if has_hi else 0)
            got = (1 if sides_lo else 0) + (1 if sides_hi else 0)
            correction *= want / got
            residual *= 2.0 * want / got
        values.append(correction)
        errors.append(residual)

    return IntegrationResult(math.fsum(values), math.fsum(errors), nsub)
