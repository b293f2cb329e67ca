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

Integrand calls: the adaptive loop is a job, a generator that yields the
abscissae it needs, is sent their values, and returns its result or raises.
A split asks for both halves at once, 30 abscissae.  One driver,
``lockstep``, runs every integral: each round it makes one integrand call
on the abscissae that every live piece waits for, each with its integral's
key (the shift, for H), and sends each piece its own slice; once a single
piece is left, the integrand gets that piece's requests as they come.
``integrate`` and ``integrate_with_log_singularity`` are ``lockstep`` on
the pieces of one integral, so the pieces of a split integral run side by
side.  Every half is rated from its own 15 values by its own dot products,
and each piece keeps its own heap and tolerance, so the partition, the
totals and their bits do not depend on how the abscissae are grouped into
calls.

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
import numbers
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
    intervals.  The tolerances and the cutoff must be finite and positive,
    and ``max_subdivisions`` a positive integer; anything else raises
    InputError.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    tail_cutoff: float = 40.0

    def __post_init__(self):
        for name in ("abs_tol", "rel_tol", "tail_cutoff"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise InputError(f"{name} must be strictly positive and finite, got {value!r}")
        n = self.max_subdivisions
        # bool is an Integral; the exact-int test keeps the common case cheap
        integral = type(n) is int or (isinstance(n, numbers.Integral) and not isinstance(n, bool))
        if not integral or n <= 0:
            raise InputError(f"max_subdivisions must be a strictly positive integer, got {n!r}")
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


def _values(f, xs, ks):
    """Integrand values at the abscissae ``xs`` with keys ``ks``, checked for shape."""
    y = np.asarray(f(xs, ks), dtype=float)
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


def _adaptive(a, b, cfg):
    """The adaptive loop on [a, b], as a job.

    A job is a generator: it yields the abscissae it needs, is sent their
    values, and returns its IntegrationResult or raises QuadratureError.
    """
    if "_WG" not in globals():  # the first integration in this process
        _build_rule()
    value0, err0 = _rule((yield _abscissae(a, b)), a, b)
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
        # Both halves in one request; each keeps its own 15 values.
        y = yield np.concatenate([_abscissae(pa, pm), _abscissae(pm, pb)])
        v1, e1 = _rule(y[:15], pa, pm)
        v2, e2 = _rule(y[15:], pm, pb)
        heapq.heappush(heap, (-e1, pa, pm, v1, e1))
        heapq.heappush(heap, (-e2, pm, pb, v2, e2))
        run_val += v1 + v2 - pv
        run_err += e1 + e2 - pe
        nsub += 1


def _edge(edge, threshold, cutoff):
    """The job that checks that the integrand is negligible at ``edge``."""
    mag = abs(float((yield np.array([edge]))[0]))
    if not mag <= threshold:
        raise QuadratureError(
            f"integrand magnitude {mag:.3e} at truncation point {edge!r} exceeds "
            f"{threshold:.3e} (abs_tol / 100): the window |x| <= {cutoff!r} misses "
            "part of the integral"
        )
    return edge


def _truncated(a, b, cfg):
    """The job of [a, b], an infinite end replaced by +-cfg.tail_cutoff once
    the integrand is shown to be negligible there."""
    threshold, cutoff = cfg.abs_tol / 100.0, cfg.tail_cutoff
    if math.isinf(a):
        a = yield from _edge(-cutoff, threshold, cutoff)
    if math.isinf(b):
        b = yield from _edge(cutoff, threshold, cutoff)
    return (yield from _adaptive(a, b, cfg))


def _mapped(lo, hi, cfg):
    """The job of the piece [lo, hi]: the adaptive loop over s in [-1, 1],
    with x = m + r s (3 - s^2) / 2 (m the midpoint, r the half-width)."""
    m, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    job = _adaptive(-1.0, 1.0, cfg)
    try:
        s = next(job)
        while True:
            y = yield m + r * s * (3.0 - s * s) / 2.0
            s = job.send(y * (1.5 * r * (1.0 - s * s)))
    except StopIteration as stop:
        return stop.value


def _fatal(outcome) -> bool:
    """Whether a job's outcome is an error with no estimate to add."""
    return isinstance(outcome, Exception) and not (
        isinstance(outcome, QuadratureError) and outcome.value is not None
    )


@dataclass(frozen=True)
class Integral:
    """The integral over ``interval`` of an integrand given later.

    With ``points`` it is split there, as ``integrate_with_log_singularity``
    does; without, it is integrated as ``integrate`` does.  ``cfg`` is the
    whole integral's.  Calling it on an integrand runs the public integrator;
    ``lockstep`` runs many at once.
    """

    interval: tuple[float, float]
    cfg: QuadratureConfig
    points: object = None

    def __post_init__(self):
        a, b = float(self.interval[0]), float(self.interval[1])
        if self.points is None:
            if math.isnan(a) or math.isnan(b):
                raise InputError("integration limits must not be NaN")
        elif math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
            raise InputError("interval must be finite for singular integration")
        if a > b:
            raise InputError(f"empty interval: lower limit {a!r} above upper limit {b!r}")
        object.__setattr__(self, "interval", (a, b))

    def __call__(self, f) -> IntegrationResult:
        # Through the module's public names, so that a wrapper installed on
        # them (perfbench's tracer) sees every integral that runs on its own.
        if self.points is None:
            return integrate(f, self.interval, self.cfg)
        return integrate_with_log_singularity(f, self.interval, self.points, self.cfg)

    def jobs(self) -> list:
        """The jobs of the pieces, in order."""
        a, b = self.interval
        if a == b:
            return []
        if self.points is None:
            return [_truncated(a, b, self.cfg)]
        cuts = [a, *sorted({p for p in map(float, self.points) if a < p < b}), b]
        cfg = dataclasses.replace(self.cfg, abs_tol=self.cfg.abs_tol / (len(cuts) - 1))
        return [_mapped(lo, hi, cfg) for lo, hi in zip(cuts, cuts[1:])]

    def finish(self, outcomes) -> IntegrationResult:
        """The integral from its pieces' outcomes, or its error.

        Each outcome is an IntegrationResult or the exception its job raised;
        they stop at the first exception that carries no estimate, which is
        raised.  A piece that missed its tolerance does not hide the others:
        the error carries the sum over all pieces.  (The totals of a single
        piece are its own bits, since its value and error are already fsum
        results.)
        """
        if outcomes and _fatal(outcomes[-1]):
            raise outcomes[-1]
        value = math.fsum(res.value for res in outcomes)
        error = math.fsum(res.error_estimate for res in outcomes)
        used = sum(res.subdivisions_used for res in outcomes)
        failure = next((res for res in outcomes if isinstance(res, QuadratureError)), None)
        if failure is None:
            return IntegrationResult(value, error, used)
        if len(outcomes) == 1:
            raise failure  # one piece: its estimate is the whole interval's
        reason = str(failure).partition(" (best estimate")[0]
        a, b = self.interval
        raise QuadratureError(
            f"{reason} on a piece of [{a!r}, {b!r}]; best estimate over the whole "
            f"interval {value!r} +- {error!r}",
            value=value, error_estimate=error, subdivisions_used=used,
        )


def lockstep(f, integrals, keys) -> list:
    """Drive the pieces of all ``integrals`` side by side, one call of ``f`` per round.

    ``f(xs, ks)`` gets the abscissae that every live piece waits for, and
    ``ks``, aligned with them, the entry of ``keys`` (one float per
    integral) for each one's integral.  Each piece is sent its own slice of
    the values, so it asks for the same abscissae, and ends the same way,
    as when its pieces are driven one after another.  Once one piece is
    left, ``f`` gets its requests as they come, without the batch's
    bookkeeping.  Returns, in order, each integral's IntegrationResult or the
    exception that driving it alone raises.  A piece that fails with no
    estimate stops the later pieces of its own integral, and no others.
    """
    owner, jobs, starts = [], [], []
    for i, integral in enumerate(integrals):
        own = integral.jobs()
        starts.append(len(jobs))
        owner += [i] * len(own)
        jobs += own
    outcomes = [None] * len(jobs)
    # Each integral's jobs end at its last, or at its first that failed with
    # no estimate.
    cut = starts[1:] + [len(jobs)]

    def ended(j, end):
        """Keep job j's result (its StopIteration) or error, or the error f
        raised on its abscissae."""
        if isinstance(end, StopIteration):
            outcomes[j] = end.value
        else:  # kept, to be raised in its integral's order
            outcomes[j] = end
            if _fatal(end):
                cut[owner[j]] = min(cut[owner[j]], j + 1)

    def send(j, y):
        """Send ``y`` to job j: its next request, or None once it has ended."""
        try:
            return jobs[j].send(y)
        except Exception as end:
            ended(j, end)
        return None

    live = [(j, xs) for j in range(len(jobs)) if (xs := send(j, None)) is not None]
    aligned = {}  # ks for each pattern of (integral, request size) seen
    while len(live) > 1:
        pattern = tuple([(owner[j], x.size) for j, x in live])
        ks = aligned.get(pattern)
        if ks is None:
            ks = np.repeat([keys[i] for i, _ in pattern], [n for _, n in pattern])
            aligned[pattern] = ks
        try:
            y = _values(f, np.concatenate([x for _, x in live]), ks)
        except Exception:  # some piece's abscissae raise: each piece calls f alone
            y = None
        requests, start = [], 0
        for j, x in live:
            end = start + x.size
            if j < cut[owner[j]]:  # not a piece after its integral's failure
                if y is not None:
                    x = send(j, y[start:end])
                else:
                    try:
                        x = send(j, _values(f, x, ks[start:end]))
                    except Exception as exc:  # f raised on this piece's abscissae
                        ended(j, exc)
                        x = None
                if x is not None:
                    requests.append((j, x))
            start = end
        live = requests
    for j, xs in live:  # at most one piece left: f gets each of its requests as it comes
        job, key, sized = jobs[j], keys[owner[j]], {}
        try:
            while True:
                ks = sized.get(xs.size)
                if ks is None:
                    ks = sized[xs.size] = np.empty(xs.size)
                    ks.fill(key)
                xs = job.send(_values(f, xs, ks))
        except Exception as end:  # its result, its error, or the error f raised
            ended(j, end)
    results = []
    for integral, start, end in zip(integrals, starts, cut):
        try:
            results.append(integral.finish(outcomes[start:end]))
        except Exception as exc:
            results.append(exc)
    return results


def _alone(f, integral: Integral) -> IntegrationResult:
    """The integral of ``f``, a function of the abscissae alone, or its error."""
    (outcome,) = lockstep(lambda xs, ks: f(xs), [integral], [0.0])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def integrate(f, interval, cfg: QuadratureConfig | None = None) -> IntegrationResult:
    """Adaptively integrate ``f`` over ``interval`` (either end may be infinite).

    The integrand must be finite on the interior of the interval; use
    :func:`integrate_with_log_singularity` when it has logarithmic
    divergences at known points.
    """
    return _alone(f, Integral(interval, cfg or DEFAULT_CONFIG))


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
    return _alone(f, Integral(interval, cfg or DEFAULT_CONFIG, singular_points))
