"""``lockstep`` drives the pieces of many integrals side by side, one
integrand call per round; ``integrate`` and ``integrate_with_log_singularity``
are ``lockstep`` on one integral.  Each integral must come out as it does
when its pieces run one after another (``_sequential``, kept here as the
reference): the same value, error estimate and subdivision count, bit for
bit, or the same error.  ``h_derivative_numeric`` integrates its stencil's
shifts in one such batch, and ``_h_shifts`` (which ``verify --suite h``
calls) a list of shifts; each must equal its shifts evaluated one at a
time, including the error it raises first."""

import dataclasses
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussn import InputError, QuadratureError, h_derivative_numeric, h_functional, make_model
from gaussn import divergence
from gaussn.divergence import HEvaluation, _h_shifts, _h_unit
from gaussn.quadrature import Integral, IntegrationResult, QuadratureConfig, lockstep


def _bits(res):
    return (res.value.hex(), res.error_estimate.hex(), res.subdivisions_used)


def _described(outcome):
    """A result or a value as its bits; an error as its type, message and estimate."""
    if isinstance(outcome, IntegrationResult):
        return ("result", _bits(outcome))
    if isinstance(outcome, float):
        return ("value", outcome.hex())
    if isinstance(outcome, HEvaluation):
        return ("h", outcome.delta.hex(), outcome.value.hex(), outcome.error_estimate.hex())
    if isinstance(outcome, list):
        return ("list", [_described(item) for item in outcome])
    estimate = _bits(outcome) if getattr(outcome, "value", None) is not None else None
    return ("raises", type(outcome), str(outcome), estimate)


def _called(call):
    try:
        outcome = call()
    except Exception as exc:
        return _described(exc)
    assert not isinstance(outcome, Exception), f"returned, not raised: {outcome!r}"
    return _described(outcome)


# -- the driver ---------------------------------------------------------------


class _Integrands:
    """Smooth integrands, one per key: amp * e^(sin(w x + phase)) * e^(-(x / width)^2 / 2).

    ``poison`` (key, lo, hi, kind) puts inf or NaN at that key's abscissae
    in [lo, hi]; for kind "raise" a call holding one raises, and for kind
    "short" it returns one value too few.
    """

    def __init__(self, params, poison=None):
        self.params = np.array(params, dtype=float)
        self.poison = poison

    def __call__(self, xs, ks):
        key = ks.astype(int)
        amp, w, phase, width = self.params[key].T
        y = amp * np.exp(np.sin(w * xs + phase)) * np.exp(-0.5 * (xs / width) ** 2)
        if self.poison is not None:
            target, lo, hi, kind = self.poison
            hit = (key == target) & (lo <= xs) & (xs <= hi)
            if kind == "raise":
                if hit.any():
                    raise ValueError(f"poisoned abscissa for key {target}")
            elif kind == "short":
                if hit.any():
                    y = y[:-1]
            else:
                y = np.where(hit, np.inf if kind == "inf" else np.nan, y)
        return y


def _sequential(f, integral):
    """The integral of ``f`` (a function of the abscissae), its pieces run one
    after another, one call of ``f`` per request.

    A piece that fails with no estimate raises at once, and the later
    pieces never run.
    """
    outcomes = []
    for job in integral.jobs():
        try:
            xs = next(job)
            while True:
                y = np.asarray(f(xs), dtype=float)
                if y.shape != xs.shape:
                    raise InputError("integrand must map an array of abscissae to values")
                xs = job.send(y)
        except StopIteration as stop:
            outcomes.append(stop.value)
        except QuadratureError as exc:
            if exc.value is None:
                raise
            outcomes.append(exc)
    return integral.finish(outcomes)


def check_driver(case):
    """Lockstep over the case's integrals, and the public integrator of each,
    against the sequential reference."""
    specs, params, poison = case
    f = _Integrands(params, poison)
    integrals = [Integral(span, QuadratureConfig(*cfg), points) for span, cfg, points in specs]
    keys = [float(k) for k in range(len(integrals))]
    alone = [lambda xs, k=key: f(xs, np.full(xs.shape, k)) for key in keys]
    reference = [_called(lambda: _sequential(g, i)) for g, i in zip(alone, integrals)]
    assert [_described(outcome) for outcome in lockstep(f, integrals, keys)] == reference
    assert [_called(lambda: i(g)) for g, i in zip(alone, integrals)] == reference


# (interval, (abs_tol, rel_tol, max_subdivisions, tail_cutoff), cut points)
DRIVER_CASES = [
    (
        [
            ((-1.0, 2.0), (1e-10, 1e-10, 2000, 40.0), None),
            ((-2.0, 3.0), (1e-12, 1e-12, 2000, 40.0), [0.5, -1.0, 7.0]),
            ((-math.inf, math.inf), (1e-10, 1e-10, 2000, 20.0), None),
        ],
        [(1.0, 7.0, 0.3, 5.0), (-0.5, 11.0, 1.0, 2.0), (2.0, 3.0, -0.4, 1.5)],
        None,
    ),
    # An unreachable tolerance, a subdivision limit, and a tail that fails
    # its truncation check.
    (
        [
            ((0.0, 6.0), (1e-15, 1e-15, 2000, 40.0), [2.0, 4.0]),
            ((0.0, 6.0), (1e-14, 1e-14, 5, 40.0), None),
            ((-math.inf, 1.0), (1e-10, 1e-10, 2000, 10.0), None),
            ((-1.0, 1.0), (1e-9, 1e-9, 2000, 40.0), [0.0]),
        ],
        [(1.0, 13.0, 0.0, 3.0), (1.0, 9.0, 0.2, 4.0), (1.0, 1.0, 0.0, 4.0), (0.7, 5.0, 0.1, 1.0)],
        None,
    ),
    # A non-finite value inside the first piece of a split integral stops
    # its later pieces only; an integrand that raises for one key.
    (
        [
            ((-2.0, 2.0), (1e-11, 1e-11, 2000, 40.0), [-0.5, 0.5]),
            ((-2.0, 2.0), (1e-11, 1e-11, 2000, 40.0), [0.0]),
        ],
        [(1.0, 7.0, 0.3, 2.0), (1.0, 5.0, 0.0, 2.0)],
        (0, -1.9, -1.8, "inf"),
    ),
    (
        [
            ((-2.0, 2.0), (1e-11, 1e-11, 2000, 40.0), [0.0]),
            ((-2.0, 2.0), (1e-11, 1e-11, 2000, 40.0), [-0.5, 0.5]),
            ((-3.0, 1.0), (1e-11, 1e-11, 2000, 40.0), None),
        ],
        [(1.0, 7.0, 0.3, 2.0), (1.0, 5.0, 0.0, 2.0), (2.0, 3.0, 1.0, 1.0)],
        (1, 0.3, 0.31, "raise"),
    ),
    # The longer integral, left to run alone, meets an integrand that
    # returns a value too few, or raises.
    (
        [
            ((-1.0, 1.0), (1e-10, 1e-10, 2000, 40.0), None),
            ((-3.0, 3.0), (1e-12, 1e-12, 2000, 40.0), None),
        ],
        [(1.0, 2.0, 0.0, 1.0), (1.0, 13.0, 0.2, 2.0)],
        (1, 2.7, 2.75, "short"),
    ),
    (
        [
            ((-1.0, 1.0), (1e-10, 1e-10, 2000, 40.0), None),
            ((-3.0, 3.0), (1e-12, 1e-12, 2000, 40.0), None),
        ],
        [(1.0, 2.0, 0.0, 1.0), (1.0, 13.0, 0.2, 2.0)],
        (1, 2.7, 2.75, "raise"),
    ),
]


@pytest.mark.parametrize(
    "case",
    DRIVER_CASES,
    ids=["smooth", "failures", "poisoned_piece", "raising_key", "short_alone", "raising_alone"],
)
def test_lockstep_matches_each_integral_driven_alone(case):
    check_driver(case)


@st.composite
def _driver_cases(draw):
    count = draw(st.integers(1, 4))
    specs, params = [], []
    for _ in range(count):
        kind = draw(st.sampled_from(["finite", "split", "line"]))
        if kind == "line":
            interval = draw(
                st.sampled_from([(-math.inf, math.inf), (-math.inf, 0.5), (-0.5, math.inf)])
            )
        else:
            a = draw(st.floats(-3.0, 0.0))
            interval = (a, a + draw(st.floats(0.5, 4.0)))
        points = None
        if kind == "split":
            a, b = interval
            points = draw(st.lists(st.floats(a - 0.5, b + 0.5), min_size=1, max_size=3))
        tol = 10.0 ** draw(st.floats(-15.5, -3.0))
        cfg = (
            tol,
            tol * draw(st.sampled_from([1.0, 1e-2, 1e2])),
            draw(st.integers(1, 60)),
            draw(st.sampled_from([10.0, 20.0])),
        )
        specs.append((interval, cfg, points))
        params.append(
            (
                draw(st.floats(-2.0, 2.0)),
                draw(st.floats(0.0, 15.0)),
                draw(st.floats(-math.pi, math.pi)),
                draw(st.floats(0.3, 3.0)),
            )
        )
    poison = None
    if draw(st.booleans()):
        lo = draw(st.floats(-3.0, 3.0))
        width = 10.0 ** draw(st.floats(-3.0, 0.5))
        kind = draw(st.sampled_from(["inf", "nan", "raise", "short"]))
        poison = (draw(st.integers(0, count - 1)), lo, lo + width, kind)
    return specs, params, poison


@settings(max_examples=200, deadline=None)
@given(_driver_cases())
def test_lockstep_matches_each_integral_driven_alone_on_random_integrals(case):
    check_driver(case)


# -- the stencil of H ----------------------------------------------------------


def _sequential_stencil(model, order, delta, cfg=None):
    """``h_derivative_numeric`` evaluated one shift at a time, in stencil order."""
    if not 1 <= order <= 4:
        raise InputError("numeric derivatives support orders 1 through 4")
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
    cache = {}

    def hv(d):
        d = round(d, 15)
        if d not in cache:
            cache[d] = _h_unit(unit, [d], inner)[0].value
        return cache[d]

    def stencil(hh):
        if order == 1:
            return (hv(delta + hh) - hv(delta - hh)) / (2.0 * hh)
        if order == 2:
            return (hv(delta + hh) - 2.0 * hv(delta) + hv(delta - hh)) / hh**2
        if order == 3:
            return (
                hv(delta + 2 * hh) - 2.0 * hv(delta + hh) + 2.0 * hv(delta - hh) - hv(delta - 2 * hh)
            ) / (2.0 * hh**3)
        return (
            hv(delta + 2 * hh)
            - 4.0 * hv(delta + hh)
            + 6.0 * hv(delta)
            - 4.0 * hv(delta - hh)
            + hv(delta - 2 * hh)
        ) / hh**4

    coarse = stencil(h)
    fine = stencil(h / 2.0)
    return float((4.0 * fine - coarse) / 3.0) / scale**order


def check_stencil(name, order, delta):
    model = make_model(name)
    batch = _called(lambda: h_derivative_numeric(model, order, delta))
    assert batch == _called(lambda: _sequential_stencil(model, order, delta))
    return batch


def _guard_edge(order):
    """Where the period guard's |delta| + 2h reaches pi."""
    return math.pi - 2.0 * (1e-4 if order <= 2 else 1e-2)


STENCIL_CASES = (
    [
        (name, order, delta)
        for name in ("chi2log", "gauss", "trig", "binom")
        for order in (1, 2, 3, 4)
        for delta in (0.0, 0.3, -1.1)
    ]
    + [
        (name, order, sign * _guard_edge(order) - shave)
        for name in ("trig", "binom")
        for order in (1, 2, 3, 4)
        for sign, shave in ((1.0, 0.0), (-1.0, 0.0), (1.0, 1e-6), (1.0, -1e-6))
    ]
    # Every shift fails: the error of the first one in stencil order.
    # Around 709.78 only the upper shifts overflow e^delta.
    + [("chi2log", order, delta) for order in (1, 3, 4) for delta in (60.0, 709.775, 720.0)]
    + [("gauss", 4, 3e13)]
)


@pytest.mark.parametrize("name,order,delta", STENCIL_CASES)
def test_stencil_batch_matches_the_stencil_one_shift_at_a_time(name, order, delta):
    check_stencil(name, order, delta)


def test_the_first_failing_shift_names_the_error():
    # At 709.775 the stencil's first shift, 709.795, overflows e^delta,
    # while 709.765 would fail its truncation check instead.
    _, error_type, message, _ = check_stencil("chi2log", 3, 709.775)
    assert error_type is QuadratureError
    assert message.startswith("expm1(709.795) overflowed")


# -- the batch entry of H -------------------------------------------------------


def _verify_grid(reach):
    """The nine shifts ``verify --suite h`` takes over [-reach, reach]."""
    step = 2.0 * reach / 8
    return [-reach + k * step for k in range(8)] + [reach]


def check_h_shifts(name, sigma, deltas, tol):
    model = make_model(name, sigma)
    cfg = None if tol is None else QuadratureConfig(abs_tol=tol, rel_tol=tol)
    batch = _called(lambda: _h_shifts(model, deltas, cfg))
    assert batch == _called(lambda: [h_functional(model, d, cfg) for d in deltas])
    return batch


# (model, sigma, shifts, tolerance or None for the default)
H_SHIFT_CASES = (
    # verify's grids, and gauss at sigma = 2, which divides by the scale
    [
        (name, sigma, _verify_grid(reach), tol)
        for name, sigma, reach in (
            ("chi2log", 1.0, 2.0), ("gauss", 1.0, 2.0), ("trig", 1.0, 1.4), ("gauss", 2.0, 4.0)
        )
        for tol in (None, 1e-15)
    ]
    # Only the later shifts fail, each with its own message.
    + [("chi2log", 1.0, [0.5, 800.0, 60.0], None), ("chi2log", 1.0, [0.5, 60.0, 800.0], None)]
)


@pytest.mark.parametrize("name,sigma,deltas,tol", H_SHIFT_CASES)
def test_shift_batch_matches_one_shift_at_a_time(name, sigma, deltas, tol):
    check_h_shifts(name, sigma, deltas, tol)


def test_the_first_failing_shift_in_order_names_the_batch_error():
    # At a tolerance of 1e-15, verify's chi2log grid fails at its first shift.
    (_, error_type, message, estimate) = check_h_shifts("chi2log", 1.0, _verify_grid(2.0), 1e-15)
    assert error_type is QuadratureError
    assert message.startswith("tolerance not reached within 2000 subdivisions")
    assert float.fromhex(estimate[0]) == -1.1353352832366093
    # Shifts 60 and 800 fail with errors of their own (the tail at the
    # truncation point, the overflow of e^delta); either order of the two
    # raises the error of the one given first.
    assert check_h_shifts("chi2log", 1.0, [0.5, 60.0, 800.0], None)[2].startswith(
        "integrand magnitude"
    )
    assert check_h_shifts("chi2log", 1.0, [0.5, 800.0, 60.0], None)[2].startswith(
        "expm1(800.0) overflowed"
    )


def test_a_bad_shift_fails_before_any_integration(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("integrated before every shift was checked")

    monkeypatch.setattr(divergence, "_h_unit", never)
    with pytest.raises(InputError, match="exceeds one period"):
        _h_shifts(make_model("trig"), [0.3, 3.5], None)


# -- the same checks under other kernels ----------------------------------------

_AVX2 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR", "OPENBLAS_CORETYPE": "Haswell"}

_CHILD = """
from numpy._core._multiarray_umath import __cpu_features__
assert not __cpu_features__["X86_V4"], "numpy still dispatches its X86_V4 loops"
import test_lockstep as t
import test_one_call as c
for case in t.DRIVER_CASES:
    t.check_driver(case)
for case in t.STENCIL_CASES:
    t.check_stencil(*case)
for case in t.H_SHIFT_CASES:
    t.check_h_shifts(*case)
for case in c.ARM_CASES:
    c.check_arms(*case)
for case in c.H_CASES:
    c.check_h_terms(*case)
print(
    len(t.DRIVER_CASES) + len(t.STENCIL_CASES) + len(t.H_SHIFT_CASES)
    + len(c.ARM_CASES) + len(c.H_CASES)
)
"""


def _avx512_dispatched():
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return False
    return "X86_V4" in __cpu_dispatch__ and bool(__cpu_features__.get("X86_V4"))


@pytest.mark.skipif(
    not _avx512_dispatched(), reason="the variables act only where numpy dispatches X86_V4 on x86-64"
)
def test_fixed_cases_hold_with_the_avx512_kernels_off():
    # The variables pick numpy's and OpenBLAS's kernels at import, so the
    # fixed cases run again in a child process: lockstep and the public
    # integrators against the sequential reference, the batched stencil and
    # verify's batched shift grids against one shift at a time, and the
    # one-call arms and H terms against a call per arm or term.  All compare
    # inside that process, not with pinned bits.
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, **_AVX2, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    from test_one_call import ARM_CASES, H_CASES

    cases = (
        len(DRIVER_CASES) + len(STENCIL_CASES) + len(H_SHIFT_CASES) + len(ARM_CASES) + len(H_CASES)
    )
    assert proc.stdout.split() == [str(cases)]
