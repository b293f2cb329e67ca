"""The trig ML scan: bounds, bit-exact columns and the estimate they feed.

``models._trig_scan`` evaluates the likelihood kernel only on the grid
columns that upper bounds cannot rule out.  The full-grid kernel
``_trig_log_lik`` is the oracle: evaluated columns must equal it bit for
bit, and every skipped column must lie below the candidate line.
"""

import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussn.models as models
from gaussn import AmbiguousMaximumWarning, Observations, ml_estimate, sample
from gaussn.models import (
    _TRIG_CANDIDATE_GAP,
    _kernel_rows,
    _trig_bounds,
    _trig_columns,
    _trig_log_lik,
    _trig_scan,
)

from frozen_trig_sampler import sample_by_bisection

HALF_PI = math.pi / 2.0
GRID = np.linspace(-HALF_PI, HALF_PI, 4001)
REFERENCE = json.loads((Path(__file__).parent / "data" / "trig_ml_reference.json").read_text())
SIZES = (1, 2, 3, 8, 15, 16, 17, 50, 500, 5000)
XIS = (0.0, 0.3, -1.2, 1.5, 1.5707, -1.5707)
SEEDS = range(12)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


@st.composite
def observations_and_edges(draw):
    """Observations and block edges, with poles and peaks on the edges."""
    width = draw(st.sampled_from((1, 4, 32, 256)))
    offset = draw(st.integers(0, width - 1))
    edges = np.union1d(np.arange(offset, GRID.size, width), [0, GRID.size - 1])
    edge_value = st.sampled_from(GRID[edges].tolist())
    at_pole = st.builds(
        lambda g, side, d: g + side * HALF_PI + d,
        edge_value,
        st.sampled_from((-1.0, 1.0)),
        st.sampled_from((-1e-12, -3e-13, 0.0, 3e-13, 1e-12)),
    )
    one = st.one_of(
        st.floats(-HALF_PI, HALF_PI, allow_nan=False),
        st.sampled_from((-HALF_PI, HALF_PI)),
        edge_value,
        at_pole.filter(lambda x: abs(x) <= HALF_PI),
    )
    xs = draw(st.lists(one, min_size=1, max_size=40))
    xs += draw(st.lists(st.sampled_from(xs), max_size=8))  # duplicates
    return np.array(xs), edges


@settings(max_examples=60, deadline=None)
@given(observations_and_edges())
def test_kernel_lies_within_its_block_bounds(case):
    xs, edges = case
    full = _trig_log_lik(xs, GRID)
    points = GRID[edges]
    lower, upper = _trig_bounds(xs, np.cos(xs), np.sin(xs), points, np.cos(points), np.sin(points))
    assert np.all(lower <= full[edges])
    for span, (a, b) in enumerate(zip(edges, edges[1:])):
        assert np.max(full[a : b + 1]) <= upper[span]


# ---------------------------------------------------------------------------
# evaluated columns
# ---------------------------------------------------------------------------


def _blockwise_oracle(xs, grid):
    """The kernel's summation order written out: one block of rows at a time."""
    rows = _kernel_rows(grid.size)
    total = np.zeros(grid.size)
    for start in range(0, xs.size, rows):
        x = xs[start : start + rows, None]
        block = np.abs(np.cos(x) * np.cos(grid) + np.sin(x) * np.sin(grid))
        i, j = np.nonzero(block < models._COS_FLOOR)
        block[i, j] = np.abs(np.cos(xs[start + i] - grid[j]))
        whole = block.shape[0] - block.shape[0] % 16
        total += np.sum(np.log(np.prod(block[:whole].reshape(-1, 16, grid.size), axis=1)), axis=0)
        total += np.sum(np.log(block[whole:]), axis=0)
    return 2.0 * total + xs.size * math.log(2.0 / math.pi)


@pytest.mark.parametrize("n", (1, 15, 16, 25, 33, 500, 5000))
@pytest.mark.parametrize("size", (4001, 2001, 81))
def test_kernel_sums_block_by_block(trig, n, size):
    xs = sample(trig, 0.3, n, 60 + n).as_array()
    grid = np.linspace(-HALF_PI, HALF_PI, size)
    assert np.array_equal(_trig_log_lik(xs, grid), _blockwise_oracle(xs, grid))


@pytest.mark.parametrize("n", (1, 15, 16, 17, 500, 5000))
@pytest.mark.parametrize("size", (2, 3, 81, 2001, 4001))
def test_kernel_in_column_chunks_is_one_whole_grid_call(trig, n, size):
    grid = np.linspace(-HALF_PI, HALF_PI, size)
    xs = sample(trig, 0.3, n, 80 + n).as_array().copy()
    # observations within 1e-12 of a pole x - xi = +-pi/2 of some grid point
    poles = [g + HALF_PI if g < 0 else g - HALF_PI for g in grid[:: max(1, size // 3)]]
    near = [p + d for p in poles for d in (-1e-12, 0.0, 3e-13) if abs(p + d) <= HALF_PI]
    xs[: len(near)] = near[:n]
    whole = _trig_columns(
        xs, np.cos(xs), np.sin(xs), grid, np.cos(grid), np.sin(grid), _kernel_rows(size)
    )
    assert np.array_equal(_trig_log_lik(xs, grid), whole)


def test_kernel_memory_is_a_few_cache_sized_buffers(trig):
    xs = sample(trig, 0.3, 500, 5).as_array()
    grid = np.linspace(-HALF_PI, HALF_PI, 2001)
    tracemalloc.start()
    try:
        _trig_log_lik(xs, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5e6


@pytest.mark.parametrize("n", (2, 17, 25, 46, 500, 3000))
def test_any_two_or_more_columns_match_the_whole_grid(trig, n):
    rng = np.random.default_rng(n)
    for grid in (GRID, np.linspace(-0.5, 1.1, 2001)):
        xs = sample(trig, 0.3, n, n).as_array()
        full = _trig_log_lik(xs, grid)
        rows = _kernel_rows(grid.size)
        for count in (2, 3, 40, 500):
            columns = np.sort(rng.choice(grid.size, count, replace=False))
            at = grid[columns]
            got = _trig_columns(xs, np.cos(xs), np.sin(xs), at, np.cos(at), np.sin(at), rows)
            assert np.array_equal(got, full[columns])


@pytest.mark.parametrize("n", SIZES)
def test_scan_columns_are_the_whole_scan_bits(trig, n):
    for xi in XIS:
        for seed in SEEDS:
            xs = sample(trig, xi, n, seed).as_array()
            full = _trig_log_lik(xs, GRID)
            columns, values = _trig_scan(xs, GRID)
            assert np.array_equal(values, full[columns])
            line = np.max(values) - _TRIG_CANDIDATE_GAP
            assert np.max(full) == np.max(values)
            assert np.all(np.delete(full, columns) < line)


@pytest.mark.parametrize("n", SIZES)
def test_estimates_equal_the_recorded_whole_scan_estimates(trig, n):
    # Recorded before the scan was pruned, with the 4001-column scan, on
    # the draws of the bisection sampler.
    for xi in XIS:
        for seed in SEEDS:
            with warnings.catch_warnings():
                warnings.simplefilter("error", AmbiguousMaximumWarning)
                got = ml_estimate(trig, sample_by_bisection(xi, n, seed))
            assert got == REFERENCE["matrix"][f"{n} {xi!r} {seed}"]


@pytest.mark.parametrize("name", sorted(REFERENCE["symmetric"]))
def test_tied_maxima_warn_as_recorded(trig, name):
    xs, want, messages = REFERENCE["symmetric"][name]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = ml_estimate(trig, Observations(xs))
    assert got == want
    assert [str(w.message) for w in caught] == messages
    assert all(w.category is AmbiguousMaximumWarning for w in caught)


# ---------------------------------------------------------------------------
# cost
# ---------------------------------------------------------------------------


def test_scan_evaluates_few_columns(trig, monkeypatch):
    calls = []

    def counted(xs, cos_x, sin_x, grid, *rest):
        calls.append(grid.size)
        return _trig_columns(xs, cos_x, sin_x, grid, *rest)

    monkeypatch.setattr(models, "_trig_columns", counted)
    for n in (50, 500, 5000):
        for xi in XIS:
            for seed in SEEDS:
                calls.clear()
                ml_estimate(trig, sample(trig, xi, n, seed))
                assert len(calls) == 1 and 2 <= calls[0] <= 400  # 10 % of 4001


def test_scan_memory_is_bounded_in_n(trig):
    # Kernel and bounds run in passes of a few hundred kB; the N-sized
    # arrays of the refinement dominate (1.6 MB each at N = 200,000).
    obs = sample(trig, 0.3, 200_000, 17)
    tracemalloc.start()
    try:
        ml_estimate(trig, obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6
