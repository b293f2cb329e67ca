import math

import numpy as np
import pytest

from gaussn import (
    InputError,
    QuadratureError,
    criterion_report,
    detect_remainder_order,
    make_model,
    minimal_n,
    remainder_ratio,
    table_rows,
)
from gaussn import criterion, quadrature

TABLE1 = (
    (3, "3.263"), (4, "2.241"), (5, "1.711"), (10, "0.817"), (20, "0.437"),
    (30, "0.316"), (40, "0.254"), (50, "0.216"), (75, "0.163"), (100, "0.135"),
    (150, "0.104"), (155, "0.102"), (160, "0.100"), (165, "0.098"),
)


def test_remainder_orders(chi2, gauss, trig, binom):
    assert detect_remainder_order(chi2) == 3
    assert detect_remainder_order(gauss) == 4
    assert detect_remainder_order(trig) == 4
    assert detect_remainder_order(binom) == 4


def test_criterion_runs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise QuadratureError("the criterion ran quadrature")

    criterion.detect_remainder_order.cache_clear()
    monkeypatch.setattr(quadrature, "_adaptive", refuse)
    for name, n_min in (("chi2log", 160), ("gauss", 1), ("trig", 8), ("binom", 8)):
        assert minimal_n(make_model(name)) == n_min
        assert criterion_report(make_model(name), n_min).passes


def test_ratio_examples(chi2, trig, gauss):
    assert f"{remainder_ratio(chi2, 10):.3f}" == "0.817"
    assert f"{remainder_ratio(chi2, 30):.3f}" == "0.316"
    assert remainder_ratio(trig, 8) == pytest.approx(3.0 / 32.0, rel=1e-15)
    assert remainder_ratio(gauss, 1) == 0.0


def test_chi2log_ratio_closed_form(chi2):
    # r(N) = exp(3/sqrt(N)) / sqrt(N) for the skewed model
    for n in (7, 33, 160, 500):
        want = math.exp(3.0 / math.sqrt(n)) / math.sqrt(n)
        assert remainder_ratio(chi2, n) == pytest.approx(want, rel=1e-12)


def test_minimal_n(chi2, trig, binom, gauss):
    assert minimal_n(chi2, 0.1, "paper_rounding") == 160
    assert minimal_n(chi2, 0.1, "strict") == 161
    assert minimal_n(trig, 0.1, "strict") == 8
    assert minimal_n(binom, 0.1, "strict") == 8
    assert minimal_n(gauss) == 1


def test_minimal_n_stops_at_its_cap(chi2, capsys, monkeypatch):
    from gaussn.cli import main

    monkeypatch.setattr(criterion, "N_MAX", 161)
    assert minimal_n(chi2, 0.1, "strict") == 161
    monkeypatch.setattr(criterion, "N_MAX", 100)
    with pytest.raises(InputError, match="no N at or below 100 satisfies the criterion"):
        minimal_n(chi2, 0.1, "strict")
    assert main(["criterion", "--model", "chi2log", "--mode", "strict"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no N at or below 100 satisfies the criterion\n"


def test_strict_boundary_values(chi2):
    assert round(remainder_ratio(chi2, 160), 5) == 0.10022
    assert round(remainder_ratio(chi2, 161), 5) == 0.09983
    assert remainder_ratio(chi2, 160) > 0.1
    assert remainder_ratio(chi2, 161) <= 0.1


def test_equality_passes(trig):
    # ratio(8) is exactly 3/32; a threshold at that value passes at N = 8
    assert minimal_n(trig, 3.0 / 32.0, "strict") == 8


def test_threshold_sensitivity(chi2, trig):
    for model in (chi2, trig):
        ns = [minimal_n(model, t, "strict") for t in (0.05, 0.1, 0.2)]
        assert ns[0] >= ns[1] >= ns[2]


def test_table_rows(chi2, trig, gauss):
    rows = table_rows(chi2, [3, 4, 5])
    assert [f"{r:.3f}" for _, _, r in rows] == ["3.263", "2.241", "1.711"]
    rows = table_rows(chi2, [150, 155, 160, 165])
    assert [f"{r:.3f}" for _, _, r in rows] == ["0.104", "0.102", "0.100", "0.098"]
    assert f"{table_rows(trig, [8])[0][2]:.3f}" == "0.094"
    assert f"{table_rows(gauss, [1])[0][2]:.3f}" == "0.000"


def test_full_reference_table(chi2):
    rows = table_rows(chi2, [n for n, _ in TABLE1])
    for (n, _, rounded), (_, want) in zip(rows, TABLE1):
        assert f"{rounded:.3f}" == want, n


def test_ratio_strictly_decreasing(chi2, trig):
    for model in (chi2, trig):
        prev = remainder_ratio(model, 3)
        for n in range(4, 1001):
            cur = remainder_ratio(model, n)
            assert cur < prev, (model.id, n)
            prev = cur


def test_ratio_consistent_with_taylor_terms(chi2, trig):
    # ratio = (max remainder term) / (second-order term) rebuilt from raw
    # Taylor quantities at the window halfwidth.
    for model in (chi2, trig):
        rep = criterion_report(model, 47, mode="strict")
        w = rep.halfwidth
        second = 0.5 * w**2 * rep.fisher
        if rep.remainder_order == 3:
            remainder = w**3 / 6.0 * rep.h_max
        else:
            remainder = w**4 / 24.0 * rep.h_max
        assert rep.ratio == pytest.approx(remainder / second, abs=1e-10)


def test_report_invariants(chi2):
    rep = criterion_report(chi2, 160, mode="paper_rounding")
    assert rep.sigma**2 * rep.fisher == pytest.approx(1.0, abs=1e-12)
    assert rep.passes == (rep.ratio <= rep.threshold)
    assert rep.ratio == 0.1  # rounded to 3 decimals in this mode
    assert rep.ratio_raw > 0.1
    strict = criterion_report(chi2, 160, mode="strict")
    assert not strict.passes
    assert strict.ratio == strict.ratio_raw


def test_paper_rounding_refuses_thresholds_below_its_step(trig):
    # Every ratio below 5e-4 rounds to 0.000, so such a threshold would pass
    # ratios far above itself.
    for threshold in (1e-300, 4.999e-4):
        with pytest.raises(InputError, match="--mode strict"):
            minimal_n(trig, threshold)
        with pytest.raises(InputError, match="--mode strict"):
            criterion_report(trig, 1501, threshold)
    assert minimal_n(trig, 5e-4) == 1501  # 3 / (4N) rounds to 0.001 below N = 1500.5
    assert minimal_n(trig, 4e-4, "strict") == 1875
    assert not criterion_report(trig, 1501, 1e-300, "strict").passes


def test_validation(chi2):
    with pytest.raises(InputError):
        remainder_ratio(chi2, 0)
    with pytest.raises(InputError):
        minimal_n(chi2, 0.0)
    with pytest.raises(InputError):
        criterion_report(chi2, 10, threshold=1.5)
    with pytest.raises(InputError):
        table_rows(chi2, [])
    # 2.5 once made a report with n = 2.5, and [2.7] answered for N = 2.
    for call in (lambda: criterion_report(chi2, 2.5), lambda: table_rows(chi2, [2.7])):
        with pytest.raises(InputError, match="sample size must be an integer"):
            call()
    assert table_rows(chi2, [np.int64(160)]) == table_rows(chi2, [160])
    for call in (
        lambda: criterion_report(chi2, 10, 0.1, "bogus"),
        lambda: minimal_n(chi2, 0.1, "bogus"),
    ):
        with pytest.raises(InputError) as exc:
            call()
        assert str(exc.value) == "unknown mode 'bogus'"
