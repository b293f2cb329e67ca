import json
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from gaussn.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fisher_trig(capsys):
    code, out, _ = run_cli(capsys, "fisher", "--model", "trig")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["gradient_form"] == pytest.approx(4.0, abs=1e-5)
    assert payload["results"]["curvature_form"] == pytest.approx(4.0, abs=1e-5)
    assert payload["results"]["prior_measure"] == 2.0
    assert payload["tool_version"]


def test_fisher_chi2log_and_gauss(capsys):
    code, out, _ = run_cli(capsys, "fisher", "--model", "chi2log")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["gradient_form"] == pytest.approx(1.0, abs=1e-5)
    code, out, _ = run_cli(capsys, "fisher", "--model", "gauss", "--sigma", "2")
    payload = json.loads(out)
    assert payload["results"]["gradient_form"] == pytest.approx(0.25, abs=1e-6)


def test_infinite_quadrature_tolerance_is_a_usage_error(capsys):
    argv = ("fisher", "--model", "trig", "--xi", "0.3", "--quad-tol", "inf")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: abs_tol must be strictly positive and finite, got inf\n"


def test_fisher_unknown_model_usage_error(capsys):
    code, _, _ = run_cli(capsys, "fisher", "--model", "weibull")
    assert code == 2


def test_criterion_modes(capsys):
    code, out, _ = run_cli(capsys, "criterion", "--model", "chi2log")
    assert code == 0
    assert json.loads(out)["results"]["minimal_n"] == 160
    code, out, _ = run_cli(capsys, "criterion", "--model", "chi2log", "--mode", "strict")
    assert json.loads(out)["results"]["minimal_n"] == 161
    code, out, _ = run_cli(capsys, "criterion", "--model", "trig")
    assert json.loads(out)["results"]["minimal_n"] == 8


def test_table_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--model", "chi2log", "--n", "3,10,100")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "N,ratio_raw,ratio_3dp"
    assert [ln.split(",")[2] for ln in lines[1:]] == ["3.263", "0.817", "0.135"]
    code, out, _ = run_cli(capsys, "table", "--model", "trig", "--n", "8")
    assert out.strip().split("\n")[1].split(",")[2] == "0.094"
    code, out, _ = run_cli(capsys, "table", "--model", "gauss", "--n", "1")
    assert out.strip().split("\n")[1].split(",")[2] == "0.000"


def test_table_json_mirror(capsys):
    code, out, _ = run_cli(capsys, "table", "--model", "chi2log", "--n", "160", "--format", "json")
    payload = json.loads(out)
    row = payload["results"]["rows"][0]
    assert row["n"] == 160
    assert row["ratio_3dp"] == pytest.approx(0.100)
    assert row["ratio_raw"] == pytest.approx(0.10021713638933563, rel=1e-12)


def test_table_bad_n_list(capsys):
    code, _, err = run_cli(capsys, "table", "--model", "chi2log", "--n", "3,x")
    assert code == 2
    assert "error" in err


def test_posterior_gauss(capsys, tmp_path):
    grid_file = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        capsys,
        "posterior", "--model", "gauss", "--xi-true", "0", "--n", "25",
        "--seed", "7", "--grid-out", str(grid_file),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["sup_log_deviation"] <= 1e-10
    assert payload["results"]["criterion"]["passes"] is True
    header, first = grid_file.read_text().split("\n")[:2]
    assert header == "xi,density,gaussian_density"
    assert len(first.split(",")) == 3


def test_posterior_chi2log_160(capsys):
    code, out, _ = run_cli(
        capsys, "posterior", "--model", "chi2log", "--xi-true", "0", "--n", "160", "--seed", "7"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["criterion"]["passes"] is True
    assert payload["results"]["criterion"]["n"] == 160


def test_posterior_trig_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "posterior", "--model", "trig", "--xi-true", "0.2", "--n", "8", "--seed", "7"
    )
    assert code == 0
    assert json.loads(out)["results"]["kl_to_gaussian"] >= 0.0


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    assert "FAIL" not in out
    for name in ("chi2log", "gauss", "trig", "binom"):
        assert f"fisher.{name}.gradient" in out
        assert f"fisher.{name}.curvature" in out


def test_verify_h_past_its_tolerance_is_a_numerical_failure(capsys):
    # The first failing shift in order, chi2log at delta = -2, names the
    # error.  The error estimate's last digits depend on numpy's kernels.
    code, out, err = run_cli(capsys, "verify", "--suite", "h", "--quad-tol", "1e-15")
    assert (code, out) == (3, "")
    assert err.startswith(
        "numerical failure: tolerance not reached within 2000 subdivisions"
        " (best estimate -1.1353352832366093 +- "
    )
    assert len(err.splitlines()) == 1


def test_verify_table1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "table1")
    assert code == 0
    assert "14/14 rows matched" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "table1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["results"]["failed"] == 0


def test_byte_identical_output(capsys):
    _, out1, _ = run_cli(capsys, "table", "--model", "chi2log", "--n", "3,160")
    _, out2, _ = run_cli(capsys, "table", "--model", "chi2log", "--n", "3,160")
    assert out1 == out2
    _, out1, _ = run_cli(capsys, "posterior", "--model", "trig", "--xi-true", "0.1",
                         "--n", "12", "--seed", "3")
    _, out2, _ = run_cli(capsys, "posterior", "--model", "trig", "--xi-true", "0.1",
                         "--n", "12", "--seed", "3")
    assert out1 == out2


def test_quad_tol_flag(capsys):
    code, _, _ = run_cli(capsys, "fisher", "--model", "gauss", "--quad-tol", "1e-8")
    assert code == 0


def test_quad_tol_only_where_quadrature_runs(capsys):
    for argv in (
        ("criterion", "--model", "chi2log"),
        ("table", "--model", "chi2log", "--n", "3"),
        ("posterior", "--model", "gauss", "--xi-true", "0", "--n", "5", "--seed", "1"),
    ):
        code, _, err = run_cli(capsys, *argv, "--quad-tol", "1e-8")
        assert code == 2
        assert "--quad-tol" in err
    code, _, _ = run_cli(capsys, "verify", "--suite", "table1", "--quad-tol", "1e-8")
    assert code == 0


def test_out_file(capsys, tmp_path):
    path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "table", "--model", "chi2log", "--n", "3", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text().startswith("N,ratio_raw,ratio_3dp\n")


@pytest.mark.parametrize(
    "argv,target",
    [
        (("fisher", "--model", "trig", "--out"), "missing/x.json"),
        (("fisher", "--model", "trig", "--out"), "."),
        (
            ("posterior", "--model", "binom", "--xi-true", "0.3", "--n", "5", "--seed", "7",
             "--grid-out"),
            "missing/g.csv",
        ),
    ],
    ids=["out_in_a_missing_directory", "out_is_a_directory", "grid_out_in_a_missing_directory"],
)
def test_an_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv, target):
    path = str(tmp_path / target)
    code, out, err = run_cli(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert len(err.splitlines()) == 1


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "gaussn", "table", "--model", "trig", "--n", "8"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "N,ratio_raw,ratio_3dp"


def test_imports_without_scipy():
    # numpy is the only runtime dependency: a blocked scipy import must not matter.
    code = "import sys; sys.modules['scipy'] = None; import gaussn, gaussn.cli"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_posterior_command_estimates_once(capsys, monkeypatch):
    import gaussn.cli as cli
    import gaussn.posterior as posterior

    calls = []
    real = cli.ml_estimate

    def counting(*args, **kwargs):
        calls.append(args[0].id.value)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "ml_estimate", counting)
    monkeypatch.setattr(posterior, "ml_estimate", counting)
    code, _, _ = run_cli(
        capsys, "posterior", "--model", "trig", "--xi-true", "0.2", "--n", "40", "--seed", "7"
    )
    assert code == 0
    assert calls == ["trig"]


def test_xi_outside_domain(capsys):
    code, _, err = run_cli(capsys, "fisher", "--model", "trig", "--xi", "3.0")
    assert code == 2
    assert "domain" in err


@pytest.mark.parametrize("sigma", ("1e-17", "3e-17", "1e-16", "1e-14"))
def test_posterior_on_a_window_of_few_doubles_exits_2(capsys, sigma):
    argv = ("posterior", "--model", "gauss", "--sigma", sigma, "--xi-true", "0.3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv, "--n", "5", "--seed", "7")
    assert (code, out) == (2, "")
    assert "degenerate grid" in err and "strictly increasing" in err


def test_numerical_failure_maps_to_exit_3(capsys, monkeypatch):
    from gaussn.errors import QuadratureError
    import gaussn.cli as cli

    def boom(*args, **kwargs):
        raise QuadratureError("tolerance not reached")

    monkeypatch.setattr(cli, "fisher_gradient_form", boom)
    code, _, err = run_cli(capsys, "fisher", "--model", "gauss")
    assert code == 3
    assert "numerical failure" in err


EXTREME_SIGMAS = ("0", "-1", "nan", "inf", "1e-300", "1e-100", "1e-20", "1e20", "1e100", "1e200")
SIGMA_COMMANDS = (
    ("criterion", "--model", "gauss"),
    ("table", "--model", "gauss", "--n", "1,5"),
    ("posterior", "--model", "gauss", "--xi-true", "0.3", "--n", "5", "--seed", "7"),
)


def _typed_failure(capsys, argv):
    """Run the CLI; it must exit 0, 2 or 3, and a failure says one line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err
    assert len(err.splitlines()) == (0 if code == 0 else 1), err
    return code, err


@pytest.mark.parametrize("sigma", EXTREME_SIGMAS)
@pytest.mark.parametrize("command", SIGMA_COMMANDS)
def test_extreme_sigma_is_a_typed_failure(capsys, command, sigma):
    code, err = _typed_failure(capsys, [*command, f"--sigma={sigma}"])
    if sigma in ("inf", "1e-300", "1e-100", "1e100", "1e200"):
        assert code == 2 and "< sigma <" in err


@pytest.mark.parametrize(
    "argv,want",
    [
        (("--sigma", "inf"), 2),
        (("--sigma", "1e-300"), 2),
        (("--sigma", "1e-6"), 0),
        (("--sigma", "1e8", "--xi", "5"), 0),
        (("--sigma", "1e12"), 0),
    ],
)
def test_fisher_extreme_sigma_exit_codes(capsys, argv, want):
    assert _typed_failure(capsys, ["fisher", "--model", "gauss", *argv])[0] == want


@pytest.mark.parametrize(
    "argv",
    [
        # chi2log is a location family: the coarse rule fails at every xi
        ("--model", "chi2log", "--xi", "-3", "--quad-tol", "1e-2"),
        ("--model", "chi2log", "--quad-tol", "1e-1"),
        ("--model", "chi2log", "--xi", "1.1", "--quad-tol", "1e-2"),  # forms 99.8 % apart
    ],
)
def test_fisher_refuses_forms_that_disagree(capsys, argv):
    code, err = _typed_failure(capsys, ["fisher", *argv])
    assert code == 3
    assert "gradient_form" in err and "curvature_form" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--sigma", "1e-6"),
        ("--sigma", "1e-7", "--xi", "0.3"),
        ("--sigma", "1e-8", "--xi", "0.3"),
        ("--sigma", "1e-20", "--xi", "0.3"),
        ("--sigma", "1e20", "--xi", "5"),
        ("--sigma", "1e-5"),
    ],
)
def test_fisher_is_one_over_sigma_squared_at_every_scale(capsys, argv):
    # Steps grown by max(1, sigma) stayed at 1e-5 for narrow families: the
    # score underflowed to 0 (exit 3 from 1e-6 down) or lost 5.4e-4 (1e-5),
    # and 1e20 at xi = 5 exited 3 too.  The unit record's F over sigma^2
    # holds at every scale.
    code, out, err = run_cli(capsys, "fisher", "--model", "gauss", *argv)
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    want = 1.0 / float(argv[1]) ** 2
    for form in ("gradient_form", "curvature_form"):
        assert results[form] == pytest.approx(want, rel=1e-6, abs=0), form


def test_infinite_sigma_is_a_usage_error_for_every_model(capsys):
    # JSON has no inf: the envelope must never carry one
    for name in ("chi2log", "gauss", "trig", "binom"):
        for command in (
            ("criterion",),
            ("table", "--n", "8"),
            ("fisher",),
            ("posterior", "--xi-true", "0.3", "--n", "5", "--seed", "7"),
        ):
            argv = (*command, "--model", name, "--sigma", "inf")
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "sigma" in err and len(err.splitlines()) == 1, (argv, err)


SIGMA_MODEL_COMMANDS = (
    ("criterion",),
    ("table", "--n", "8"),
    ("fisher",),
    ("posterior", "--xi-true", "0.3", "--n", "5", "--seed", "7"),
)


def test_nan_sigma_is_a_usage_error_naming_finiteness(capsys):
    for name in ("chi2log", "gauss", "trig", "binom"):
        for command in SIGMA_MODEL_COMMANDS:
            argv = (*command, "--model", name, "--sigma", "nan")
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (2, "", "error: sigma must be finite, got nan\n"), argv


@pytest.mark.parametrize("name", ("chi2log", "trig", "binom"))
def test_sigma_is_a_usage_error_without_a_length_scale(capsys, name):
    for command in SIGMA_MODEL_COMMANDS:
        code, out, err = run_cli(capsys, *command, "--model", name, "--sigma", "5")
        assert (code, out) == (2, ""), command
        assert "sigma must be 1" in err and "gauss" in err and len(err.splitlines()) == 1, err
        code, out, _ = run_cli(capsys, *command, "--model", name, "--sigma", "1")
        assert code == 0 and out == run_cli(capsys, *command, "--model", name)[1], command


@pytest.mark.parametrize("name", ("chi2log", "gauss"))
@pytest.mark.parametrize("value", ("inf", "-inf"))
def test_non_finite_parameter_on_the_line_is_a_usage_error(capsys, name, value):
    for argv in (
        ("fisher", "--model", name, f"--xi={value}"),
        ("posterior", "--model", name, f"--xi-true={value}", "--n", "5", "--seed", "1"),
    ):
        code, err = _typed_failure(capsys, argv)
        assert code == 2, (argv, err)
        assert f"parameter {float(value)!r} must be finite" in err, (argv, err)


@pytest.mark.parametrize("message", ("Unable to allocate 745. GiB for an array", ""))
def test_allocation_failure_is_a_usage_error(capsys, monkeypatch, message):
    import gaussn.cli as cli

    def too_large(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "sample", too_large)
    argv = ("posterior", "--model", "trig", "--xi-true", "0.3", "--n", "5", "--seed", "1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory") and len(err.splitlines()) == 1, err
    assert message in err


def test_paper_rounding_below_its_step_is_a_usage_error(capsys):
    code, err = _typed_failure(capsys, ["criterion", "--model", "trig", "--threshold", "1e-300"])
    assert code == 2 and "--mode strict" in err


@pytest.mark.parametrize("model", ["trig", "binom"])
def test_paper_rounding_warns_within_ten_steps(capsys, model):
    # Rounded to 3 decimals, the raw ratio 3 / (4 * 501), 50 % over the
    # threshold, passes 0.001 at N = 501; the raw ratio first holds at 750.
    code, out, err = run_cli(capsys, "criterion", "--model", model, "--threshold", "0.001")
    results = json.loads(out)["results"]
    assert (code, results["minimal_n"]) == (0, 501)
    assert results["report"]["ratio_raw"] == pytest.approx(3.0 / 2004.0, rel=1e-12)
    assert err.startswith("warning: ") and len(err.splitlines()) == 1, err
    assert "--mode strict" in err
    strict = run_cli(capsys, "criterion", "--model", model, "--threshold", "0.001", "--mode", "strict")
    assert (strict[0], json.loads(strict[1])["results"]["minimal_n"], strict[2]) == (0, 750, "")
    for threshold in ("0.005", "0.1"):
        assert run_cli(capsys, "criterion", "--model", model, "--threshold", threshold)[2] == ""


def test_negative_seed_is_a_usage_error(capsys):
    argv = ["posterior", "--model", "trig", "--xi-true", "0.3", "--n", "5", "--seed", "-1"]
    code, err = _typed_failure(capsys, argv)
    assert code == 2 and "seed must be nonnegative" in err


@pytest.mark.parametrize("sigma", ["1e-20", "1e20"])
def test_gauss_minimal_n_is_one_at_any_scale(capsys, sigma):
    # The gauss record declares order 4 at every scale, and the ratio of an
    # exactly quadratic H is 0.
    code, out, _ = run_cli(capsys, "criterion", "--model", "gauss", "--sigma", sigma)
    assert code == 0
    assert json.loads(out)["results"]["minimal_n"] == 1
    code, out, _ = run_cli(capsys, "table", "--model", "gauss", "--sigma", sigma, "--n", "1,2")
    assert code == 0
    assert out.splitlines()[1:] == ["1,0,0.000", "2,0,0.000"]


def test_collapsed_posterior_window_is_a_usage_error(capsys):
    argv = ["posterior", "--model", "gauss", "--sigma", "1e-20", "--xi-true", "0.3",
            "--n", "5", "--seed", "7"]
    code, err = _typed_failure(capsys, argv)
    assert code == 2
    assert "halfwidth" in err and "center" in err and "domain" not in err


SNAPSHOT = Path(__file__).parent / "data" / "cli_snapshot.json"
FAILING_CALLS = (
    "criterion --model nope",
    "posterior --model trig",  # required options missing
    "--help",
    "fisher --model gauss --sigma 0",
)
FRESH_MAIN = "import sys; from gaussn.cli import main; sys.exit(main(sys.argv[1:]))"


def test_repeated_main_calls_carry_no_state(capsys, monkeypatch):
    # One process runs every snapshot command, each after a failing call:
    # outputs match the snapshot and failures match a fresh process's.
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    fresh = {}
    for call in FAILING_CALLS:
        proc = subprocess.run(
            [sys.executable, "-c", FRESH_MAIN, *call.split()],
            capture_output=True, text=True, timeout=120,
        )
        fresh[call] = (proc.returncode, proc.stdout, proc.stderr)
        assert proc.returncode != 0 or call == "--help", (call, proc.stderr)
    golden = json.loads(SNAPSHOT.read_text())
    commands = sorted(golden)
    random.Random(11).shuffle(commands)
    for i, command in enumerate(commands):
        call = FAILING_CALLS[i % len(FAILING_CALLS)]
        assert run_cli(capsys, *call.split()) == fresh[call], call
        code, out, _ = run_cli(capsys, *command.split())
        assert (code, out) == (0, golden[command]), command
