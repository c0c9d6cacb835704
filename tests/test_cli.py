"""Command-line interface: report schema, determinism, exit codes."""
import argparse
import json
import math
import warnings

import mpmath
import pytest

from conifold_flows import cli
from conifold_flows.cli import _parse_planewave, build_parser, main
from conifold_flows.errors import DomainError, GradientCatastropheError
from conifold_flows.reporting import (
    dump_json,
    fmt_complex,
    fmt_float,
    parse_complex,
)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# evaluations


def test_bernoulli_report_is_exact(capsys):
    code, rep = run_json(capsys, ["specfun", "eval", "--bernoulli", "4"])
    assert code == 0
    assert rep["schema"] == 1 and rep["status"] == "pass"
    assert rep["results"]["value"] == "-1/30"


def test_polylog_eval(capsys):
    code, rep = run_json(capsys, ["specfun", "eval", "--polylog", "2", "0.5"])
    assert code == 0
    want = complex(mpmath.polylog(2, 0.5))
    assert abs(parse_complex(rep["results"]["value"]) - want) < 1e-13


def test_values_with_a_negative_real_part(capsys):
    code, rep = run_json(capsys, ["specfun", "eval", "--polylog", "2",
                                  "-0.5+0.1i"])
    assert code == 0
    want = complex(mpmath.polylog(2, -0.5 + 0.1j))
    assert abs(parse_complex(rep["results"]["value"]) - want) < 1e-13
    code, rep = run_json(capsys, ["gw", "eval", "--genus", "2",
                                  "--t", "-0.3+0.4i"])
    assert code == 0
    assert parse_complex(rep["params"]["t"]) == -0.3 + 0.4j


def test_specfun_needs_a_request(capsys):
    assert main(["specfun", "eval"]) == 2
    assert "error:" in capsys.readouterr().err


def test_polylog_outside_domain_is_an_error(capsys):
    assert main(["specfun", "eval", "--polylog", "4", "0.5"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_barnes_eval_default(capsys):
    code, rep = run_json(capsys, ["barnes", "eval"])
    assert code == 0
    assert rep["command"] == "barnes eval"
    assert "value" in rep["results"]


def test_barnes_zeta_below_stored_coefficients_exits_2(capsys):
    assert main(["barnes", "eval", "--function", "zeta", "--s", "-70",
                 "--z", "0.7", "--omega", "1"]) == 2
    assert "m <= 63" in capsys.readouterr().err


def test_barnes_quadrature_failure_exits_2(capsys):
    assert main(["barnes", "eval", "--function", "log-gamma",
                 "--z", "0.01+5i", "--omega", "1,1,1"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and "estimate" in err


def test_barnes_eval_log_g(capsys):
    code, rep = run_json(capsys, ["barnes", "eval", "--function", "log-g",
                                  "--t", "0.3+0.4i", "--lam", "0.2"])
    assert code == 0
    assert parse_complex(rep["results"]["value"]) != 0


def test_barnes_eval_log_g_at_real_coupling_keeps_the_quadrature(capsys):
    # a real coupling has no q-series; the README example keeps its bytes
    code, rep = run_json(capsys, ["barnes", "eval", "--function", "log-g",
                                  "--t", "0.3+0.4i", "--lam", "0.2"])
    assert code == 0
    assert rep["results"]["value"] == "-0.018806356849473294+0.055189355253817601i"


def test_gw_eval_genus(capsys):
    code, rep = run_json(capsys, ["gw", "eval", "--genus", "2"])
    assert code == 0
    assert rep["params"]["genus"] == 2
    assert parse_complex(rep["results"]["value"]) != 0


def test_gw_eval_potential(capsys):
    code, rep = run_json(capsys, ["gw", "eval", "--potential",
                                  "--lam", "0.2", "--x", "0.5"])
    assert code == 0
    assert rep["params"]["potential"] is True


# ---------------------------------------------------------------------------
# checks


def test_gw_check_diff_passes_and_fails_by_tolerance(capsys):
    code, rep = run_json(capsys, ["gw", "check-diff"])
    assert code == 0 and rep["status"] == "pass"
    assert float(rep["residuals"]["difference_equation"]) <= 1e-8

    code, rep = run_json(capsys, ["gw", "check-diff", "--tol", "1e-30"])
    assert code == 1 and rep["status"] == "fail"


def test_gw_scan_reports_slopes(capsys):
    code, rep = run_json(capsys, ["gw", "scan-asymptotics", "--points", "5"])
    assert code == 0 and rep["status"] == "pass"
    slopes = rep["results"]["slopes"]
    assert abs(float(slopes["genus_cap_2"]) - 4.0) < 0.2
    assert abs(float(slopes["genus_cap_3"]) - 6.0) < 0.2


def test_hirota_check(capsys):
    code, rep = run_json(capsys, ["hirota", "check"])
    assert code == 0 and rep["status"] == "pass"
    assert float(rep["residuals"]["vacuum_max"]) == 0.0


def test_hirota_check_needs_five_sites(capsys):
    assert main(["hirota", "check", "--sites", "4"]) == 2
    assert "five sites" in capsys.readouterr().err


def test_disp_check_small_grid(capsys):
    code, rep = run_json(capsys, ["disp", "check", "--grid", "16"])
    assert code == 0 and rep["status"] == "pass"
    assert rep["results"]["density_constraint_sign_h"] == -1
    assert rep["results"]["identification_match_sign"] == "plus"
    assert rep["results"]["recombination_signs"] == {"u": -1, "v": 1}


@pytest.mark.parametrize("grid", ["32", "64"])
@pytest.mark.parametrize("zeta", ["0.25+0.1i", "0.3", "0.6"])
def test_disp_check_passes_at_large_zeta(capsys, grid, zeta):
    # the zeta-series order follows zeta, so the Hamiltonian-form residuals
    # stay at the finite-difference floor out to |zeta| = 0.6
    code, rep = run_json(capsys, ["disp", "check", "--grid", grid, "--zeta", zeta])
    assert code == 0 and rep["status"] == "pass", rep["residuals"]


@pytest.mark.parametrize("broken, tol_key", [
    ("fppp_identity", "fppp_identity"),
    ("identification_best_sign", "identification"),
])
def test_disp_check_fails_on_a_broken_identity(capsys, monkeypatch, broken,
                                               tol_key):
    # every residual of the report is held to --tol and enters the status
    from conifold_flows import disp

    if broken == "fppp_identity":
        real = disp.check_density_constraint

        def check(*args, **kwargs):
            return {**real(*args, **kwargs), "fppp_identity_error": 1e-3}
        monkeypatch.setattr(disp, "check_density_constraint", check)
    else:
        real = disp.check_principal_identification

        def check(*args, **kwargs):
            return {**real(*args, **kwargs), "difference_plus_sign": 1e-3,
                    "difference_minus_sign": 2e-3}
        monkeypatch.setattr(disp, "check_principal_identification", check)
    code, rep = run_json(capsys, ["disp", "check", "--grid", "16"])
    assert code == 1 and rep["status"] == "fail"
    assert float(rep["residuals"][broken]) == 1e-3
    assert float(rep["tolerances"][tol_key]) == 1e-6


def test_disp_check_passes_where_s_squared_nearly_vanishes(capsys):
    # density_ht was 0.97 here: np.sqrt flipped S inside a stencil
    code, rep = run_json(capsys, ["disp", "check",
                                  "--zeta", "0.1853239794172302+0.5574117540771675i"])
    assert code == 0 and rep["status"] == "pass", rep["residuals"]


# ---------------------------------------------------------------------------
# simulations


def test_al_run_short(capsys, tmp_path):
    csv_path = tmp_path / "traj.csv"
    code, rep = run_json(capsys, [
        "al", "run", "--N", "16", "--steps", "200",
        "--planewave", "A=0.2,B=0.1,k=2pi/16", "--csv", str(csv_path)])
    assert code == 0 and rep["status"] == "pass"
    assert csv_path.exists()
    meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
    assert meta["schema"] == 1 and meta["sites"] == 16


def test_al_run_drift_is_folded_mod_2pii(capsys):
    # C0 = sum log(1 - a b) winds by 2 pi i twice along this plane wave;
    # that winding is not drift
    code, rep = run_json(capsys, [
        "al", "run", "--N", "8", "--steps", "2000", "--dt", "1e-3",
        "--planewave", "A=2,B=0.6,mode=1"])
    assert code == 0 and rep["status"] == "pass"
    assert float(rep["residuals"]["conserved_drift"]) < 1e-12


def test_al_run_divergence_is_a_failed_check(capsys):
    # dt = 3 is far past RK4 stability: the run overflows to NaN, which is a
    # failed run, not an invalid input
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, rep = run_json(capsys, [
            "al", "run", "--N", "8", "--dt", "3", "--steps", "20",
            "--planewave", "A=0.9,B=0.5,mode=1"])
    assert code == 1 and rep["status"] == "fail"
    assert rep["results"]["aborted"] is True
    assert "Traceback" not in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_al_run_incommensurate_wavenumber(capsys):
    assert main(["al", "run", "--N", "16", "--steps", "10",
                 "--planewave", "A=0.2,B=0.1,k=2pi/7"]) == 2
    assert "incommensurate" in capsys.readouterr().err


def test_disp_run_short(capsys, tmp_path):
    csv_path = tmp_path / "fields.csv"
    code, rep = run_json(capsys, [
        "disp", "run", "--grid", "16", "--T", "0.05", "--csv", str(csv_path)])
    assert code == 0 and rep["status"] == "pass"
    assert csv_path.exists()
    assert (tmp_path / "fields.csv.meta.json").exists()


def test_disp_run_catastrophe_is_a_failed_check(capsys, monkeypatch):
    from conifold_flows import disp

    def evolve(*args, **kwargs):
        raise GradientCatastropheError("gradient growth", time=0.025)
    monkeypatch.setattr(disp, "evolve_dispersionless", evolve)
    code, rep = run_json(capsys, ["disp", "run", "--grid", "16", "--T", "0.05"])
    assert code == 1 and rep["status"] == "fail"
    assert rep["results"]["aborted"] is True
    assert float(rep["results"]["catastrophe_time"]) == 0.025


# ---------------------------------------------------------------------------
# the verdict rule


_AL_SHORT = ["al", "run", "--N", "16", "--steps", "10",
             "--planewave", "A=0.3,B=0.2,mode=1"]

# a cheap run of each subcommand with residuals, one threshold flag, and
# the residuals that flag holds (the identification residual is 0 at the
# default --x, so this run takes another)
_THRESHOLDS = {
    "gw-check-diff": (["gw", "check-diff"], "--tol", ["difference_equation"]),
    "gw-scan": (["gw", "scan-asymptotics", "--points", "3"], "--band",
                ["genus_cap_2", "genus_cap_3"]),
    "hirota-check": (["hirota", "check"], "--tol", ["first_order_max"]),
    "al-run-tol": (_AL_SHORT, "--tol", ["max_error_vs_analytic"]),
    "al-run-drift-tol": (_AL_SHORT, "--drift-tol", ["conserved_drift"]),
    "disp-check": (["disp", "check", "--grid", "16", "--x", "0.55"], "--tol",
                   ["density_h", "density_ht", "fppp_identity",
                    "hamiltonian_form_z", "hamiltonian_form_zt",
                    "identification_best_sign"]),
}


@pytest.mark.parametrize("argv, flag, keys", _THRESHOLDS.values(),
                         ids=_THRESHOLDS.keys())
def test_status_follows_the_residuals_and_their_tolerances(capsys, argv, flag,
                                                           keys):
    # a threshold just below a residual fails the run; one equal to it
    # passes exactly when no other residual the flag holds is larger
    _, rep = run_json(capsys, argv)
    residuals = {key: float(rep["residuals"][key]) for key in keys}
    worst = max(residuals.values())
    for key, r in residuals.items():
        assert r > 0, key
        code, rep = run_json(capsys, argv + [flag, repr(math.nextafter(r, 0))])
        assert (code, rep["status"]) == (1, "fail"), key
        code, rep = run_json(capsys, argv + [flag, repr(r)])
        assert (code, rep["status"]) == ((0, "pass") if r == worst
                                         else (1, "fail")), key


def test_unheld_residuals_and_aborted_runs_fail():
    def status(residuals, tolerances, results=None):
        return cli._report("c", {}, results or {}, residuals, tolerances)["status"]
    assert status({"r_x": 1.0}, {"r": 1.0}) == "pass"
    assert status({"r": 0.0}, {"s": 1.0}) == "fail"
    assert status({"rx": 0.0}, {"r": 1.0}) == "fail"
    assert status({"r": math.nan}, {"r": 1.0}) == "fail"
    assert status({}, {}, {"aborted": True}) == "fail"


# ---------------------------------------------------------------------------
# plane-wave parameter grammar


@pytest.mark.parametrize("text, mode", [
    ("A=0.3,B=0.2,k=2pi/64", 1),
    ("A=0.3,B=0.2,k=3*2pi/64", 3),
    ("A=0.3,B=0.2,k=2π/32", 2),
    ("A=0.3,B=0.2,mode=5", 5),
])
def test_planewave_grammar(text, mode):
    pw = _parse_planewave(text, 64)
    assert pw.mode == mode
    assert pw.amp_a == 0.3 and pw.amp_b == 0.2


@pytest.mark.parametrize("text", [
    "A=0.3,B=0.2",                  # no wavenumber
    "A=0.3,B=0.2,k=7/64",           # malformed
    "A=0.3,B=0.2,q=2pi/64",         # unknown key
    "A=0.3,B=0.2,k=2pi/48",         # incommensurate with 64
    "A=0.3,B=0.2,k=2pi/0",          # zero denominator
    "junk",
])
def test_planewave_grammar_rejects(text):
    with pytest.raises(DomainError):
        _parse_planewave(text, 64)


# ---------------------------------------------------------------------------
# determinism and exit codes


def test_reports_are_byte_identical(tmp_path):
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["--out", str(f1), "gw", "check-diff"]) == 0
    assert main(["--out", str(f2), "gw", "check-diff"]) == 0
    assert f1.read_bytes() == f2.read_bytes()


@pytest.mark.parametrize("argv, names", [
    (["disp", "run", "--T", "inf"], "T = inf"),
    (["disp", "run", "--dt", "nan"], "dt = nan"),
    (["disp", "run", "--length", "nan"], "length"),
    (["disp", "run", "--grid", "64", "--T", "0.05", "--dt", "5e-4",
      "--length", "0"], "length"),
    (["disp", "run", "--length", "inf"], "length"),
    (["disp", "check", "--length", "0"], "length"),
    (["disp", "run", "--grid", "0"], "four"),
    (["disp", "run", "--flow", "0", "--T", "0.0004"], "flow index"),
    (["disp", "run", "--T", "0.0016"], "T = 0.0016"),
    (["disp", "check", "--zeta", "1e200"], "zeta"),
    (["disp", "check", "--zeta", "0.8"], "zeta"),
    (["gw", "scan-asymptotics", "--eps", "0.1,0.1", "--points", "2"], "eps"),
    (["gw", "eval", "--potential", "--lam", "0"], "coupling"),
    (["gw", "eval", "--potential", "--lam", "1e-200"], "coupling"),
    (["barnes", "eval", "--function", "log-g", "--lam", "1e-200"], "coupling"),
    (["al", "run", "--N", "8", "--planewave", "A=0.3,B=0.2,mode=1",
      "--dt", "nan"], "dt = nan"),
    (["barnes", "eval", "--function", "log-h", "--omega", "0.2,1",
      "--quad-tol", "-1"], "tolerance"),
    (["barnes", "eval", "--function", "log-g", "--quad-tol", "0"], "tolerance"),
    (["barnes", "eval", "--function", "log-sine", "--quad-tol", "nan"],
     "tolerance"),
    (["gw", "check-diff", "--quad-tol", "inf"], "tolerance"),
    (["disp", "check", "--tol", "nan"], "--tol"),
    (["hirota", "check", "--tol", "nan"], "--tol"),
    (["disp", "check", "--tol", "-1"], "--tol"),
    (["gw", "check-diff", "--tol", "-1"], "--tol"),
    (["al", "run", "--N", "8", "--planewave", "A=0.3,B=0.2,mode=1",
      "--drift-tol", "0"], "--drift-tol"),
    (["gw", "scan-asymptotics", "--band", "inf"], "--band"),
    (["al", "run", "--N", "8", "--planewave", "A=0.3,B=0.2,k=2pi/0"],
     "2pi/0"),
], ids=["disp-run-T-inf", "disp-run-dt-nan", "disp-run-length-nan",
        "disp-run-length-0", "disp-run-length-inf", "disp-check-length-0",
        "disp-run-grid-0",
        "disp-run-flow-0", "disp-run-T-not-whole-steps",
        "disp-check-zeta-1e200", "disp-check-zeta-0.8", "gw-scan-equal-eps",
        "gw-potential-lam-0", "gw-potential-lam-1e-200",
        "barnes-log-g-lam-1e-200", "al-run-dt-nan", "barnes-log-h-quad-tol-neg",
        "barnes-log-g-quad-tol-0", "barnes-log-sine-quad-tol-nan",
        "gw-check-diff-quad-tol-inf", "disp-check-tol-nan",
        "hirota-check-tol-nan", "disp-check-tol-neg", "gw-check-diff-tol-neg",
        "al-run-drift-tol-0", "gw-scan-band-inf", "al-run-k-over-0"])
def test_invalid_parameters_exit_2_with_one_error_line(capsys, argv, names):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert not caught, [str(w.message) for w in caught]
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert names in lines[0]


_MALFORMED = ("1-e+5i", "0.3+1e400i", "1_0i", "nan", "-_Infi")


# every numeric option of every subcommand, after the arguments that make
# the subcommand read it and keep its run short
_NUMERIC_OPTIONS = [
    ("specfun eval", ["specfun", "eval"],
     {"--bernoulli": None, "--polylog S": lambda v: ["--polylog", v, "2"],
      "--polylog Z": lambda v: ["--polylog", "2", v]}),
    ("barnes eval zeta", ["barnes", "eval", "--function", "zeta", "--s", "0.5"],
     {"--z": None, "--s": None, "--omega": None, "--quad-tol": None}),
    ("barnes eval log-h",
     ["barnes", "eval", "--function", "log-h", "--omega", "0.1+0.1i,1"],
     {"--t": None, "--omega": None}),
    ("barnes eval log-g",
     ["barnes", "eval", "--function", "log-g", "--lam", "0.1+0.1i"],
     {"--t": None, "--lam": None}),
    ("gw eval", ["gw", "eval", "--genus", "2"], {"--genus": None, "--t": None}),
    ("gw eval potential", ["gw", "eval", "--potential", "--lam", "0.1+0.1i"],
     {"--t": None, "--lam": None, "--x": None, "--kappa": None}),
    ("gw check-diff", ["gw", "check-diff"],
     {"--t": None, "--lambda": None, "--tol": None, "--quad-tol": None}),
    ("gw scan-asymptotics",
     ["gw", "scan-asymptotics", "--points", "3", "--genus", "2"],
     {"--t": None, "--theta": None, "--genus": None, "--eps": None,
      "--points": None, "--band": None}),
    ("hirota check", ["hirota", "check"],
     {"--seed": None, "--sites": None, "--tol": None}),
    ("al run",
     ["al", "run", "--N", "8", "--steps", "10", "--planewave", "A=0.3,B=0.2,mode=1"],
     {"--N": None, "--dt": None, "--steps": None, "--tol": None,
      "--drift-tol": None,
      "--planewave A": lambda v: ["--planewave", f"A={v},B=0.2,mode=1"],
      "--planewave B": lambda v: ["--planewave", f"A=0.3,B={v},mode=1"]}),
    ("disp run", ["disp", "run", "--grid", "8", "--T", "0.01", "--dt", "0.005"],
     {"--grid": None, "--length": None, "--seed": None, "--flow": None,
      "--T": None, "--dt": None}),
    ("disp check", ["disp", "check", "--grid", "8"],
     {"--grid": None, "--length": None, "--seed": None, "--zeta": None,
      "--t": None, "--x": None, "--tol": None}),
]


def _exits_2_with_one_error_line(capsys, argv):
    assert main(argv) == 2, argv
    captured = capsys.readouterr()
    assert captured.out == "", argv
    assert "Traceback" not in captured.err, argv
    # argparse's own rejections print a usage line before theirs
    assert sum("error:" in line for line in captured.err.splitlines()) == 1, \
        (argv, captured.err)


@pytest.mark.parametrize("base, option, spell", [
    pytest.param(base, option, spell, id=f"{label} {option}")
    for label, base, options in _NUMERIC_OPTIONS
    for option, spell in options.items()])
def test_malformed_numbers_exit_2_with_one_error_line(capsys, base, option,
                                                      spell):
    for value in _MALFORMED:
        _exits_2_with_one_error_line(
            capsys, base + (spell(value) if spell else [option, value]))


@pytest.mark.parametrize("order", ["-200", "-3000"])
def test_polylog_past_the_double_range_exits_2(capsys, order):
    _exits_2_with_one_error_line(
        capsys, ["specfun", "eval", "--polylog", order, "0.5"])


def test_bad_flag_and_missing_command_exit_2(capsys):
    assert main(["specfun", "eval", "--bogus"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    assert "conifold-flows" in capsys.readouterr().out


def test_parser_builds_all_groups():
    parser = build_parser()
    text = parser.format_help()
    for group in ("specfun", "barnes", "gw", "hirota", "al", "disp"):
        assert group in text


def test_main_reuses_one_parser_with_the_same_reports(capsys, monkeypatch):
    # help, a bad flag and two subcommands through one parser print what
    # a fresh parser per call prints; build_parser stays a fresh one
    runs = [["--help"], ["specfun", "eval", "--bogus"],
            ["gw", "eval", "--genus", "2"], ["hirota", "check"]]

    def outputs():
        got = []
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    cli._parser.cache_clear()
    shared = outputs()
    assert cli._parser.cache_info().misses == 1
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert outputs() == shared
    assert [code for code, _, _ in shared] == [0, 2, 0, 0]
    assert build_parser() is not build_parser()


def _subcommands(parser):
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


# one cheap run of every subcommand
_ONE_RUN_EACH = {
    ("specfun", "eval"): ["--bernoulli", "4"],
    ("barnes", "eval"): ["--function", "log-g", "--lam", "0.1+0.1i"],
    ("gw", "eval"): ["--genus", "2"],
    ("gw", "check-diff"): [],
    ("gw", "scan-asymptotics"): ["--points", "3"],
    ("hirota", "check"): [],
    ("al", "run"): ["--N", "16", "--steps", "10",
                    "--planewave", "A=0.3,B=0.2,mode=1"],
    ("disp", "run"): ["--grid", "16", "--T", "0.01"],
    ("disp", "check"): ["--grid", "16"],
}


def test_every_residual_names_its_tolerance(capsys):
    # a reader pairs each residual with the tolerance of the same key, or
    # of a key it extends as <key>_...; none may be left without one
    parser = build_parser()
    pairs = {(group, action) for group, gp in _subcommands(parser).items()
             for action in _subcommands(gp)}
    assert pairs == set(_ONE_RUN_EACH)
    for (group, action), extra in _ONE_RUN_EACH.items():
        code, rep = run_json(capsys, [group, action] + extra)
        assert code in (0, 1), (group, action)
        tolerances = rep["tolerances"]
        for key in rep["residuals"]:
            assert any(key == tol or key.startswith(tol + "_")
                       for tol in tolerances), (group, action, key)


# ---------------------------------------------------------------------------
# serialization helpers


def test_complex_formatting_round_trip():
    for z in (0.3 + 0.4j, -1.25e-7 - 3.0j, 2.0 + 0j, 0.1j, -0.0 + 0.5j):
        assert parse_complex(fmt_complex(z)) == z
    assert parse_complex("0.3+0.4i") == 0.3 + 0.4j
    assert parse_complex("-2") == -2.0
    assert parse_complex("1e-3") == 1e-3
    with pytest.raises(DomainError):
        parse_complex("zebra")


def test_parse_complex_reads_with_complex_and_rejects_the_rest():
    # Python's complex() reads the numbers, correctly rounded, with i or j;
    # "-i" keeps its negative real zero; digit separators, words, other
    # characters and values that are not finite raise DomainError
    assert parse_complex("0.1+0.2i") == complex("0.1+0.2j")
    assert parse_complex("-2.5e-3j") == -2.5e-3j
    minus_i = parse_complex("-i")
    assert (math.copysign(1, minus_i.real), minus_i.imag) == (-1.0, -1.0)
    for text in ("1-e+5i", "0.3+1e400i", "1e400", "1_0i", "-_Infi", "nan",
                 "inf", "(1+2j)", "1J", "1+2i+3i", ""):
        with pytest.raises(DomainError):
            parse_complex(text)


def test_float_formatting_round_trips_doubles():
    for x in (1 / 3, 1e-300, -2.5000000000000004, 3.141592653589793):
        assert float(fmt_float(x)) == x


def test_dump_json_is_sorted_and_ascii():
    s = dump_json({"b": 1.5, "a": {"z": 2 + 3j, "y": None}})
    assert s.index('"a"') < s.index('"b"')
    assert "2+3i" in s
    assert s.endswith("\n")
    # already-formatted payloads dump to the same bytes
    assert dump_json(json.loads(s)) == s
