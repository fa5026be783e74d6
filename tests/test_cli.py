"""End-to-end checks of the command-line interface.

Everything goes through cli.main(argv) so exit codes and stdout are observed
exactly as a shell would see them (argparse usage errors included).
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hyperex
from hyperex.cli import main
from hyperex.functionals import best_constant, monotonicity_scan


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, _ = run_cli(capsys, argv + ["--json", "--no-meta"])
    assert rc == 0
    return json.loads(out)


class TestConstants:
    def test_full_table_csv(self, capsys):
        rc, out, _ = run_cli(capsys, ["constants", "--csv"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "d,p,s,sheet,expression,value"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "4" and first[3] == "one"
        assert float(first[-1]) == pytest.approx(2.0 ** 0.75 * math.pi, rel=1e-15)

    def test_single_pair_json(self, capsys):
        report = run_json(capsys, ["constants", "--d", "3", "--p", "4"])
        assert report["command"] == "constants"
        assert set(report) == {
            "command",
            "inputs",
            "outputs",
            "error_estimates",
            "seed",
            "wall_time_ms",
        }
        (row,) = report["outputs"]["rows"]
        assert row["value"] == pytest.approx((2.0 * math.pi) ** 1.25, rel=1e-15)
        assert report["wall_time_ms"] == 0

    def test_two_sheet_row(self, capsys):
        report = run_json(
            capsys, ["constants", "--d", "2", "--p", "6", "--sheet", "two"]
        )
        (row,) = report["outputs"]["rows"]
        assert row["value"] == pytest.approx(
            2.5 ** (1.0 / 3.0) * (2.0 * math.pi) ** (5.0 / 6.0), rel=1e-15
        )

    def test_s_dependence_shows_up(self, capsys):
        r1 = run_json(capsys, ["constants", "--d", "2", "--p", "4"])
        r2 = run_json(capsys, ["constants", "--d", "2", "--p", "4", "--s", "16"])
        v1 = r1["outputs"]["rows"][0]["value"]
        v2 = r2["outputs"]["rows"][0]["value"]
        assert v2 == pytest.approx(v1 * 16.0 ** -0.25, rel=1e-14)

    def test_half_specified_pair_is_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, ["constants", "--d", "2"])
        assert rc == 2
        assert "both --d and --p" in err

    def test_unsupported_pair_is_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, ["constants", "--d", "2", "--p", "5"])
        assert rc == 2
        assert "unsupported pair" in err

    def test_library_value_errors_are_usage_errors(self, capsys):
        for s in ("nan", "-1"):
            rc, _, err = run_cli(capsys, ["constants", "--s", s])
            assert rc == 2
            assert "Traceback" not in err

    def test_unknown_flag_is_usage_error(self, capsys):
        rc, _, _ = run_cli(capsys, ["constants", "--bogus"])
        assert rc == 2


class TestCurve:
    def test_csv_to_stdout(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["curve", "--d", "2", "--p", "6", "--a-min", "0.5", "--a-max", "2",
             "--points", "4"],
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,q_value,limit_value,ratio"
        assert len(lines) == 5
        for line in lines[1:]:
            a, q, limit, ratio = map(float, line.split(","))
            assert ratio == pytest.approx(q / limit, rel=1e-15)
            assert 0.0 < ratio < 1.0

    def test_out_file_and_seventeen_digit_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        report = run_json(
            capsys,
            ["curve", "--d", "2", "--p", "4", "--a-min", "1", "--a-max", "3",
             "--points", "3", "--out", str(path)],
        )
        assert report["outputs"]["csv_path"] == str(path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        for row, line in zip(report["outputs"]["rows"], lines[1:]):
            fields = [float(v) for v in line.split(",")]
            # %.17g must reproduce the binary doubles exactly.
            assert fields == [
                row["a"], row["q_value"], row["limit_value"], row["ratio"]
            ]

    def test_monotonicity_verdicts(self, capsys):
        up = run_json(
            capsys,
            ["curve", "--d", "2", "--p", "4", "--a-min", "0.001", "--a-max",
             "100", "--points", "12", "--log-spacing"],
        )
        down = run_json(
            capsys,
            ["curve", "--d", "2", "--p", "6", "--a-min", "0.001", "--a-max",
             "100", "--points", "12", "--log-spacing"],
        )
        assert up["outputs"]["monotonicity"] == "strictly-increasing"
        assert down["outputs"]["monotonicity"] == "strictly-decreasing"
        for row in down["outputs"]["rows"]:
            assert 0.0 < row["ratio"] < 1.0

    def test_degenerate_two_point_grid(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["curve", "--d", "2", "--p", "4", "--a-min", "1", "--a-max", "2",
             "--points", "2"],
        )
        assert rc == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "a,q_value,limit_value,ratio"

    def test_quadrature_method_reports_error_estimate(self, capsys):
        report = run_json(
            capsys,
            ["curve", "--d", "3", "--p", "4", "--a-min", "1", "--a-max", "2",
             "--points", "2", "--method", "quadrature"],
        )
        assert report["inputs"]["method"] == "quadrature"
        assert report["error_estimates"]["q_value_max"] > 0.0
        for row in report["outputs"]["rows"]:
            assert 0.0 < row["ratio"] < 1.0

    def test_saturated_ratio_is_refused(self, capsys):
        # At a s = 1e299 the closed ratio rounds to exactly Q = H.
        rc, out, err = run_cli(
            capsys,
            ["curve", "--d", "2", "--p", "4", "--a-min", "1e299", "--a-max",
             "1e300", "--points", "2"],
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("hyperex: ratio 1.0 >= 1 at a = 1e+299")
        assert len(err.strip().splitlines()) == 1

    def test_vanishing_quadrature_norm_is_refused(self, capsys):
        # Past a s ~ 1e18 the tau nodes k s + w'/(2a) round to k s and the
        # quadrature norm reads 0.
        rc, out, err = run_cli(
            capsys,
            ["curve", "--d", "2", "--p", "4", "--method", "quadrature",
             "--a-min", "1e19", "--a-max", "1e20", "--points", "2"],
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("hyperex: quadrature norm is 0.0 at a = 1e+19")
        assert len(err.strip().splitlines()) == 1

    def test_closed_is_the_default_route(self, capsys):
        argv = ["curve", "--d", "3", "--p", "4", "--a-min", "0.01", "--a-max", "1",
                "--points", "6", "--log-spacing", "--json", "--no-meta"]
        rc1, default, _ = run_cli(capsys, argv)
        rc2, closed, _ = run_cli(capsys, argv + ["--method", "closed"])
        assert rc1 == rc2 == 0
        assert default == closed
        assert json.loads(default)["inputs"]["method"] == "closed"

    def test_closed_method_for_d3_runs(self, capsys):
        rc, _, _ = run_cli(
            capsys,
            ["curve", "--d", "3", "--p", "4", "--a-min", "1", "--a-max", "2",
             "--method", "closed"],
        )
        assert rc == 0

    @pytest.mark.parametrize("d, p, a_min, a_max, points", [
        (2, 6, "1", "1e300", "5"),
        (3, 4, "1e-8", "1e-4", "41"),
    ])
    def test_closed_curve_far_into_the_limits(self, capsys, d, p, a_min, a_max, points):
        # (2, 6) out to a s = 1e300 and (3, 4) down to 1e-8, where the ratio
        # is within 2e-15 of 1: strictly decreasing and strictly below H.
        report = run_json(
            capsys,
            ["curve", "--d", str(d), "--p", str(p), "--a-min", a_min, "--a-max",
             a_max, "--points", points, "--log-spacing"],
        )
        assert report["inputs"]["method"] == "closed"
        assert report["outputs"]["monotonicity"] == "strictly-decreasing"
        assert len(report["outputs"]["rows"]) == int(points)
        assert all(0.0 < row["ratio"] < 1.0 for row in report["outputs"]["rows"])

    def test_bad_grid_is_usage_error(self, capsys):
        rc, _, _ = run_cli(
            capsys,
            ["curve", "--d", "2", "--p", "4", "--a-min", "2", "--a-max", "1"],
        )
        assert rc == 2
        rc, _, _ = run_cli(
            capsys,
            ["curve", "--d", "2", "--p", "4", "--a-min", "1", "--a-max", "2",
             "--points", "1"],
        )
        assert rc == 2
        # The grid rounds to 1, 1, 1.0000000000000002: repeated rates.
        rc, out, err = run_cli(
            capsys,
            ["curve", "--d", "2", "--p", "4", "--a-min", "1", "--a-max",
             "1.0000000000000002", "--points", "3"],
        )
        assert (rc, out) == (2, "")
        assert "strictly increasing" in err

    def test_infinite_rate_is_usage_error(self, capsys):
        rc, _, err = run_cli(
            capsys,
            ["curve", "--d", "2", "--p", "4", "--a-min", "1", "--a-max", "inf"],
        )
        assert rc == 2
        assert "finite" in err

    def test_rows_are_the_scan_points(self, capsys):
        for d, p in ((2, 6), (3, 4)):
            report = run_json(
                capsys,
                ["curve", "--d", str(d), "--p", str(p), "--a-min", "0.5",
                 "--a-max", "4", "--points", "3", "--log-spacing"],
            )
            grid = np.geomspace(0.5, 4.0, 3)
            points, verdict = monotonicity_scan(d, p, 1.0, grid)
            limit = best_constant(d, p).value
            assert report["outputs"]["rows"] == [
                {"a": pt.a, "q_value": pt.q_value, "limit_value": limit,
                 "ratio": pt.q_value / limit}
                for pt in points
            ]
            assert report["outputs"]["monotonicity"] == verdict
            assert report["error_estimates"] == {}

    def test_byte_identical_reruns(self, capsys):
        argv = ["curve", "--d", "2", "--p", "4", "--a-min", "0.7", "--a-max",
                "2.9", "--points", "5", "--json", "--no-meta"]
        rc1, out1, _ = run_cli(capsys, argv)
        rc2, out2, _ = run_cli(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


class TestConv:
    def test_closed_worked_value(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["conv", "--d", "2", "--n", "2", "--s", "1", "--xi", "0,0",
             "--tau", "4"],
        )
        assert rc == 0
        assert out.splitlines()[0] == "value = 1.5707963267948966"

    def test_oracle_agrees_with_closed_d3(self, capsys):
        report = run_json(
            capsys,
            ["conv", "--d", "3", "--n", "2", "--s", "1", "--xi", "0,0,0",
             "--tau", "4", "--method", "oracle"],
        )
        out = report["outputs"]
        assert out["value"] == pytest.approx(math.pi * math.sqrt(3.0), rel=1e-14)
        assert out["abs_difference"] <= max(
            3.0 * report["error_estimates"]["oracle_value"], 1e-9
        )
        off_axis = run_json(
            capsys,
            ["conv", "--d", "3", "--n", "2", "--xi", "3,0,0", "--tau", "5",
             "--method", "oracle"],
        )
        assert off_axis["outputs"]["value"] == pytest.approx(
            math.pi * math.sqrt(3.0), rel=1e-14
        )
        assert off_axis["outputs"]["abs_difference"] < 1e-9

    def test_outside_support_note(self, capsys):
        report = run_json(
            capsys, ["conv", "--d", "2", "--n", "3", "--xi", "1,1", "--tau", "2"]
        )
        assert report["outputs"]["value"] == 0.0
        assert report["outputs"]["notes"] == ["outside-support"]

    @pytest.mark.parametrize("xi, tau", [("-1.133,6.128", "6.5449272723232"),
                                         ("-2.627,-4.543", "5.61604647416668")])
    def test_outside_support_note_iff_value_vanishes(self, capsys, xi, tau):
        # Both points lie within 3e-15 of the support boundary m^2 = 4, where
        # the verdict is a rounding call; the value and the note share it.
        out = run_json(capsys, ["conv", "--d", "2", "--n", "2", f"--xi={xi}",
                                "--tau", tau])["outputs"]
        assert (out.get("notes") == ["outside-support"]) == (out["value"] == 0.0)

    def test_boundary_proximate_flag(self, capsys):
        report = run_json(
            capsys,
            ["conv", "--d", "2", "--n", "2", "--xi", "0,0",
             "--tau", "2.0000000001", "--method", "oracle"],
        )
        assert "boundary-proximate" in report["outputs"]["notes"]

    def test_closed_value_on_the_computed_boundary_is_flagged(self, capsys):
        # m^2 rounds to exactly 4 s^2 here, so the closed d = 3 density reads 0
        # where mpmath gives 1.43e-5 at the input doubles; it used to print no note.
        out = run_json(capsys, ["conv", "--d", "3", "--n", "2",
                                "--xi=-1129.808007433157,-0.6622742686834313,"
                                "-0.16094515910797458", "--tau", "1129.8099832142711"])["outputs"]
        assert out["value"] == 0.0
        assert out["notes"] == ["boundary-proximate"]

    def test_usage_errors(self, capsys):
        rc, _, _ = run_cli(
            capsys, ["conv", "--d", "3", "--n", "3", "--xi", "0,0,0", "--tau", "4"]
        )
        assert rc == 2
        rc, _, err = run_cli(
            capsys, ["conv", "--d", "2", "--n", "2", "--xi", "1,2,3", "--tau", "4"]
        )
        assert rc == 2
        assert "components" in err
        rc, _, _ = run_cli(
            capsys,
            ["conv", "--d", "2", "--n", "3", "--xi", "0,0", "--tau", "4",
             "--method", "oracle"],
        )
        assert rc == 2
        rc, _, _ = run_cli(
            capsys, ["conv", "--d", "2", "--n", "2", "--xi", "a,b", "--tau", "4"]
        )
        assert rc == 2

    def test_non_finite_inputs_are_usage_errors(self, capsys):
        for xi, tau in (("0,0", "nan"), ("0,nan", "4"), ("inf,0", "4")):
            rc, out, _ = run_cli(
                capsys,
                ["conv", "--d", "2", "--n", "2", "--xi", xi, "--tau", tau, "--json"],
            )
            assert rc == 2
            assert out == ""


class TestVerify:
    def test_specfun_suite_passes(self, capsys):
        rc, out, _ = run_cli(capsys, ["verify", "--suite", "specfun"])
        assert rc == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].endswith("0 failed")

    def test_sharp_suite_byte_identical(self, capsys):
        argv = ["verify", "--suite", "sharp", "--seed", "11", "--samples",
                "20000", "--json", "--no-meta"]
        rc1, out1, _ = run_cli(capsys, argv)
        rc2, out2, _ = run_cli(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_oracle_suite_reports_mc_error_estimate(self, capsys):
        report = run_json(capsys, ["verify", "--suite", "oracle", "--seed", "3"])
        assert report["outputs"]["failed_count"] == 0
        assert report["error_estimates"]["oracle/montecarlo-pairing-3sigma"] > 0.0
        assert report["seed"] == 3

    def test_samples_sets_only_the_montecarlo_count_in_oracle(self, capsys):
        # A quarter grid keeps this fast; it may honestly fail the tensor
        # pairing check, which is not what is tested here.
        _, out, _ = run_cli(
            capsys, ["verify", "--suite", "oracle", "--samples", "2000",
                     "--grid", "25", "--json", "--no-meta"]
        )
        notes = {c["name"]: c["note"] for c in json.loads(out)["outputs"]["checks"]}
        assert notes["point-oracle-vs-closed"] == "30 random interior points"
        assert notes["montecarlo-pairing-3sigma"] == "2000 samples"

    def test_env_seed_pickup(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPEREX_SEED", "123")
        report = run_json(capsys, ["verify", "--suite", "sharp", "--samples",
                                   "20000"])
        assert report["seed"] == 123

    def test_flag_overrides_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPEREX_SEED", "123")
        report = run_json(capsys, ["verify", "--suite", "sharp", "--seed", "9",
                                   "--samples", "20000"])
        assert report["seed"] == 9

    def test_invalid_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPEREX_SEED", "not-a-number")
        rc, _, err = run_cli(capsys, ["verify", "--suite", "sharp",
                                      "--samples", "20000"])
        assert rc == 2
        assert "HYPEREX_SEED" in err

    def test_library_value_error_is_usage_error(self, capsys):
        rc, out, err = run_cli(
            capsys, ["verify", "--suite", "sharp", "--samples", "0"]
        )
        assert rc == 2
        assert out == ""
        assert err.startswith("hyperex: ")

    def test_unknown_suite_is_usage_error(self, capsys):
        rc, _, _ = run_cli(capsys, ["verify", "--suite", "nonsense"])
        assert rc == 2

    def test_grid_rescales_budgets(self, capsys):
        report = run_json(
            capsys, ["verify", "--suite", "lorentz", "--grid", "120"]
        )
        assert report["inputs"]["grid"] == 120
        assert report["outputs"]["failed_count"] == 0

    def test_nonpositive_grid_is_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, ["verify", "--suite", "sharp", "--grid", "0"])
        assert rc == 2
        assert "grid" in err


class TestConcentrate:
    def test_escape_regime(self, capsys):
        report = run_json(
            capsys, ["concentrate", "--d", "2", "--a", "0.001", "--radius", "10"]
        )
        assert report["outputs"]["mass_fraction"] == pytest.approx(0.0179, abs=5e-4)
        assert report["outputs"]["regime"] == "spatial-infinity"

    def test_vertex_regime(self, capsys):
        report = run_json(
            capsys, ["concentrate", "--d", "2", "--a", "100", "--radius", "1"]
        )
        assert report["outputs"]["mass_fraction"] == pytest.approx(1.0, abs=1e-3)
        assert report["outputs"]["regime"] == "vertex"

    def test_d3_runs(self, capsys):
        report = run_json(
            capsys, ["concentrate", "--d", "3", "--a", "2", "--radius", "1"]
        )
        assert 0.0 < report["outputs"]["mass_fraction"] < 1.0

    def test_tiny_radius_fraction_vanishes(self, capsys):
        report = run_json(
            capsys, ["concentrate", "--d", "2", "--a", "1", "--radius", "1e-6"]
        )
        assert report["outputs"]["mass_fraction"] == pytest.approx(0.0, abs=1e-10)
        assert report["outputs"]["regime"] == "spatial-infinity"

    @pytest.mark.filterwarnings("error")
    def test_d3_extreme_scales(self, capsys):
        # The first used to end in a ZeroDivisionError traceback; the second
        # wrote numpy's overflow RuntimeWarning to stderr.
        report = run_json(capsys, ["concentrate", "--d", "3", "--s", "1e-300",
                                   "--a", "1e300", "--radius", "1"])
        assert report["outputs"] == {"mass_fraction": 1.0, "regime": "vertex"}
        rc, out, err = run_cli(capsys, ["concentrate", "--d", "3", "--a", "1e-300",
                                        "--radius", "1"])
        assert (rc, out) == (2, "")
        assert err == ("hyperex: d = 3 mass fraction needs 1e-150 <= a s <= 1e+150, "
                       "got a s = 1e-300\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, radius, expected", [
        # u_ball - s = R^2 / (u_ball + s); the subtraction used to cancel to 0.
        ("1e20", "1e-10", -math.expm1(-1.0)),
        ("1e15", "1e-7", 0.9999546000702375),
        # 2 (a (u_ball - s)) is finite where 2 a overflowed to inf times 0.
        ("1.7e308", "1e-10", 1.0),
        # R^2 underflows: the share is 0, without a warning.
        ("1", "1e-170", 0.0),
    ])
    def test_d2_radius_below_s(self, capsys, a, radius, expected):
        report = run_json(capsys, ["concentrate", "--d", "2", "--a", a, "--radius", radius])
        assert report["outputs"]["mass_fraction"] == pytest.approx(expected, rel=1e-15)

    def test_bad_inputs(self, capsys):
        rc, _, _ = run_cli(
            capsys, ["concentrate", "--d", "4", "--a", "1", "--radius", "1"]
        )
        assert rc == 2
        rc, _, _ = run_cli(
            capsys, ["concentrate", "--d", "2", "--a", "-1", "--radius", "1"]
        )
        assert rc == 2


# Refusals that main maps to exit 2, whether the library or the CLI states
# the contract: (argv, the fragment of the one stderr line that names it).
REFUSALS = {
    "constants-half-pair": (["constants", "--d", "2"], "give both --d and --p or neither"),
    "constants-pair": (["constants", "--d", "2", "--p", "5"], "unsupported pair (d, p) = (2, 5)"),
    "curve-pair": (["curve", "--d", "2", "--p", "5", "--a-min", "1", "--a-max", "2"],
                   "unsupported pair (d, p) = (2, 5)"),
    "curve-points": (["curve", "--d", "2", "--p", "4", "--a-min", "1", "--a-max", "2",
                      "--points", "1"], "at least 2 points"),
    "curve-points-budget": (["curve", "--d", "2", "--p", "4", "--a-min", "1", "--a-max", "2",
                             "--points", str(10 ** 12)],
                            "1000000000000 curve points exceed the budget"),
    "curve-rates": (["curve", "--d", "2", "--p", "4", "--a-min", "2", "--a-max", "1"],
                    "need 0 < a-min < a-max"),
    "curve-ratio": (["curve", "--d", "2", "--p", "4", "--a-min", "1e299", "--a-max", "1e300",
                     "--points", "2"], "ratio 1.0 >= 1 at a = 1e+299"),
    # a s underflows to 0 or overflows; these named exp_scaled_en or exp_scaled_k1.
    "curve-a-s-zero-2-6": (["curve", "--d", "2", "--p", "6", "--s", "1e-200", "--a-min",
                            "1e-200", "--a-max", "1e-199", "--points", "2"],
                           "a s = 0 is outside the closed route's float range"),
    "curve-a-s-zero-3-4": (["curve", "--d", "3", "--p", "4", "--s", "1e-200", "--a-min",
                            "1e-200", "--a-max", "1e-199", "--points", "2"],
                           "a s = 0 is outside the closed route's float range"),
    "curve-a-s-inf-3-4": (["curve", "--d", "3", "--p", "4", "--s", "1e300", "--a-min", "1e10",
                           "--a-max", "1e11", "--points", "2"],
                          "a s = inf is outside the closed route's float range"),
    "conv-pair": (["conv", "--d", "3", "--n", "3", "--xi", "0,0,0", "--tau", "4"],
                  "no closed convolution form for (d, n) = (3, 3)"),
    "conv-xi": (["conv", "--d", "2", "--n", "2", "--xi", "1,2,3", "--tau", "4"],
                "xi must have 2 components"),
    "conv-xi-oracle": (["conv", "--d", "3", "--n", "2", "--xi", "1,2", "--tau", "4",
                        "--method", "oracle"], "xi must have 3 components"),
    "conv-oracle-n": (["conv", "--d", "2", "--n", "3", "--xi", "0,0", "--tau", "4",
                       "--method", "oracle"], "the point oracle covers n = 2 only"),
    "conv-oracle-n-outside": (["conv", "--d", "2", "--n", "3", "--xi", "5,0", "--tau", "4",
                               "--method", "oracle"], "the point oracle covers n = 2 only"),
    # m^2 = 4 s^2 + 8.9e-16, but m rounds to 2 s: the oracle's chord is empty.
    "conv-oracle-rounded-boundary": (["conv", "--d", "2", "--n", "2", "--xi", "1,0",
                                      "--tau", "2.23606797749979", "--method", "oracle"],
                                     "within rounding of the support boundary"),
    # m^2 rounds to 4 s^2 exactly, where the density is still about 1.43e-5.
    "conv-oracle-exact-boundary": (["conv", "--d", "3", "--n", "2",
                                    "--xi=-1129.808007433157,-0.6622742686834313,"
                                    "-0.16094515910797458",
                                    "--tau", "1129.8099832142711", "--method", "oracle"],
                                   "within rounding of the support boundary"),
    # (m^2 - 4 s^2) / m^2 is about 1e-15: the chord integral's factor fails.
    "conv-oracle-chord-integral": (["conv", "--d", "2", "--n", "2", "--xi", "3,0",
                                    "--tau", "3.60555127546399", "--method", "oracle"],
                                   "within rounding of the support boundary"),
    "conv-oracle-floor-overflow": (["conv", "--d", "2", "--n", "2", "--xi", "1.2e154,0",
                                    "--tau", "1.3e154", "--method", "oracle"],
                                   "needs tau^2 + |xi|^2 inside the float range"),
    "concentrate-d": (["concentrate", "--d", "4", "--a", "1", "--radius", "1"],
                      "d must be 2 or 3"),
    "concentrate-s": (["concentrate", "--d", "2", "--s", "0", "--a", "1", "--radius", "1"],
                      "s must be finite and positive"),
    "concentrate-a": (["concentrate", "--d", "3", "--a", "-1", "--radius", "1"],
                      "rate a must be finite and positive"),
    "concentrate-radius": (["concentrate", "--d", "2", "--a", "1", "--radius", "0"],
                           "radius must be finite and positive"),
    "verify-grid": (["verify", "--suite", "lorentz", "--grid", "0"],
                    "grid must be a positive percentage"),
    "verify-grid-budget": (["verify", "--suite", "lorentz", "--grid", "10000000"],
                           "sheet nodes exceed the budget"),
    # Past the float range: the node counts are rounded in integers.
    "verify-grid-overflow-lorentz": (["verify", "--suite", "lorentz", "--grid", str(10 ** 400)],
                                     "sheet nodes exceed the budget"),
    "verify-grid-overflow-oracle": (["verify", "--suite", "oracle", "--grid", str(10 ** 400)],
                                    "tensor-pairing node pairs exceed the budget"),
    "verify-samples-budget": (["verify", "--suite", "sharp", "--samples", str(10 ** 12)],
                              "samples exceed the budget"),
    # About grid^3 sheet nodes, past the 4,300-digit int-to-str limit.
    "verify-grid-digits": (["verify", "--suite", "lorentz", "--grid", str(10 ** 2000)],
                           "more than 10^5998 sheet nodes exceed the budget"),
}


@pytest.mark.parametrize("argv, contract", REFUSALS.values(), ids=REFUSALS.keys())
def test_library_refusals_are_one_line_usage_errors(capsys, argv, contract):
    rc, out, err = run_cli(capsys, argv + ["--json"])
    assert (rc, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("hyperex: ") and contract in err


@pytest.mark.parametrize("argv", [
    ["conv", "--d", "3", "--n", "2", "--s", "1e200", "--xi", "0,0,0", "--tau", "1"],
    ["conv", "--d", "2", "--n", "3", "--s", "1e-300", "--xi", "0,0.5", "--tau", "0.5"],
    ["conv", "--d", "2", "--n", "2", "--s", "1e-170", "--xi", "0,0", "--tau", "1e-200"],
    ["conv", "--d", "2", "--n", "3", "--s", "1.7e308", "--xi", "17,0", "--tau", "35"],
], ids=["overflow-traceback", "minus-inf", "plus-inf", "overflow-warning"])
def test_n_s_squared_outside_the_float_range_is_refused(capsys, argv):
    # These ended in an OverflowError traceback, printed -inf or inf, or
    # wrote a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, argv)
    assert (rc, out) == (2, "")
    assert err.startswith("hyperex: (n s)^2 = ") and err.count("\n") == 1


def test_smallest_in_range_s_still_runs_the_quadrature_route(capsys):
    # (2 s)^2 = 4e-320 is subnormal but positive, so the route still runs.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, ["curve", "--d", "2", "--p", "4", "--s", "1e-160",
                                        "--a-min", "1", "--a-max", "2", "--points", "2",
                                        "--method", "quadrature"])
    assert (rc, err) == (0, "")
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("d, p", [(2, 4), (2, 6), (3, 4)])
def test_quadrature_curve_at_tiny_rates_is_one_refusal_line(capsys, d, p):
    # This wrote numpy's overflow RuntimeWarning (two lines) before its
    # "xi and tau must be finite" refusal.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, ["curve", "--d", str(d), "--p", str(p),
                                        "--method", "quadrature", "--a-min", "1e-300",
                                        "--a-max", "1e-299", "--points", "2"])
    assert (rc, out) == (2, "")
    assert err == ("hyperex: quadrature nodes leave the float range at a s = 1e-300; "
                   "use the closed route\n")


def test_quadrature_curve_past_the_product_float_range_is_one_refusal_line(capsys):
    # This wrote numpy's overflow RuntimeWarning (two lines) before its
    # "quadrature norm is inf" refusal.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, ["curve", "--d", "2", "--p", "4", "--s", "1e-160",
                                        "--a-min", "1e150", "--a-max", "1e151",
                                        "--points", "2", "--method", "quadrature"])
    assert (rc, out) == (2, "")
    assert err == "hyperex: quadrature product is inf at a s = 1e-10; use the closed route\n"


def test_overflowing_point_is_inside_the_support(capsys):
    # tau^2 and |xi|^2 overflow here; m^2 = 3e400 is far inside the support
    # and the density rounds to its supremum (2 pi)^2.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run_cli(capsys, ["conv", "--d", "2", "--n", "3", "--xi", "1e200,0",
                                        "--tau", "2e200"])
    assert (rc, err) == (0, "")
    assert out == f"value = {(2.0 * math.pi) ** 2:.17g}\n"


# Each subcommand's argv and the report's inputs: the parsed flags, without
# --csv, --out, --seed and the output switches.
REPORT_ARGV = {
    "constants": ["constants"],
    "curve-d2": ["curve", "--d", "2", "--p", "4", "--a-min", "0.7", "--a-max", "2.9"],
    "curve-d3": ["curve", "--d", "3", "--p", "4", "--a-min", "1", "--a-max", "2",
                 "--points", "2"],
    "conv-closed": ["conv", "--d", "2", "--n", "3", "--xi", "0.3,0.4", "--tau", "5"],
    "conv-oracle": ["conv", "--d", "2", "--n", "2", "--xi", "0.3,0.4", "--tau", "5",
                    "--method", "oracle"],
    "verify-specfun": ["verify", "--suite", "specfun"],
    "concentrate": ["concentrate", "--d", "3", "--a", "0.3", "--radius", "2"],
}
REPORT_INPUTS = {
    "constants": {"d": None, "p": None, "s": 1.0, "sheet": "one"},
    "curve-d2": {"d": 2, "p": 4, "s": 1.0, "a_min": 0.7, "a_max": 2.9, "points": 25,
                 "log_spacing": False, "method": "closed"},
    "curve-d3": {"d": 3, "p": 4, "s": 1.0, "a_min": 1.0, "a_max": 2.0, "points": 2,
                 "log_spacing": False, "method": "closed"},
    "conv-closed": {"d": 2, "n": 3, "s": 1.0, "xi": [0.3, 0.4], "tau": 5.0,
                    "method": "closed"},
    "conv-oracle": {"d": 2, "n": 2, "s": 1.0, "xi": [0.3, 0.4], "tau": 5.0,
                    "method": "oracle"},
    "verify-specfun": {"suite": "specfun", "samples": None, "grid": None},
    "concentrate": {"d": 3, "s": 1.0, "a": 0.3, "radius": 2.0},
}


@pytest.mark.parametrize("name", REPORT_ARGV)
def test_every_subcommand_keeps_the_report_contract(capsys, name):
    argv = REPORT_ARGV[name] + ["--json", "--no-meta"]
    rc1, out1, _ = run_cli(capsys, argv)
    rc2, out2, _ = run_cli(capsys, argv)
    assert rc1 == rc2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert set(report) == {"command", "inputs", "outputs", "error_estimates",
                           "seed", "wall_time_ms"}
    assert report["command"] == argv[0]
    assert report["wall_time_ms"] == 0
    assert report["inputs"] == REPORT_INPUTS[name]


# The directory holding the package under test, for fresh interpreters.
SRC = str(Path(hyperex.__file__).resolve().parent.parent)


def run_module(argv, stdout=subprocess.PIPE):
    """Run `python -m hyperex` in a fresh interpreter on this checkout's package."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("HYPEREX_SEED", None)
    return subprocess.run([sys.executable, "-m", "hyperex", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


class TestEntryPoint:
    def test_verify_report(self):
        done = run_module(["verify", "--suite", "specfun", "--json", "--no-meta"])
        assert (done.returncode, done.stderr) == (0, "")
        report = json.loads(done.stdout)
        assert set(report) == {"command", "inputs", "outputs", "error_estimates",
                               "seed", "wall_time_ms"}
        assert report["outputs"]["failed_count"] == 0

    def test_semantic_refusal(self):
        done = run_module(["constants", "--d", "2", "--p", "5"])
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "hyperex: unsupported pair (d, p) = (2, 5)\n"

    @pytest.mark.parametrize("argv, code", [
        (["constants"], 0),
        (["verify", "--suite", "sharp", "--samples", "1000", "--json", "--no-meta"], 0),
        (["verify", "--suite", "lorentz", "--grid", "1"], 1),  # fails its checks
    ])
    def test_closed_stdout_keeps_the_exit_code(self, argv, code):
        # `hyperex constants | head -c1` used to end in a BrokenPipeError
        # traceback with exit 1.  With the read end closed first, every write
        # to stdout fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_module(argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (code, "")

    def test_malformed_flag(self):
        done = run_module(["conv", "--d", "2", "--n", "2", "--xi", "a,b", "--tau", "4"])
        assert (done.returncode, done.stdout) == (2, "")
        assert "hyperex conv: error: argument --xi: invalid float value: 'a'" in done.stderr


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self, capsys):
        rc, _, _ = run_cli(capsys, [])
        assert rc == 2

    def test_help_exits_zero(self, capsys):
        rc, out, _ = run_cli(capsys, ["--help"])
        assert rc == 0
        assert "constants" in out and "concentrate" in out

    def test_import_loads_no_scipy(self):
        # scipy and mpmath are test-only dependencies (mpmath also generated the
        # Gauss-Kronrod table offline); the package must not pull them in.
        code = ("import sys, hyperex; "
                "print([m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')])")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": SRC},
        )
        assert done.stdout.strip() == "[]"
