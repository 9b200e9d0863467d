"""Tests for the command-line interface and report schemas."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import polyslope
import polyslope.geometry as geometry_module
from polyslope import CyclicPolygon, SlopeSystem, build_chart, cyclic_invariants, winding_number
from polyslope.cli import _cross_check_failures, _format_slopes_text, main
from polyslope.report import (
    analyze,
    cyclic_report,
    family_report,
    slopes_report,
    validate_cyclic_input,
    validate_slopes_input,
)
from polyslope.errors import (
    InputError,
    InputSchemaError,
    NonIntegralTurn,
    NotCritical,
    ParallelLines,
)
from polyslope.sweeps import run_sweep
from polyslope.tolerances import DEFAULT_TOL

from families import FOLD_PENTAGON, FOLD_QUADRILATERAL
from test_fuzz import NEAR_PARALLEL

FAMILY = {
    "start_angles_deg": [0.0, 150.0, 72.0, 290.0],
    "end_angles_deg": [0.0, 135.0, 72.0, 290.0],
}

# A cyclic hexagon with |B| / sum|tan alpha| = 2.3e-8: close to the
# bifurcation locus, not on it.
NEAR_BIFURCATION = [
    40.74899068153537,
    49.07114093449097,
    64.57365492775428,
    284.6929675573905,
    314.4374816924464,
    454.79229323153066,
]


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSlopesAnalyze:
    def test_equilateral_report(self, tmp_path, capsys):
        path = write_json(tmp_path, "eq.json", {"angles_deg": [90, 210, 330]})
        code, out, _ = run_cli(capsys, "slopes", "analyze", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["turning"]["half_turns"] == 2
        pi_sum = report["chart"]["perimeter_sum"]
        assert pi_sum == pytest.approx(6 * math.sqrt(3))
        points = report["critical"]["points"]
        assert len(points) == 2
        for point in points:
            assert abs(point["perimeter"]) == pytest.approx(math.sqrt(2 * pi_sum))
            assert point["agreement"]

    def test_line_ordering_turning_class(self, tmp_path, capsys):
        path = write_json(tmp_path, "k2.json", {"angles_deg": [0, 120, 60]})
        code, out, _ = run_cli(capsys, "slopes", "analyze", path, "--json")
        assert code == 0
        assert json.loads(out)["turning"]["half_turns"] == 2

    def test_exceptional_input(self, tmp_path, capsys):
        # Bisect the frozen family to the perimeter-sum root, then analyze it.
        report = family_report(FAMILY["start_angles_deg"], FAMILY["end_angles_deg"], 11)
        root_angles = report["sign_changes"][0]["angles_deg_root"]
        path = write_json(tmp_path, "exc.json", {"angles_deg": root_angles})
        code, out, _ = run_cli(capsys, "slopes", "analyze", path, "--json")
        assert code == 0
        data = json.loads(out)
        assert data["critical"]["exceptional"] is True
        assert data["critical"]["points"] == []

    def test_gradient_check_in_well_conditioned_chart(self, tmp_path, capsys):
        # Relabeling for the largest |p_1| left other |p_i| 360 times larger,
        # and a finite-difference gradient in that chart read 1.8e-5 at true
        # critical points.  The edge-space gradient reads no chart and stays
        # at roundoff.
        angles = [
            244.5523834453095,
            177.38120699850484,
            203.73444798406135,
            282.7818942234157,
            302.2134142183205,
            355.95898127716487,
            7.682643138979799,
            358.76456961804377,
            258.92490817231646,
        ]
        path = write_json(tmp_path, "nine.json", {"angles_deg": angles})
        code, out, _ = run_cli(capsys, "slopes", "analyze", path, "--json")
        assert code == 0
        for point in json.loads(out)["critical"]["points"]:
            assert point["gradient_norm"] < 1e-8

    def test_nan_gradient_norm_fails_cross_check(self):
        # The sweep runner's rule, not gradient_norm >= bound: a NaN fails.
        point = {
            "inradius": 1.0,
            "agreement": True,
            "gradient_norm": math.nan,
            "gradient_bound": 1e-12,
            "area_error": 0.0,
            "area_bound": 1e-12,
        }
        report = {"kind": "slopes", "critical": {"points": [point]}}
        assert _cross_check_failures(report) == ["gradient norm nan over bound 1.0e-12 (r > 0)"]

    def test_nan_area_error_fails_cross_check(self):
        point = {
            "inradius": -1.0,
            "agreement": True,
            "gradient_norm": 0.0,
            "gradient_bound": 1e-12,
            "area_error": math.nan,
            "area_bound": 1e-12,
        }
        report = {"kind": "slopes", "critical": {"points": [point]}}
        assert _cross_check_failures(report) == ["area error nan over bound 1.0e-12 (r < 0)"]

    @pytest.mark.parametrize(
        "angles, reason",
        [
            # E4: exceptional at 300 bits, so its reported polygon is not critical.
            (
                [
                    82.37296368693613,
                    262.3729612294919,
                    262.37295261122074,
                    82.3729630048502,
                    82.37296087848776,
                    262.372960367739,
                    262.3729632461403,
                ],
                "gradient norm 3.4e-08 over bound 5.3e-11",
            ),
            # Its sum p is 9.1e-6 relative off.
            (NEAR_PARALLEL[947], "area error 9.1e-06 over bound 1.5e-07"),
        ],
        ids=["E4", "near-parallel-947"],
    )
    def test_text_mode_failure_says_why(self, tmp_path, capsys, angles, reason):
        # A failed cross-check prints each failure to stderr, with its error
        # over its bound, for both points, whose edge-space checks are one;
        # stdout is the report as it was, in text mode and with --json.
        path = write_json(tmp_path, "fails.json", {"angles_deg": angles})
        report = slopes_report(angles)
        expected = "".join(f"cross-check failure: {reason} ({r})\n" for r in ("r > 0", "r < 0"))
        for flags, text in (((), _format_slopes_text(report)), (("--json",), json.dumps(report))):
            assert run_cli(capsys, "slopes", "analyze", path, *flags) == (3, text + "\n", expected)

    def test_relabeling_keeps_the_exit_code(self, tmp_path, capsys):
        # Lines within 0.01 degrees of one direction: the two labelings'
        # inradii differ in the twelfth digit, and 300-bit arithmetic puts
        # them 3.0e-12 and 9.1e-13 off.  Both labelings pass the area check
        # on vertices placed edge by edge, whichever relabeling the chart
        # would be best conditioned in.
        codes = []
        for angles in ([-0.01, 0.0, 0.0075, 0.01, 0.005], [0.0, 0.0075, 0.01, 0.005, 359.99]):
            path = write_json(tmp_path, "near.json", {"angles_deg": angles})
            codes.append(run_cli(capsys, "slopes", "analyze", path)[0])
        assert codes == [0, 0]

    @pytest.mark.parametrize(
        "angles",
        [
            # max|p|/min|p| = 1.8e4: the smallest Hessian eigenvalue is
            # 7e-9 of the largest entry, though |sum p| / sum|p| = 0.11.
            [206.51, 229.95, 219.36, 34.65, 238.03, 227.5, 296.6, 289.26, 117.78],
            # max|p|/min|p| = 1.2e4: finite-difference roundoff of 1.28e-6
            # at both critical points, over a fixed bound of 1e-6.
            [
                127.29455657427746,
                97.97829142321719,
                277.9430969370745,
                39.6778791561557,
                214.7584076511983,
                247.87747674809455,
                234.49674013040814,
                69.06131223661899,
                14.131078274815877,
                346.57680100529,
                68.10980142571978,
                327.8266125011875,
                61.12662513124438,
                251.19025050753893,
            ],
            # Lines within 0.01 degrees of one direction, inradius 1.5e6, in
            # both labelings: vertices placed as the incenter less an offset
            # of size r failed the area check at 4.1 and 8.9 times its bound.
            [-0.01, 0.0, 0.0075, 0.01, 0.005],
            [0.0, 0.0075, 0.01, 0.005, 359.99],
            # Triangles of lines within 1e-4 degrees of each other, whose
            # incenter-less-offset vertices failed the area check.
            [138.5124280394045, 138.51239816942805, 138.51240029398917],
            [185.70849854671943, 185.70857258914373, 185.70849832725736],
            [255.33411567285947, 255.33411544148802, 255.33411918764142],
            [249.1066491210609, 249.10664894870678, 249.10681117533895],
            [58.93013292021045, 58.93013260250535, 58.93011686657539],
            [254.1495848121794, 254.18015053609315, 254.14958507426925],
            [181.55837620812662, 181.55839308247855, 181.55839292702578],
            [15.339250285765324, 15.339246150011302, 15.339247005128653],
            # test_fuzz.NEAR_PARALLEL[623], antiparallel lines 4.2e-6 degrees
            # apart: its turn tangents reduced mod 2pi carried the rounding
            # of 2pi and failed the gradient check at 1,836 times its bound.
            [152.44834745433707, 332.4483432288859, 152.4483525259444],
        ],
    )
    def test_badly_scaled_system_passes(self, tmp_path, capsys, angles):
        path = write_json(tmp_path, "scaled.json", {"angles_deg": angles})
        code, out, _ = run_cli(capsys, "slopes", "analyze", path, "--json")
        assert code == 0
        points = json.loads(out)["critical"]["points"]
        assert len(points) == 2
        for point in points:
            assert point["index_eigen"] == point["index_formula"]
            assert point["gradient_norm"] < point["gradient_bound"]

    def test_json_roundtrip_lossless(self):
        report = slopes_report([90, 210, 330])
        assert json.loads(json.dumps(report)) == report

    def test_schema_violation_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path, "bad.json", {"angles_deg": [0, "x", 60]})
        code, _, err = run_cli(capsys, "slopes", "analyze", path)
        assert code == 2
        assert "angles_deg" in err

    def test_parallel_input_exit_code(self, tmp_path, capsys):
        path = write_json(tmp_path, "par.json", {"angles_deg": [0, 180, 90]})
        code, _, _ = run_cli(capsys, "slopes", "analyze", path)
        assert code == 2

    def test_neighbours_parallel_at_scaled_tolerance(self, tmp_path, capsys):
        # 1e-5 degrees (1.7e-7 rad) clears the constructor's default 1e-9 but
        # not the scaled 1e-6, which the chart's pairwise check applies.
        path = write_json(tmp_path, "near.json", {"angles_deg": [0, 1e-5, 120, 240]})
        code, _, _ = run_cli(capsys, "slopes", "analyze", path)
        assert code == 0
        code, _, err = run_cli(capsys, "slopes", "analyze", path, "--tol-scale", "1000")
        assert code == 2
        assert "slopes 0 and 1 are parallel as lines" in err
        # 1e-8 degrees (1.7e-10 rad) clears the scaled 1e-12 but not the
        # constructor's 1e-9, which holds consecutive lines at any scale.
        for angles, expected in (([0, 1e-8, 120, 240], 2), ([0, 120, 1e-8, 240], 0)):
            path = write_json(tmp_path, "near.json", {"angles_deg": angles})
            code, _, err = run_cli(capsys, "slopes", "analyze", path, "--tol-scale", "1e-3")
            assert code == expected, (angles, err)


class TestCyclicAnalyze:
    def test_square_report(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "sq.json", {"radius": 1, "phis_deg": [0, 90, 180, 270]}
        )
        code, out, _ = run_cli(capsys, "cyclic", "analyze", path, "--json")
        assert code == 0
        report = json.loads(out)
        inv = report["invariants"]
        assert inv["positive_edges"] == 4
        assert inv["winding"] == 1
        assert inv["bifurcation_sum"] == pytest.approx(4.0)
        assert report["dual"]["signed_perimeter"] == pytest.approx(8.0)
        indices = report["indices"]
        assert indices["mu_area_numeric"] == indices["mu_area_formula"] == 1
        assert indices["identity_holds"]
        # Opposite tangent lines of the square are parallel, so its dual
        # slopes have no chart, but the dual index needs none.
        assert list(indices) == [
            "withheld",
            "mu_area_numeric",
            "mu_area_formula",
            "mu_dual_perimeter",
            "identity_holds",
        ]
        assert indices["mu_dual_perimeter"] == 0
        # A triangle with fixed edge lengths is rigid, so every index is 0.
        path = write_json(tmp_path, "tri.json", {"radius": 1, "phis_deg": [0, 120, 240]})
        code, out, _ = run_cli(capsys, "cyclic", "analyze", path, "--json")
        assert code == 0
        indices = json.loads(out)["indices"]
        assert indices["mu_area_numeric"] == indices["mu_area_formula"] == 0
        assert indices["mu_dual_perimeter"] == 0
        assert indices["identity_holds"]

    @pytest.mark.parametrize(
        "phis, bifurcating", [(FOLD_PENTAGON, False), (FOLD_QUADRILATERAL, True)],
        ids=["pentagon", "quadrilateral"],
    )
    def test_folds_exit_zero(self, tmp_path, capsys, phis, bifurcating):
        # A fold v_i = v_{i+2} makes a zero edge of the dual, not an input
        # error: analysis and render both exit 0 with nothing on stderr.
        path = write_json(tmp_path, "fold.json", {"radius": 1, "phis_deg": phis})
        code, out, err = run_cli(capsys, "cyclic", "analyze", path, "--json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["bifurcating"] is bifurcating
        if not bifurcating:
            assert report["indices"]["identity_holds"]
            assert report["indices"]["mu_area_numeric"] == 1
        out_path = tmp_path / "fold.svg"
        assert run_cli(capsys, "render", path, "-o", str(out_path))[::2] == (0, "")
        assert "dual tangential polygon" in out_path.read_text()

    @pytest.mark.parametrize("angle", [1e17, 1e20, 1e100, 1e300, -1e20])
    def test_huge_vertex_angle_keeps_the_identity(self, tmp_path, capsys, angle):
        # The vertices take cos and sin of each angle and the invariants
        # their differences: both read the angle reduced to [0, 2pi).
        path = write_json(tmp_path, "huge.json", {"radius": 1, "phis_deg": [0, angle, 200]})
        code, out, _ = run_cli(capsys, "cyclic", "analyze", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["indices"]["identity_holds"]
        assert report["input"]["phis_rad"][1] == math.radians(angle) % (2.0 * math.pi)

    def test_pentagram_report(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "penta.json", {"radius": 1, "phis_deg": [0, 144, 288, 72, 216]}
        )
        code, out, _ = run_cli(capsys, "cyclic", "analyze", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["invariants"]["winding"] == 2
        assert report["invariants"]["bifurcation_sum"] == pytest.approx(15.388, abs=1e-3)
        assert report["indices"]["mu_area_numeric"] == 0
        assert report["indices"]["mu_dual_perimeter"] == 2
        assert report["indices"]["identity_holds"]

    def test_bifurcating_input_withholds_indices(self, tmp_path, capsys):
        from families import bif_family, bisect_bifurcation_root

        cyclic = bif_family(bisect_bifurcation_root())
        payload = {
            "radius": 1.0,
            "phis_deg": [math.degrees(p) for p in cyclic.phis],
        }
        path = write_json(tmp_path, "bif.json", payload)
        code, out, _ = run_cli(capsys, "cyclic", "analyze", path, "--json")
        assert code == 0
        report = json.loads(out)
        assert report["bifurcating"] is True
        assert report["indices"]["withheld"] is True
        assert "reason" in report["indices"]
        code, out, _ = run_cli(capsys, "cyclic", "analyze", path)
        assert code == 0
        assert out.splitlines()[-1] == (
            "  indices withheld: bifurcating polygon: the area Hessian is degenerate"
        )

    @pytest.mark.parametrize("scale", ["1e-3", "1e-6"])
    def test_narrow_bifurcation_band_still_withholds_indices(self, tmp_path, capsys, scale):
        # |B| / sum|tan alpha| = 4.1e-12: a scaled band this narrow would call
        # the polygon generic, and the numeric area index would then find its
        # Hessian degenerate within its roundoff bound.  The band stops at
        # cyclic.B_RESOLUTION.
        payload = {
            "radius": 1,
            "phis_deg": [199.3001929341539, 370.4806124749298, 289.30200604432025,
                         236.93571792049863, 65.77029186038448, 140.20161008857127],
        }
        path = write_json(tmp_path, "narrow.json", payload)
        code, out, err = run_cli(capsys, "cyclic", "analyze", path, "--json", "--tol-scale", scale)
        assert code == 0, err
        report = json.loads(out)
        assert report["bifurcating"] is True
        assert report["indices"]["withheld"] is True

    def test_large_radius_keeps_indices(self, tmp_path, capsys):
        # The indices depend on the vertex angles alone; squared edge lengths
        # of these radii overflow a float.
        for phis in ([0, 100, 200], [0, 100, 200, 290]):
            path = write_json(tmp_path, "unit.json", {"radius": 1, "phis_deg": phis})
            code, out, _ = run_cli(capsys, "cyclic", "analyze", path, "--json")
            assert code == 0
            expected = json.loads(out)["indices"]
            for radius in (1e150, 1e160, 1e300):
                path = write_json(tmp_path, "big.json", {"radius": radius, "phis_deg": phis})
                code, out, _ = run_cli(capsys, "cyclic", "analyze", path, "--json")
                assert code == 0, (radius, phis)
                assert "Infinity" not in out and "NaN" not in out
                assert json.loads(out)["indices"] == expected

    def test_small_radius_keeps_indices(self, tmp_path, capsys):
        # Coincidence is measured against the polygon's own size, so a tiny
        # dual polygon is not mistaken for one with coincident vertices.
        for phis in ([0, 100, 200], [0, 100, 200, 290]):
            path = write_json(tmp_path, "unit.json", {"radius": 1, "phis_deg": phis})
            code, out, _ = run_cli(capsys, "cyclic", "analyze", path, "--json")
            assert code == 0
            expected = json.loads(out)["indices"]
            for radius in (1e-13, 1e-200, 1e-315):
                path = write_json(tmp_path, "small.json", {"radius": radius, "phis_deg": phis})
                code, out, _ = run_cli(capsys, "cyclic", "analyze", path, "--json")
                assert code == 0, (radius, phis)
                assert json.loads(out)["indices"] == expected

    def test_overflowing_radius_is_an_input_error(self, tmp_path, capsys):
        for phis in ([0, 100, 200], [0, 100, 200, 290]):
            path = write_json(tmp_path, "huge.json", {"radius": 1.7e308, "phis_deg": phis})
            code, out, err = run_cli(capsys, "cyclic", "analyze", path, "--json")
            assert code == 2, phis
            assert out == ""
            assert "overflows" in err and "RuntimeWarning" not in err

    def test_unresolvable_coordinates_are_an_input_error(self, tmp_path, capsys):
        # A subnormal radius, or a center where one ulp exceeds the radius,
        # leaves the coordinates too coarse for the dual polygon's edges.
        for payload in (
            {"radius": 1e-320, "phis_deg": [0, 100, 200]},
            {"radius": 1, "phis_deg": [0, 100, 200], "center": [1.7e308, 0]},
        ):
            path = write_json(tmp_path, "coarse.json", payload)
            code, out, err = run_cli(capsys, "cyclic", "analyze", path, "--json")
            assert code == 2, payload
            assert out == ""
            assert "cannot resolve" in err and "np.float64" not in err

    def test_report_does_not_depend_on_where_the_circle_sits(self, tmp_path, capsys):
        # Two vertices about 3e-9 degrees apart give the dual an edge near
        # 1e-10 long.  Measured at the center (0.5, -2), coordinates of size 2
        # would turn that edge by about 1e-6 rad; about the circle's center
        # it keeps its slope.
        phis = [331.1460577934202, 228.9134894920745, 331.1460610519868, 185.45533067604663]
        indices = []
        for center in ([0.0, 0.0], [0.5, -2.0]):
            payload = {"radius": 0.001, "phis_deg": phis, "center": center}
            path = write_json(tmp_path, "moved.json", payload)
            code, out, err = run_cli(capsys, "cyclic", "analyze", path, "--json")
            assert code == 0, err
            indices.append(json.loads(out)["indices"])
        assert indices[0] == indices[1]
        assert indices[1]["identity_holds"] is True

    def test_near_bifurcating_input_keeps_indices(self, tmp_path, capsys):
        path = write_json(tmp_path, "near.json", {"radius": 1.0, "phis_deg": NEAR_BIFURCATION})
        code, out, err = run_cli(capsys, "cyclic", "analyze", path, "--json")
        assert code == 0, err
        report = json.loads(out)
        assert report["bifurcating"] is False
        indices = report["indices"]
        assert indices["mu_area_numeric"] == indices["mu_area_formula"]
        assert indices["identity_holds"] is True

    def test_json_roundtrip_lossless(self):
        report = cyclic_report(1.0, [0, 144, 288, 72, 216])
        assert json.loads(json.dumps(report)) == report

    def test_off_integral_rule_fails_the_windings_not_the_dual_turns(
        self, tmp_path, capsys, monkeypatch
    ):
        # The integral rule stays for the windings, sums of real angles; the
        # dual slopes' k and right turns are integer floors that read none.
        def off(ratio, terms):
            return np.rint(ratio), np.full(np.shape(ratio), True)

        monkeypatch.setattr(geometry_module, "integral_ratio", off)
        star = CyclicPolygon.from_degrees(1.0, [0, 144, 288, 72, 216])
        with pytest.raises(NonIntegralTurn, match="^winding residual"):
            winding_number(star.polygon, star.center)
        assert cyclic_invariants(star).winding == 2
        path = write_json(tmp_path, "star.json", {"radius": 1, "phis_deg": [0, 144, 288, 72, 216]})
        assert run_cli(capsys, "cyclic", "analyze", path)[0] == 0
        code, out, _ = run_cli(capsys, "sweep", "--seed", "1", "--trials", "2")
        assert code == 3
        assert "dual_perimeter raised NonIntegralTurn: winding residual" in out

    def test_invalid_radius_exit_code(self, tmp_path, capsys):
        for payload in (
            {"radius": -1, "phis_deg": [0, 90, 200]},
            {"radius": math.inf, "phis_deg": [0, 90, 200]},
            {"radius": 10**400, "phis_deg": [0, 90, 200]},
            {"radius": 1, "phis_deg": [0, 90, 200], "center": [math.nan, 0]},
        ):
            path = write_json(tmp_path, "bad.json", payload)
            code, _, err = run_cli(capsys, "cyclic", "analyze", path)
            assert code == 2
            assert "must be a" in err


class TestSweep:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--seed", "1", "--trials", "3")
        assert code == 0
        assert "result: PASS" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "sweep", "--seed", "7", "--trials", "3", "--json")
        _, out2, _ = run_cli(capsys, "sweep", "--seed", "7", "--trials", "3", "--json")
        assert out1 == out2 == json.dumps(run_sweep(seed=7, trials=3).to_dict()) + "\n"

    def test_zero_trials(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--seed", "1", "--trials", "0")
        assert code == 0
        assert "result: PASS" in out

    def test_negative_trials_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--trials", "-3", "--json")
        assert code == 2
        assert out == "" and "--trials" in err

    def test_empty_size_range_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--trials", "1", "--n-min", "12", "--n-max", "5")
        assert code == 2
        assert out == "" and "--n-min" in err

    def test_size_range_no_check_draws_exit_code(self, capsys):
        # Every check bounds its own polygon sizes; none draws n >= 13.
        code, out, err = run_cli(capsys, "sweep", "--trials", "5", "--n-min", "13", "--n-max", "20")
        assert code == 2
        assert out == "" and "--n-min" in err and "--n-max" in err

    @pytest.mark.parametrize(
        "n_min, n_max, drawing",
        [
            (10, 12, {"hessian_difference", "chart_identities", "turning_signature"}),
            (3, 3, {"chart_identities", "turning_signature"}),
        ],
    )
    def test_size_range_edges(self, capsys, n_min, n_max, drawing):
        # Only the checks whose sizes reach the range draw; they must pass.
        code, out, _ = run_cli(
            capsys, "sweep", "--n-min", str(n_min), "--n-max", str(n_max),
            "--trials", "5", "--json",
        )
        assert code == 0
        checks = json.loads(out)["checks"]
        assert {c["name"] for c in checks if c["skipped"] < 5} == drawing
        for check in checks:
            assert check["failed"] == 0
            if check["name"] in drawing:
                assert check["passed"] > 0

    def test_property_failure_exit_code(self, capsys, monkeypatch):
        # Wiring check: a failing property must surface as exit code 3.
        import polyslope.sweeps as sweeps

        def broken_check(rng, n_range, tol):
            return 4, [("injected failure", 1.0, 0.0)]

        monkeypatch.setattr(
            sweeps, "CHECKS", (("broken", broken_check),) + sweeps.CHECKS[1:]
        )
        code, out, _ = run_cli(capsys, "sweep", "--seed", "1", "--trials", "2")
        assert code == 3
        assert "result: FAIL" in out
        assert "FAIL injected failure 1.000e+00 over bound 0.000e+00 (n=4)" in out


    def test_raising_check_counts_as_failed_trial(self, monkeypatch):
        import polyslope.sweeps as sweeps

        def raising_check(rng, n_range, tol):
            if rng.random() < 0.5:
                raise NotCritical("injected error")
            return 4, [("passing row", 0.0, 0.0)]

        monkeypatch.setattr(sweeps, "CHECKS", (("raising", raising_check),) + sweeps.CHECKS[1:])
        result = run_sweep(seed=3, trials=8)
        tally = result.tallies[0]
        assert tally.failed > 0 and tally.passed > 0
        assert tally.failed + tally.passed == 8
        assert tally.failures == ["raising raised NotCritical: injected error"] * tally.failed
        assert [t.name for t in result.tallies] == [name for name, _ in sweeps.CHECKS]


# The text form of `family --steps 3`: rows, then brackets or their absence.
FAMILY_TEXT = {
    "bracket": (
        FAMILY,
        [
            "    0.0000       +1.436527         2  [0, 1]",
            "    0.5000       +0.070343         2  [0, 1]",
            "    1.0000       -0.805181         2  [1, 0]",
            "  perimeter-sum sign change bracketed in t = [0.533333333333, 0.533333333334]",
        ],
    ),
    # Its root lies past t = 0.875, where lines 1 and 5 are parallel.
    "invalid row": (
        {
            "start_angles_deg": [285, 55, 315, 95, 335, 335],
            "end_angles_deg": [55, 205, 240, 130, 80, 165],
        },
        [
            "    0.0000  invalid: consecutive slopes 4 and 5 are parallel as lines",
            "    0.5000       -7.775584         2  [2, 1]",
            "    1.0000       +3.282154         2  [1, 2]",
            "  perimeter-sum sign change bracketed in t = [0.936271316115, 0.936271316116]",
        ],
    ),
    # Rows t = 0 and 1/2 differ in sign through a pole at t = 1/6; the root
    # lies past a second pole, at t = 31/41, between rows of one sign.
    "root beside a pole": (
        {"start_angles_deg": [85, 250, 255, 110], "end_angles_deg": [100, 355, 200, 330]},
        [
            "    0.0000       +8.492251         2  [0, 1]",
            "    0.5000      -13.185441         2  [1, 0]",
            "    1.0000       -3.049840         2  [1, 0]",
            "  perimeter-sum sign change bracketed in t = [0.931506849314, 0.931506849315]",
        ],
    ),
    "no sign change": (
        {"start_angles_deg": [10, 80, 150, 250], "end_angles_deg": [15, 85, 155, 255]},
        [
            "    0.0000       +8.648439         2  [0, 1]",
            "    0.5000       +8.648439         2  [0, 1]",
            "    1.0000       +8.648439         2  [0, 1]",
            "  no root of the perimeter sum bracketed",
        ],
    ),
}


class TestFamily:
    @pytest.mark.parametrize("name", FAMILY_TEXT)
    def test_text_report(self, tmp_path, capsys, name):
        payload, lines = FAMILY_TEXT[name]
        path = write_json(tmp_path, "family.json", payload)
        header = ["family sweep", "         t   perimeter sum  critical  indices"]
        assert run_cli(capsys, "family", path, "--steps", "3") == (
            0,
            "\n".join(header + lines) + "\n",
            "",
        )

    def test_family_brackets_sign_change(self, tmp_path, capsys):
        path = write_json(tmp_path, "fam.json", FAMILY)
        code, out, _ = run_cli(capsys, "family", path, "--steps", "9", "--json")
        assert code == 0
        report = json.loads(out)
        sums = [row["perimeter_sum"] for row in report["rows"] if row["status"] == "ok"]
        assert sums[0] > 0 > sums[-1]
        assert len(report["sign_changes"]) == 1
        bracket = report["sign_changes"][0]
        assert bracket["t_high"] - bracket["t_low"] <= 1e-12
        assert all(row["critical_points"] == 2 for row in report["rows"])

    def test_unequal_endpoints_are_an_input_error(self, tmp_path, capsys):
        payload = {
            "start_angles_deg": [0.0, 100.0, 200.0, 300.0],
            "end_angles_deg": [0.0, 100.0, 200.0],
        }
        path = write_json(tmp_path, "unequal.json", payload)
        code, _, err = run_cli(capsys, "family", path, "--steps", "3")
        assert code == 2
        assert "differ in length" in err

    def test_one_step_is_an_input_error(self, tmp_path, capsys):
        path = write_json(tmp_path, "family.json", FAMILY)
        assert run_cli(capsys, "family", path, "--steps", "1") == (
            2,
            "",
            "error: family needs at least 2 steps\n",
        )

    def test_angles_beyond_the_lines_tolerance_are_an_input_error(self, tmp_path, capsys):
        # From 2**28 degrees on, one float step of an angle exceeds the 1e-9
        # rad lines tolerance, so no row of the family is placed within it.
        below = math.nextafter(2.0**28, 0.0)
        payload = {"start_angles_deg": [below, 0, 100], "end_angles_deg": [below, 10, 200]}
        path = write_json(tmp_path, "below.json", payload)
        assert run_cli(capsys, "family", path, "--steps", "3")[0] == 0
        payload["end_angles_deg"][0] = -(2.0**28)
        path = write_json(tmp_path, "beyond.json", payload)
        code, out, err = run_cli(capsys, "family", path, "--steps", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: family angle 268435456.0 is too large")

    def test_constant_family(self, tmp_path, capsys):
        payload = {
            "start_angles_deg": [0.0, 150.0, 72.0, 290.0],
            "end_angles_deg": [0.0, 150.0, 72.0, 290.0],
        }
        path = write_json(tmp_path, "const.json", payload)
        code, out, _ = run_cli(capsys, "family", path, "--steps", "5", "--json")
        assert code == 0
        report = json.loads(out)
        sums = {row["perimeter_sum"] for row in report["rows"]}
        assert len(sums) == 1
        assert report["sign_changes"] == []

    def test_positive_family_keeps_indices(self, tmp_path, capsys):
        payload = {
            "start_angles_deg": [10.0, 80.0, 150.0, 250.0],
            "end_angles_deg": [15.0, 85.0, 155.0, 255.0],
        }
        path = write_json(tmp_path, "stable.json", payload)
        code, out, _ = run_cli(capsys, "family", path, "--steps", "6", "--json")
        assert code == 0
        report = json.loads(out)
        index_sets = {tuple(row["indices"]) for row in report["rows"]}
        assert len(index_sets) == 1
        assert all(row["critical_points"] == 2 for row in report["rows"])

    def test_bisection_next_to_degenerate_critical_points(self, tmp_path, capsys):
        # Near the root of sum p the critical points are nearly degenerate;
        # bisection needs only the sign of sum p.
        start = [203.401, 207.53, 322.02, 107.113, 3.88]
        end = [203.401, 207.53, 322.02, 107.113, -18.542]
        payload = {"start_angles_deg": start, "end_angles_deg": end}
        path = write_json(tmp_path, "near.json", payload)
        code, out, _ = run_cli(capsys, "family", path, "--steps", "11", "--json")
        assert code == 0
        brackets = json.loads(out)["sign_changes"]
        assert len(brackets) == 1
        lo, hi = brackets[0]["t_low"], brackets[0]["t_high"]
        assert 0.7 < lo < hi < 0.8 and hi - lo <= 1e-12

        def perimeter_sum(t):
            angles = [(1.0 - t) * a + t * b for a, b in zip(start, end)]
            return build_chart(SlopeSystem.from_degrees(angles)).perimeter_sum

        assert perimeter_sum(lo) < 0 < perimeter_sum(hi)

    def test_row_next_to_root_of_perimeter_sum(self, tmp_path, capsys):
        # Row t = 0.5 lies 1e-6 past the root of sum p, where the Hessian's
        # smallest eigenvalue is 1.6e-9 of its largest entry.
        start = [203.401, 207.53, 322.02, 107.113, 3.88]
        end = [203.401, 207.53, 322.02, 107.113, -30.11719781]
        payload = {"start_angles_deg": start, "end_angles_deg": end}
        path = write_json(tmp_path, "root.json", payload)
        code, out, _ = run_cli(capsys, "family", path, "--steps", "3", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert all(row["critical_points"] == 2 for row in rows)
        for row in rows:
            points = slopes_report(row["angles_deg"])["critical"]["points"]
            assert row["indices"] == [point["index_formula"] for point in points]

    def test_pole_of_perimeter_sum_is_not_bracketed(self, tmp_path, capsys):
        # Slope 3 turns antiparallel to slope 2 at t = 2/21, where sum p
        # jumps from +inf to -inf: rows 0 and 1 differ in sign at that pole,
        # and neither piece between a row and the pole does.
        payload = {"start_angles_deg": [264, 211, 29, 22], "end_angles_deg": [264, 211, 50, 22]}
        path = write_json(tmp_path, "pole.json", payload)
        code, out, _ = run_cli(capsys, "family", path, "--steps", "11", "--json")
        assert code == 0
        report = json.loads(out)
        sums = [row["perimeter_sum"] for row in report["rows"]]
        assert sums[0] > 0 > sums[1]
        assert report["sign_changes"] == []


class TestRender:
    def test_render_exits_as_the_analysis(self, tmp_path, capsys):
        # Sum p / sum|p| is -8.5e-10 in 300-bit arithmetic: exceptional, though
        # the chart puts it outside the band.  Its reported polygon's
        # gradient residual is 640 times its bound.
        angles = [
            82.37296368693613,
            262.3729612294919,
            262.37295261122074,
            82.3729630048502,
            82.37296087848776,
            262.372960367739,
            262.3729632461403,
        ]
        path = write_json(tmp_path, "exceptional.json", {"angles_deg": angles})
        out_path = tmp_path / "exceptional.svg"
        assert run_cli(capsys, "slopes", "analyze", path)[0] == 3
        assert run_cli(capsys, "render", path, "-o", str(out_path))[0] == 3
        assert out_path.read_text().startswith("<svg")

    def test_render_slopes(self, tmp_path, capsys):
        path = write_json(tmp_path, "eq.json", {"angles_deg": [90, 210, 330]})
        out_path = tmp_path / "eq.svg"
        code, out, _ = run_cli(capsys, "render", path, "-o", str(out_path))
        assert code == 0
        content = out_path.read_text()
        assert content.startswith("<svg")
        assert "inscribed circle" in content

    def test_render_cyclic(self, tmp_path, capsys):
        path = write_json(
            tmp_path, "penta.json", {"radius": 1, "phis_deg": [0, 144, 288, 72, 216]}
        )
        out_path = tmp_path / "penta.svg"
        code, _, _ = run_cli(capsys, "render", path, "-o", str(out_path))
        assert code == 0
        assert "dual tangential polygon" in out_path.read_text()

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "render", str(tmp_path / "nope.json"), "-o", str(tmp_path / "x.svg")
        )
        assert code == 2

    @pytest.mark.parametrize(
        "payload, message",
        [
            (FAMILY, "error: render expects a slopes or cyclic input file"),
            ({"radius": 1}, "error: cannot classify input: expected 'angles_deg', 'phis_deg'"),
        ],
    )
    def test_family_and_unclassifiable_files_are_input_errors(
        self, tmp_path, capsys, payload, message
    ):
        # render reads the kind from the file's fields and draws no family.
        path = write_json(tmp_path, "input.json", payload)
        out_path = tmp_path / "figure.svg"
        code, out, err = run_cli(capsys, "render", path, "-o", str(out_path))
        assert (code, out) == (2, "") and err.startswith(message)
        assert not out_path.exists()

    def test_exceptional_system(self, tmp_path, capsys):
        # The root of the frozen family: its text report and figure say that
        # there is no critical point to draw.
        report = family_report(FAMILY["start_angles_deg"], FAMILY["end_angles_deg"], 11)
        path = write_json(
            tmp_path, "exc.json", {"angles_deg": report["sign_changes"][0]["angles_deg_root"]}
        )
        code, out, _ = run_cli(capsys, "slopes", "analyze", path)
        assert code == 0
        assert out.splitlines()[-1] == "  exceptional: no critical points of the perimeter"
        out_path = tmp_path / "exc.svg"
        assert run_cli(capsys, "render", path, "-o", str(out_path))[0] == 0
        figure = out_path.read_text()
        assert "exceptional configuration space (perimeter sum ~ 0)" in figure
        assert "<polygon" not in figure


def walk_values(node):
    if isinstance(node, dict):
        for value in node.values():
            yield from walk_values(value)
    elif isinstance(node, list):
        for value in node:
            yield from walk_values(value)
    else:
        yield node


class TestReportHygiene:
    def test_all_report_numbers_finite(self):
        reports = [
            slopes_report([90, 210, 330]),
            slopes_report([10, 80, 150, 230, 300]),
            cyclic_report(1.0, [0, 144, 288, 72, 216]),
            family_report(FAMILY["start_angles_deg"], FAMILY["end_angles_deg"], 5),
        ]
        for report in reports:
            for value in walk_values(report):
                if isinstance(value, float):
                    assert math.isfinite(value)
                else:
                    assert value is None or isinstance(value, (int, str, bool))

    def test_tolerance_scaling_flag(self, tmp_path, capsys):
        # --tol-scale multiplies the three modelling tolerances, and only them.
        path = write_json(tmp_path, "eq.json", {"angles_deg": [90, 210, 330]})
        star = {"radius": 1.0, "phis_deg": [0, 144, 288, 72, 216]}
        commands = [
            ("slopes", "analyze", path),
            ("cyclic", "analyze", write_json(tmp_path, "star.json", star)),
            ("family", write_json(tmp_path, "family.json", FAMILY), "--steps", "5"),
        ]
        for command in commands:
            code, out, _ = run_cli(capsys, *command, "--json", "--tol-scale", "10")
            assert code == 0
            assert json.loads(out)["tolerances"] == pytest.approx(
                {"parallel": 1e-8, "exceptional": 1e-8, "bifurcation": 1e-8}
            )
        for bad in ("nan", "inf", "0"):
            code, _, err = run_cli(capsys, "slopes", "analyze", path, "--tol-scale", bad)
            assert code == 2
            assert "positive finite" in err

    def test_tolerances_echoed_in_reports(self):
        reports = [
            slopes_report([10, 80, 150, 230, 300]),
            cyclic_report(1.0, [0, 144, 288, 72, 216]),
            family_report(FAMILY["start_angles_deg"], FAMILY["end_angles_deg"], 5),
        ]
        for report in reports:
            assert report["tolerances"] == {
                "parallel": 1e-9, "exceptional": 1e-9, "bifurcation": 1e-9
            }

    def test_scaled_tolerance_reaches_the_bifurcation_test(self):
        # |B| / sum|tan alpha| = 2.3e-8 lies between 1e-9 and 100 * 1e-9.
        tol = DEFAULT_TOL.scaled(100.0)
        assert cyclic_report(1.0, NEAR_BIFURCATION)["bifurcating"] is False
        assert cyclic_report(1.0, NEAR_BIFURCATION, tol=tol)["bifurcating"] is True


class TestImport:
    def test_cyclic_report_without_scipy(self):
        # The package needs numpy only; a fresh interpreter shows what loads.
        code = (
            "import sys, polyslope; "
            "from polyslope.report import cyclic_report; "
            "cyclic_report(1.0, [0, 144, 288, 72, 216]); "
            "print('scipy' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(polyslope.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "False"


class TestValidation:
    def test_slopes_schema_errors(self):
        with pytest.raises(InputSchemaError):
            validate_slopes_input({})
        with pytest.raises(InputSchemaError):
            validate_slopes_input({"angles_deg": [0, 1]})
        with pytest.raises(InputSchemaError):
            validate_slopes_input({"angles_deg": [0, 1, float("nan")]})

    def test_cyclic_schema_errors(self):
        with pytest.raises(InputSchemaError):
            validate_cyclic_input({"phis_deg": [0, 90, 200]})
        with pytest.raises(InputSchemaError):
            validate_cyclic_input({"radius": 1, "phis_deg": [0, 90, 200], "center": [0]})

    def test_top_level_must_be_an_object(self, tmp_path, capsys):
        path = write_json(tmp_path, "list.json", [90, 210, 330])
        code, out, err = run_cli(capsys, "slopes", "analyze", path)
        assert (code, out) == (2, "")
        assert err == f"error: {path}: top level must be a JSON object\n"

    def test_analyze_reads_each_kind(self):
        slopes = {"angles_deg": [90, 210, 330]}
        cyclic = {"radius": 2.0, "phis_deg": [0, 144, 288, 72, 216], "center": [1, 0]}
        assert analyze("slopes", slopes) == slopes_report([90, 210, 330])
        assert analyze("cyclic", cyclic) == cyclic_report(2.0, cyclic["phis_deg"], (1.0, 0.0))
        assert analyze("family", FAMILY, steps=5) == family_report(
            FAMILY["start_angles_deg"], FAMILY["end_angles_deg"], 5
        )
        with pytest.raises(InputSchemaError, match="missing field 'radius'"):
            analyze("cyclic", slopes)
        with pytest.raises(ValueError, match="unknown input kind"):
            analyze("lengths", slopes)


class TestErrorClasses:
    def test_internal_value_error_is_not_an_input_error(self, tmp_path, monkeypatch):
        # numpy's LinAlgError is a ValueError; raised inside a report it is a
        # fault of the library, so it must not pass for an input error.
        def broken_report(angles, tol):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr("polyslope.report.slopes_report", broken_report)
        path = write_json(tmp_path, "eq.json", {"angles_deg": [90, 210, 330]})
        with pytest.raises(np.linalg.LinAlgError):
            main(["slopes", "analyze", path])

    def test_exactly_the_input_faults_are_input_errors(self):
        input_faults = {
            "InputSchemaError",
            "ParallelLines",
            "AntipodalVertices",
            "CoincidentVertices",
            "SlopeMismatch",
            "LengthMismatch",
        }
        library_faults = {
            "NonIntegralTurn",
            "ReconstructionDegenerate",
            "NotCritical",
            "Bifurcating",
            "DegenerateCritical",
            "PointOnBoundary",
            "DegenerateHessian",
        }
        assert polyslope.InputError is InputError
        classes = {
            name: value
            for name, value in vars(polyslope.errors).items()
            if isinstance(value, type) and issubclass(value, polyslope.PolyslopeError)
        }
        assert set(classes) == input_faults | library_faults | {"PolyslopeError", "InputError"}
        subclasses = {name for name, cls in classes.items() if issubclass(cls, InputError)}
        assert subclasses == input_faults | {"InputError"}
        for name in input_faults | library_faults:
            assert getattr(polyslope, name) is classes[name]

    @pytest.mark.parametrize(
        "error, code",
        [(ParallelLines("injected"), 2), (InputError("injected"), 2), (NotCritical("injected"), 3)],
    )
    def test_exit_code_follows_the_error_class(self, tmp_path, capsys, monkeypatch, error, code):
        def raising_report(angles, tol):
            raise error

        monkeypatch.setattr("polyslope.report.slopes_report", raising_report)
        path = write_json(tmp_path, "eq.json", {"angles_deg": [90, 210, 330]})
        for command in (["slopes", "analyze", path], ["render", path, "-o", str(tmp_path / "f.svg")]):
            assert run_cli(capsys, *command) == (
                code, "", ("error: " if code == 2 else "cross-check failure: ") + "injected\n"
            )

    def test_unreadable_file_and_negative_seed_exit_code(self, tmp_path, capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        code, _, err = run_cli(capsys, "slopes", "analyze", str(path))
        assert code == 2
        assert "invalid JSON" in err
        code, _, err = run_cli(capsys, "sweep", "--seed", "-1", "--trials", "1")
        assert code == 2
        assert "--seed" in err
