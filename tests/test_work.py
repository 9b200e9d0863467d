"""What the reports and the sweep checks build, and how often.

Each critical point builds its polygon and Hessian on first read, and each
chart its area constants and well-conditioned relabeling.  A slopes report
takes its angle sum from its chart and builds both critical points' polygons
as one vertex stack from one ``tangential_offsets`` call, and their gradients
as one complex stack; a cyclic report computes its invariants and its dual
slopes once.  Counters wrap functions such as
``geometry.tangential_polygon`` and ``slope_space.build_chart`` in every
``polyslope`` module that holds them.  The routes these shortcuts replace
stay here as oracles: the family rows against the critical points' own
indices, the shared chart against a fresh ``build_chart`` per relabeling.
A family charts its rows and bisection midpoints as angle stacks and builds
no chart unless a row is invalid.
"""

import math
import sys

import polyslope.sweeps as sweeps
import numpy as np
import pytest

from polyslope import (
    SlopeSystem,
    build_chart,
    morse_index_eigen,
    tangential_critical_points,
)
from polyslope import geometry
from polyslope.cyclic import bifurcation_test, cyclic_invariants
from polyslope.geometry import (
    require_distinct,
    tangential_offsets,
    tangential_polygon,
)
from polyslope.randomgen import random_slope_system, trial_rng
from polyslope.report import BISECTION_DEPTH, cyclic_report, family_report, slopes_report
from polyslope.slope_space import (
    RadiiChart,
    _line_offsets,
    chart_stack,
    polygon_from_radii,
    turning_rule,
)
from polyslope.sweeps import CHECKS
from polyslope.tangential import constrained_perimeter, hessian_formula, well_conditioned_chart
from polyslope.tolerances import DEFAULT_TOL

from families import (
    BENCH_CROSSING,
    BENCH_F3,
    FAMILY_END,
    FAMILY_START,
    bisect_family_root,
    family_system,
    sequential_family_report,
)


def counted(monkeypatch, originals, results=None):
    """Counts of calls to each original, by name, wrapped in every
    ``polyslope`` module that holds it; each result is appended to
    ``results`` when it is given."""
    counts = {}
    for original in originals:
        name = original.__name__
        counts[name] = 0

        def wrapper(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            result = _original(*args, **kwargs)
            if results is not None:
                results.append(result)
            return result

        for module_name, module in list(sys.modules.items()):
            if module_name == "polyslope" or module_name.startswith("polyslope."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    return counts


@pytest.fixture
def calls(monkeypatch):
    """Counts of calls to build_chart and tangential_polygon, by name."""
    return counted(monkeypatch, (build_chart, tangential_polygon))


SLOPES_7 = [10.0, 62.0, 131.0, 175.0, 228.0, 281.0, 333.0]


def test_slopes_report_builds_one_chart_and_one_vertex_stack(monkeypatch, calls):
    # Both points' polygons come from one call with the stack of their radii,
    # and both gradients from one evaluation of the constrained perimeter.
    offsets = []
    stacks = counted(monkeypatch, (tangential_offsets,), offsets)
    gradients = counted(monkeypatch, (constrained_perimeter,))
    report = slopes_report(SLOPES_7)
    assert not report["critical"]["exceptional"]
    assert calls["build_chart"] <= 2
    assert calls["tangential_polygon"] == 0
    assert stacks == {"tangential_offsets": 1}
    assert gradients == {"constrained_perimeter": 1}
    assert offsets[0].shape == (2, 7, 2)


def test_family_report_builds_no_polygon(calls):
    report = family_report(FAMILY_START, FAMILY_END, 11)
    assert any(row.get("critical_points") == 2 for row in report["rows"])
    assert calls["tangential_polygon"] == 0


@pytest.mark.parametrize(
    "name",
    ["critical_gradient", "hessian_difference", "hessian_determinant",
     "index_agreement", "convex_indices"],
)
def test_index_hessian_and_gradient_checks_build_no_polygon(calls, name):
    index, check = next((i, c) for i, (n, c) in enumerate(CHECKS) if n == name)
    for trial in range(20):
        assert check(trial_rng(1, index, trial), (4, 9), DEFAULT_TOL) is not None
    assert calls["tangential_polygon"] == 0
    assert calls["build_chart"] == 20


def test_polygon_and_hessian_on_first_read():
    chart = build_chart(SlopeSystem.from_degrees(SLOPES_7))
    for point in tangential_critical_points(chart):
        assert "polygon" not in vars(point) and "hessian" not in vars(point)
        polygon = point.polygon
        assert polygon is point.polygon
        expected = tangential_polygon(chart.system.angles, point.incenter, point.inradius)
        assert np.array_equal(polygon.vertices, expected.vertices)
        assert point.hessian is point.hessian
        assert np.array_equal(point.hessian, hessian_formula(chart.unit_perimeters, point.inradius))


def reference_well_conditioned(system):
    """A fresh chart for each cyclic relabeling; the smallest max|p| / |p_1| wins."""
    charts = [build_chart(system.rotated(k)) for k in range(system.n)]
    ratios = [np.max(np.abs(c.unit_perimeters)) / abs(c.unit_perimeters[0]) for c in charts]
    return charts[int(np.argmin(ratios))]


def test_well_conditioned_chart_is_shared_and_equal_to_reference():
    rng = np.random.default_rng(41)
    for _ in range(60):
        system = random_slope_system(rng, int(rng.integers(3, 15)))
        chart = build_chart(system)
        shared = chart.well_conditioned
        assert shared is chart.well_conditioned
        expected = reference_well_conditioned(system)
        assert np.array_equal(shared.system.angles, expected.system.angles)
        assert np.array_equal(shared.unit_perimeters, expected.unit_perimeters)
        assert np.array_equal(shared.area_constants, expected.area_constants)
        assert shared.perimeter_sum == expected.perimeter_sum
        assert shared.half_turns == expected.half_turns
        assert shared.right_turns == expected.right_turns == chart.right_turns
        assert shared.angle_sum == chart.angle_sum
        assert not shared.unit_perimeters.flags.writeable
        public = well_conditioned_chart(system)
        assert np.array_equal(public.unit_perimeters, expected.unit_perimeters)


def check_family_rows(report):
    """Each row against the indices and area of its own critical points."""
    checked = 0
    for row in report["rows"]:
        if row["status"] != "ok":
            continue
        chart = build_chart(SlopeSystem.from_degrees(row["angles_deg"]))
        points = tangential_critical_points(chart)
        if not points:
            assert row["exceptional"] and "indices" not in row
            continue
        assert not row["exceptional"]
        assert row["indices"] == [morse_index_eigen(p).index_eigen for p in points]
        assert row["area_sign"] == int(math.copysign(1.0, points[0].area))
        checked += 1
    return checked


def test_family_rows_match_critical_points():
    assert check_family_rows(family_report(FAMILY_START, FAMILY_END, 11)) > 0
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(4, 10))
        start = rng.uniform(0.0, 360.0, n).tolist()
        end = rng.uniform(0.0, 360.0, n).tolist()
        checked += check_family_rows(family_report(start, end, 7))
    assert checked > 500


def test_family_report_charts_rows_and_midpoints_as_stacks(monkeypatch):
    # With no invalid row, one chart_stack call charts the rows, and no
    # RadiiChart is built.  Each bisection round charts the midpoint tree of
    # BISECTION_DEPTH halvings and the path of the secant root, so these
    # brackets take three stacks where the trees alone took one per
    # BISECTION_DEPTH halvings, rounded up (eight).  The reference builds one
    # chart per row and per midpoint, so its count less the rows is the
    # number of halvings.
    made = [0]
    init = RadiiChart.__init__

    def counted_init(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RadiiChart, "__init__", counted_init)
    stacks = counted(monkeypatch, (chart_stack,))
    for start, end in ((FAMILY_START, FAMILY_END), BENCH_F3, BENCH_CROSSING):
        made[0] = 0
        sequential_family_report(start, end, 11)
        halvings = made[0] - 11
        made[0] = stacks["chart_stack"] = 0
        report = family_report(start, end, 11)
        assert all(row["status"] == "ok" for row in report["rows"])
        assert len(report["sign_changes"]) == 1
        assert made[0] == 0
        assert math.ceil(halvings / BISECTION_DEPTH) == 8
        assert stacks["chart_stack"] == 1 + 3


def test_family_root_at_a_bracket_end_follows_the_secant_path(monkeypatch):
    # The row t = 1/2 of this family has sum p exactly 0.  Once a halving
    # makes it the bracket's end, the secant root is that end, and the path
    # keeps it: the bracket takes two stacks where the trees alone take 8.
    start = [203.401, 207.53, 322.02, 107.113, -14.118576482893687]
    end = [203.401, 207.53, 322.02, 107.113, -12.118576482893687]
    stacks = counted(monkeypatch, (chart_stack,))
    report = family_report(start, end, 2)
    assert stacks["chart_stack"] == 1 + 2
    assert len(report["sign_changes"]) == 1
    assert report == sequential_family_report(start, end, 2)


def test_area_constants_on_first_read():
    chart = build_chart(SlopeSystem.from_degrees(SLOPES_7))
    assert "area_constants" not in vars(chart)
    constants = chart.area_constants
    assert constants is chart.area_constants
    assert not constants.flags.writeable


def test_angles_are_read_only_and_shared():
    system = SlopeSystem.from_degrees(SLOPES_7)
    angles = system.angles
    assert angles is system.angles
    assert not angles.flags.writeable
    assert angles.dtype == np.float64


def test_slopes_report_runs_the_turning_rule_once(monkeypatch):
    # The turning rule of chart_stack is the one loop over consecutive
    # slopes: the report and both critical points read its angle sum and
    # turn counts off the chart.
    results = []
    counts = counted(monkeypatch, (turning_rule,), results)
    report = slopes_report(SLOPES_7)
    assert counts["turning_rule"] == 1
    assert not hasattr(geometry, "turn_counts")
    total, half_turns, right_turns = (x.tolist() for x in results[0][:3])
    turning = report["turning"]
    assert (turning["angle_sum_rad"], turning["half_turns"]) == (total, half_turns)
    assert (turning["right_turns"], turning["left_turns"]) == (right_turns, 7 - right_turns)
    for point in report["critical"]["points"]:
        assert (point["right_turns"], point["left_turns"]) == (right_turns, 7 - right_turns)
        assert point["winding"] == (half_turns - right_turns) // 2


@pytest.mark.parametrize("name", ["cyclic_indices", "dual_perimeter"])
def test_cyclic_trial_computes_invariants_once(monkeypatch, name):
    counts = counted(monkeypatch, (cyclic_invariants,))
    index, check = next((i, c) for i, (n, c) in enumerate(CHECKS) if n == name)
    for trial in range(20):
        counts["cyclic_invariants"] = 0
        assert check(trial_rng(1, index, trial), (4, 9), DEFAULT_TOL) is not None
        assert counts["cyclic_invariants"] == 1


def counted_systems(monkeypatch):
    """A one-item list holding the number of SlopeSystems constructed."""
    systems = [0]
    init = SlopeSystem.__init__

    def counted_init(self, angles):
        systems[0] += 1
        init(self, angles)

    # Every SlopeSystem, however it is made, runs the one constructor.
    monkeypatch.setattr(SlopeSystem, "__init__", counted_init)
    return systems


def test_cyclic_report_computes_invariants_and_dual_once(monkeypatch):
    # One tangential construction gives both the reported dual vertices and
    # the polygon about the origin that the perimeter is read from; one
    # vertex check covers both, and the unit-circle polygon of the numeric
    # area index, whose vertex angles the CyclicPolygon has checked, gets none.
    counts = counted(
        monkeypatch,
        (cyclic_invariants, bifurcation_test, tangential_offsets, tangential_polygon,
         require_distinct),
    )
    systems = counted_systems(monkeypatch)
    report = cyclic_report(1.0, [0.0, 70.0, 150.0, 220.0, 290.0])
    assert report["indices"]["mu_dual_perimeter"] is not None
    assert counts == {
        "cyclic_invariants": 1,
        "bifurcation_test": 1,
        "tangential_offsets": 1,
        "tangential_polygon": 0,
        "require_distinct": 1,
    }
    assert systems[0] == 1


def test_chart_identity_trial_reconstructs_one_stack(monkeypatch):
    # One chart, one reconstruction of three rows (one when the drawn system
    # is exceptional), and no SlopeSystem but the drawn one.  The drawn row's
    # line offsets are computed once, and vertices are checked once for the
    # reconstruction, once for the triangles and once for each tangential
    # point's closed-form polygon, not again for the drawn row.
    index, check = next((i, c) for i, (n, c) in enumerate(CHECKS) if n == "chart_identities")
    results = []
    counts = counted(monkeypatch, (build_chart, polygon_from_radii), results)
    checks = counted(monkeypatch, (_line_offsets, require_distinct))
    systems = counted_systems(monkeypatch)

    def trial(rng, n_range, rows):
        counts["build_chart"] = counts["polygon_from_radii"] = systems[0] = 0
        checks["_line_offsets"] = checks["require_distinct"] = 0
        results.clear()
        _, checked = check(rng, n_range, DEFAULT_TOL)
        assert all(error <= bound for _, error, bound in checked), checked
        assert counts == {"build_chart": 1, "polygon_from_radii": 1}
        assert checks == {"_line_offsets": 1, "require_distinct": rows + 1}
        assert results[-1].shape[0] == rows
        return systems[0]

    for t in range(20):
        assert trial(trial_rng(1, index, t), (3, 12), 3) == 1
    exceptional = family_system(bisect_family_root())
    assert tangential_critical_points(exceptional) == ()
    monkeypatch.setattr(sweeps, "random_slope_system", lambda rng, n: exceptional)
    assert trial(np.random.default_rng(0), (4, 4), 1) == 0
