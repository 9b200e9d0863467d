"""What the reports and the sweep checks build, and how often.

Each critical point builds its polygon and Hessian on first read, and each
chart its area constants and area form.  A slopes report takes its angle
sum from its chart and builds both critical points' polygons as one vertex
stack from one ``tangential_polygons`` call, checks them by one edge-space
residual and counts their index by one edge-space inertia on the chart's
one closure basis and one area form, both read off one pass over the
first polygon's edges, and builds their Hessians as one closed-form stack
with one eigenvalue call; the
index-agreement and determinant trials read the same stack, with one
eigenvalue or determinant call, and no point's own Hessian.
A cyclic report computes its invariants and its dual slopes once, and its
indices with one SVD, one eigenvalue call, one turning rule, no chart,
no area gradient and no slope rule.  Counters
wrap functions such as ``geometry.tangential_polygons`` and
``slope_space.build_chart`` in every ``polyslope`` module that holds them,
and ``numpy.linalg``'s ``eigvalsh`` and ``det``.  The routes these shortcuts replace
stay here as oracles: the family rows against the critical points' own
indices, the well-conditioned chart against a fresh ``build_chart`` per
relabeling.
A family charts its rows as one angle stack and builds no chart unless a
row is invalid; its brackets chart nothing.  A crossing's bracket
proposes its root in a few Newton steps of the turn sum, which one
stacked turn sum at the proposal's midpoints confirms; its poles are a
closed form of the rows' turns, with no stack of turn tangents.  A
chart-identity trial reads the areas, signed perimeters, diameters and
chart-law sums that its reconstruction returned, measures each vertex
stack in one edge pass, recovers the radii with one closed-form
tritangent_circle call and no linear solve, and builds the tangential
points' polygons as one vertex stack.
"""

import math
import sys

import polyslope.sweeps as sweeps
import numpy as np
import pytest

from polyslope import (
    PolygonChain,
    SlopeSystem,
    TangentialCritical,
    build_chart,
    morse_index_eigen,
    tangential_critical_points,
)
from polyslope import geometry
from polyslope.cyclic import _area_residual, bifurcation_test, cyclic_invariants
from polyslope.geometry import (
    area_form,
    edge_lengths_along,
    oriented_areas,
    signed_perimeters,
    tangential_polygons,
    turn_tangents,
)
from polyslope.randomgen import random_slope_system, trial_rng
from polyslope.report import (
    _perimeter_sums,
    _turn_tangents,
    cyclic_report,
    family_report,
    slopes_report,
)
from polyslope.slope_space import (
    RadiiChart,
    _line_offsets,
    _reconstruction,
    chart_stack,
    polygon_from_radii,
    tritangent_circle,
    turning_rule,
)
from polyslope.sweeps import CHECKS
from polyslope.tangential import hessian_formula, tangential_residual, well_conditioned_chart
from polyslope.tolerances import DEFAULT_TOL

import families
from families import (
    BENCH_CROSSING,
    BENCH_F3,
    FAMILY_END,
    FAMILY_START,
    bisect_family_root,
    family_system,
    sequential_family_report,
)
from test_family import BESIDE_POLE, POLE


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
    """Counts of calls to build_chart and tangential_polygons, by name."""
    return counted(monkeypatch, (build_chart, tangential_polygons))


SLOPES_7 = [10.0, 62.0, 131.0, 175.0, 228.0, 281.0, 333.0]


def test_slopes_report_builds_one_chart_and_one_vertex_stack(monkeypatch):
    # Both points' polygons come from one call with the stack of their radii,
    # and both points' edge-space checks from one residual.  The residual and
    # the edge-space inertia read the chart's one area form and one pass
    # over the first polygon's edges.
    results = []
    calls = counted(monkeypatch, (build_chart, tangential_polygons), results)
    shared = counted(monkeypatch, (tangential_residual, area_form, edge_lengths_along))
    report = slopes_report(SLOPES_7)
    assert not report["critical"]["exceptional"]
    assert calls == {"build_chart": 1, "tangential_polygons": 1}
    assert shared == {"tangential_residual": 1, "area_form": 1, "edge_lengths_along": 1}
    assert results[-1].shape == (2, 7, 2)


def test_family_report_builds_no_polygon(calls):
    report = family_report(FAMILY_START, FAMILY_END, 11)
    assert any(row.get("critical_points") == 2 for row in report["rows"])
    assert calls["tangential_polygons"] == 0


@pytest.mark.parametrize(
    "name",
    ["critical_gradient", "hessian_difference", "hessian_determinant",
     "index_agreement", "convex_indices"],
)
def test_index_hessian_and_gradient_checks_build_no_polygon(monkeypatch, name):
    # The gradient and index trials read one vertex list, of the r > 0
    # point, and no PolygonChain; the others build no vertices at all.  Each
    # trial that reads the area form builds it once, on its chart.
    stacks = []
    calls = counted(monkeypatch, (build_chart, tangential_polygons), stacks)
    forms = counted(monkeypatch, (area_form,))
    chains = [0]
    post_init = PolygonChain.__post_init__

    def counted_post_init(self):
        chains[0] += 1
        post_init(self)

    monkeypatch.setattr(PolygonChain, "__post_init__", counted_post_init)
    index, check = next((i, c) for i, (n, c) in enumerate(CHECKS) if n == name)
    for trial in range(20):
        assert check(trial_rng(1, index, trial), (4, 9), DEFAULT_TOL) is not None
    reads_vertices = name in ("critical_gradient", "index_agreement", "convex_indices")
    assert calls == {"build_chart": 20, "tangential_polygons": 20 if reads_vertices else 0}
    assert forms == {"area_form": 0 if name == "hessian_determinant" else 20}
    assert all(len(stack) == 1 for stack in stacks if isinstance(stack, np.ndarray))
    assert chains == [0]


def counted_linalg(monkeypatch, names):
    """Counts of calls to each ``numpy.linalg`` function in ``names``."""
    counts = dict.fromkeys(names, 0)
    for name in names:

        def wrapper(*args, _original=getattr(np.linalg, name), _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    return counts


@pytest.mark.parametrize("angles", [SLOPES_7, [90, 210, 330]], ids=["n7", "n3"])
def test_slopes_report_makes_two_svds_and_one_eigvalsh_call(monkeypatch, angles):
    # One closure basis of ker U for the edge-space residual and the index
    # count, one of the tangent T within it; one eigenvalue call for the
    # stack of the form on T and both points' Hessians, each (n - 3) square:
    # (3, 0, 0) for a triangle.
    linalg = counted_linalg(monkeypatch, ("svd",))
    shapes, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
    assert not slopes_report(angles)["critical"]["exceptional"]
    assert linalg == {"svd": 2}
    assert shapes == [(3, len(angles) - 3, len(angles) - 3)]


@pytest.mark.parametrize("name", ["slopes_report", "index_agreement", "hessian_determinant"])
def test_both_hessians_are_one_stack(monkeypatch, name):
    # H(-r) = -H(r): one closed-form stack holds both points' Hessians, and
    # one eigvalsh (or det) call reads it, with the edge-space form of the
    # inertia.  No point builds its own Hessian.  The index trial's area
    # signature takes one more eigvalsh call.
    formulas = counted(monkeypatch, (hessian_formula,))
    linalg = counted_linalg(monkeypatch, ("eigvalsh", "det"))
    reads = []

    def read_hessian(point):
        reads.append(point)
        return hessian_formula(point.chart.unit_perimeters, point.inradius)

    monkeypatch.setattr(TangentialCritical, "hessian", property(read_hessian))
    if name == "slopes_report":
        runs = [lambda: slopes_report(SLOPES_7)]
    else:
        index, check = next((i, c) for i, (n, c) in enumerate(CHECKS) if n == name)
        runs = [
            lambda t=t: check(trial_rng(1, index, t), (4, 9), DEFAULT_TOL) for t in range(20)
        ]
    determinant = name == "hessian_determinant"
    eigvalsh = {"slopes_report": 1, "index_agreement": 2, "hessian_determinant": 0}[name]
    for run in runs:
        formulas["hessian_formula"] = linalg["eigvalsh"] = linalg["det"] = 0
        assert run() is not None
        assert formulas == {"hessian_formula": 1}
        assert linalg == {"eigvalsh": eigvalsh, "det": int(determinant)}
    assert reads == []


def test_polygon_and_hessian_on_first_read():
    chart = build_chart(SlopeSystem.from_degrees(SLOPES_7))
    for point in tangential_critical_points(chart):
        assert not {"vertices", "polygon", "hessian"} & set(vars(point))
        polygon = point.polygon
        assert polygon is point.polygon and point.vertices is point.vertices
        expected = tangential_polygons(chart.system.angles, [point.incenter], [point.inradius])
        assert np.array_equal(point.vertices, expected[0])
        assert np.array_equal(polygon.vertices, expected[0])
        assert point.hessian is point.hessian
        assert np.array_equal(point.hessian, hessian_formula(chart.unit_perimeters, point.inradius))


def reference_well_conditioned(system):
    """A fresh chart for each cyclic relabeling; the smallest max|p| / |p_1| wins."""
    charts = [build_chart(system.rotated(k)) for k in range(system.n)]
    ratios = [np.max(np.abs(c.unit_perimeters)) / abs(c.unit_perimeters[0]) for c in charts]
    return charts[int(np.argmin(ratios))]


def test_well_conditioned_chart_is_shared_and_equal_to_reference():
    # The relabeling shares its chart's turning data, computed once.
    rng = np.random.default_rng(41)
    for _ in range(60):
        system = random_slope_system(rng, int(rng.integers(3, 15)))
        chart = build_chart(system)
        shared = well_conditioned_chart(system)
        expected = reference_well_conditioned(system)
        assert np.array_equal(shared.system.angles, expected.system.angles)
        assert np.array_equal(shared.unit_perimeters, expected.unit_perimeters)
        assert np.array_equal(shared.area_constants, expected.area_constants)
        assert shared.perimeter_sum == expected.perimeter_sum
        assert shared.half_turns == expected.half_turns
        assert shared.right_turns == expected.right_turns == chart.right_turns
        assert shared.angle_sum == chart.angle_sum
        assert not shared.unit_perimeters.flags.writeable


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
    # RadiiChart is built.  Each bracket evaluates the turn sum at the
    # midpoints of the halvings that its proposal gives as one stack, which
    # confirms them all, where the midpoint trees of earlier rounds took one
    # chart stack per five halvings, rounded up (eight).  The reference
    # builds one chart per row and evaluates one turn sum per midpoint.
    made = [0]
    init = RadiiChart.__init__

    def counted_init(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RadiiChart, "__init__", counted_init)
    halvings = []
    bracket = families.sequential_bracket

    def counted_bracket(*args):
        result, count = bracket(*args)
        halvings.append(count)
        return result, count

    monkeypatch.setattr(families, "sequential_bracket", counted_bracket)
    stacks = counted(monkeypatch, (chart_stack, _perimeter_sums))
    for start, end in ((FAMILY_START, FAMILY_END), BENCH_F3, BENCH_CROSSING):
        made[0] = 0
        halvings.clear()
        sequential_family_report(start, end, 11)
        assert made[0] == 11 and math.ceil(halvings[0] / 5) == 8
        made[0] = stacks["chart_stack"] = stacks["_perimeter_sums"] = 0
        report = family_report(start, end, 11)
        assert all(row["status"] == "ok" for row in report["rows"])
        assert len(report["sign_changes"]) == 1
        assert made[0] == 0
        assert stacks == {"chart_stack": 1, "_perimeter_sums": 1}


# Plain-float turn sums a crossing bracket may evaluate in its Newton
# steps; predicting each halving one at a time took about 37.
TURN_SUMS_PER_BRACKET = 8


def test_a_crossing_bracket_evaluates_few_turn_sums(monkeypatch):
    # One proposal, a Newton root from the secant of the charted sums,
    # whose halvings one stacked turn sum confirms: two turn_tangents calls
    # with the rows' unit perimeters, as no turn tangent decides a pole.
    # Every plain-float turn sum of the Newton steps reads _turn_tangents
    # once.
    sums = counted(monkeypatch, (_turn_tangents, _perimeter_sums, turn_tangents, chart_stack))
    for start, end in (BENCH_F3, BENCH_CROSSING):
        for name in sums:
            sums[name] = 0
        family = family_report(start, end, 11)
        assert len(family["sign_changes"]) == 1
        assert sums["chart_stack"] == 1 and sums["_perimeter_sums"] == 1
        assert sums["turn_tangents"] == 2
        assert 0 < sums["_turn_tangents"] <= TURN_SUMS_PER_BRACKET


def test_poles_take_no_stack(monkeypatch):
    # The poles are a closed form of the rows' turns: the family with a pole
    # and no root charts its rows and evaluates no turn sum, and the root
    # beside a pole takes one stacked turn sum, as a crossing's does.
    sums = counted(monkeypatch, (_turn_tangents, _perimeter_sums, turn_tangents, chart_stack))
    for (start, end), steps, brackets in ((POLE, 11, 0), (BESIDE_POLE, 3, 1)):
        for name in sums:
            sums[name] = 0
        family = family_report(start, end, steps)
        assert len(family["sign_changes"]) == brackets
        assert sums["chart_stack"] == 1 and sums["_perimeter_sums"] == brackets
        assert sums["turn_tangents"] == 1 + brackets
        assert sums["_turn_tangents"] <= TURN_SUMS_PER_BRACKET * brackets


def test_family_root_at_a_bracket_end_takes_two_stacks(monkeypatch):
    # The row t = 1/2 of this family has sum p exactly 0 in the chart, where
    # 2 T is 1.8e-15: the turn sum keeps (1/2, hi) against the proposal,
    # and the first round stops there.  From then on every halving keeps
    # (mid, hi), as the next proposal predicts, so the bracket takes two
    # stacked turn sums, where the midpoint trees took 8 chart stacks.
    start = [203.401, 207.53, 322.02, 107.113, -14.118576482893687]
    end = [203.401, 207.53, 322.02, 107.113, -12.118576482893687]
    stacks = counted(monkeypatch, (chart_stack, _perimeter_sums))
    report = family_report(start, end, 2)
    assert stacks == {"chart_stack": 1, "_perimeter_sums": 2}
    assert len(report["sign_changes"]) == 1
    assert report == sequential_family_report(start, end, 2)


def test_area_constants_on_first_read():
    chart = build_chart(SlopeSystem.from_degrees(SLOPES_7))
    assert "area_constants" not in vars(chart)
    constants = chart.area_constants
    assert constants is chart.area_constants
    assert not constants.flags.writeable


def test_area_form_on_first_read():
    chart = build_chart(SlopeSystem.from_degrees(SLOPES_7))
    assert "area_form" not in vars(chart)
    form = chart.area_form
    assert form is chart.area_form
    assert not form.flags.writeable
    assert np.array_equal(form, area_form(chart.system.angles))


def test_angles_are_read_only_and_shared():
    system = SlopeSystem.from_degrees(SLOPES_7)
    angles = system.angles
    assert angles is system.angles
    assert not angles.flags.writeable
    assert angles.dtype == np.float64


def test_slopes_report_runs_the_turning_rule_once(monkeypatch):
    # The turning rule of chart_stack is the one loop over consecutive
    # slopes: the report and both critical points read its k and turn
    # counts, and the angle sum k pi, off the chart.
    results = []
    counts = counted(monkeypatch, (turning_rule,), results)
    report = slopes_report(SLOPES_7)
    assert counts["turning_rule"] == 1
    assert not hasattr(geometry, "turn_counts")
    half_turns, right_turns = (int(x) for x in results[0])
    turning = report["turning"]
    assert (turning["angle_sum_rad"], turning["half_turns"]) == (half_turns * math.pi, half_turns)
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
    """A one-item list holding the number of SlopeSystems made, by the
    checking constructor or by ``SlopeSystem._unchecked``."""
    systems = [0]
    init, unchecked = SlopeSystem.__init__, SlopeSystem._unchecked

    def counted_init(self, angles):
        systems[0] += 1
        init(self, angles)

    def counted_unchecked(angles):
        systems[0] += 1
        return unchecked(angles)

    # Every SlopeSystem, however it is made, runs one of the two.
    monkeypatch.setattr(SlopeSystem, "__init__", counted_init)
    monkeypatch.setattr(SlopeSystem, "_unchecked", staticmethod(counted_unchecked))
    return systems


def test_cyclic_report_computes_invariants_and_dual_once(monkeypatch):
    # One tangential construction gives both the reported dual vertices and
    # the polygon about the origin that the perimeter is read from.
    counts = counted(monkeypatch, (cyclic_invariants, bifurcation_test, tangential_polygons))
    systems = counted_systems(monkeypatch)
    report = cyclic_report(1.0, [0.0, 70.0, 150.0, 220.0, 290.0])
    assert report["indices"]["mu_dual_perimeter"] is not None
    assert counts == {
        "cyclic_invariants": 1,
        "bifurcation_test": 1,
        "tangential_polygons": 1,
    }
    assert systems[0] == 1


@pytest.mark.parametrize(
    "phis", [[0.0, 70.0, 150.0, 220.0, 290.0], [0.0, 144.0, 288.0, 72.0, 216.0]]
)
def test_cyclic_report_makes_one_svd_and_eigvalsh_and_no_chart(monkeypatch, phis):
    # The numeric area index takes one closure basis and one eigenvalue
    # call, and no area gradient: the polygon is critical by construction.
    # The dual index is the formula at the dual slopes' half turns, from one
    # turning rule and no chart or turning_sum, whose finiteness check the
    # constructor has made, and no TangentialCritical is built.  The dual's
    # edges keep their slopes within the quick test of _signed_lengths, so
    # its signed perimeter runs no slope rule.
    linalg = counted_linalg(monkeypatch, ("svd", "eigvalsh"))
    charts = counted(
        monkeypatch,
        (build_chart, chart_stack, turning_rule, geometry.turning_sum, _area_residual,
         geometry._slope_rule),
    )
    made = [0]
    init = TangentialCritical.__init__

    def counted_init(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TangentialCritical, "__init__", counted_init)
    report = cyclic_report(1.0, phis)
    assert report["indices"]["mu_dual_perimeter"] is not None
    assert linalg == {"svd": 1, "eigvalsh": 1}
    assert charts == {
        "build_chart": 0,
        "chart_stack": 0,
        "turning_rule": 1,
        "turning_sum": 0,
        "_area_residual": 0,
        "_slope_rule": 0,
    }
    assert made[0] == 0


def test_chart_identity_trial_reconstructs_one_stack(monkeypatch):
    # One chart, one reconstruction of three rows (one when the drawn system
    # is exceptional), and no SlopeSystem but the drawn one.  The trial reads
    # the areas, signed perimeters, diameters and chart-law sums that the
    # reconstruction returned, and the drawn row's line offsets off its
    # vertices: the reconstruction has held every edge to its slope.  One
    # polygon_measures call measures the reconstruction's stack and one the
    # triangles' stack, each with one diameters call; nothing else measures
    # either stack: the tangential points' closed-form polygons are compared
    # with the reconstruction directly.
    # The triangles' radii are one tritangent_circle call in closed form: no
    # linear solve.
    index, check = next((i, c) for i, (n, c) in enumerate(CHECKS) if n == "chart_identities")
    results, vertices_made = [], []
    counts = counted(monkeypatch, (build_chart, _reconstruction, polygon_from_radii), results)
    counted(monkeypatch, (geometry.line_vertices,), vertices_made)
    measures = (geometry.polygon_measures, oriented_areas, signed_perimeters, geometry.diameters)
    checks = counted(monkeypatch, (_line_offsets, tritangent_circle, *measures))
    linalg = counted_linalg(monkeypatch, ("solve",))
    measured = []
    kernel = sweeps.polygon_measures

    def recorded(vertices, *args):
        measured.append(vertices)
        return kernel(vertices, *args)

    monkeypatch.setattr(sweeps, "polygon_measures", recorded)
    systems = counted_systems(monkeypatch)

    def trial(rng, n_range, rows):
        for tally in (counts, checks, linalg):
            for name in tally:
                tally[name] = 0
        systems[0] = 0
        results.clear()
        vertices_made.clear()
        measured.clear()
        _, checked = check(rng, n_range, DEFAULT_TOL)
        assert all(error <= bound for _, error, bound in checked), checked
        assert counts == {"build_chart": 1, "_reconstruction": 1, "polygon_from_radii": 0}
        assert checks == {
            "_line_offsets": 0,
            "tritangent_circle": 1,
            "polygon_measures": 2,
            "oriented_areas": 0,
            "signed_perimeters": 0,
            "diameters": 2,
        }
        assert linalg == {"solve": 0}
        vertices, areas, perimeters, sizes, sums, scales = results[-1]
        assert vertices.shape[0] == areas.shape[0] == perimeters.shape[0] == sizes.shape[0] == rows
        assert sums.shape == scales.shape == (2, rows)
        # The reconstruction's lines, then the triangles' lines, which the
        # sweep's own polygon_measures call measures.
        assert len(vertices_made) == 2 and vertices_made[0] is vertices
        assert len(measured) == 1 and measured[0] is vertices_made[1]
        return systems[0]

    for t in range(20):
        assert trial(trial_rng(1, index, t), (3, 12), 3) == 1
    exceptional = family_system(bisect_family_root())
    assert tangential_critical_points(exceptional) == ()
    monkeypatch.setattr(sweeps, "random_slope_system", lambda rng, n: exceptional)
    assert trial(np.random.default_rng(0), (4, 4), 1) == 0
