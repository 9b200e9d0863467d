"""Roundoff bounds of the sweep checks next to the exceptional locus, and a
planted defect in every check.

The sweep draws systems as close to the locus as tangential_critical_points
allows (|sum p| / sum|p| above tol.exceptional = 1e-9), so the comparisons
whose terms cancel there carry bounds in eps sum|p| / |sum p|.  A check
returns (n, rows) of (label, error, bound); a row fails, as in the sweep's
runner, when ``not error <= bound``.
"""

import dataclasses
import math
import numbers

import numpy as np
import pytest

import polyslope.sweeps as sweeps
import polyslope.tangential as tangential_module
from polyslope.cli import main
import polyslope.cyclic as cyclic_module
from polyslope.cyclic import cyclic_invariants, duality_index_check
from polyslope.geometry import (
    oriented_area,
    signed_perimeter,
    signed_perimeters,
    tangential_polygons,
)
from polyslope.randomgen import trial_rng
from polyslope.slope_space import ComponentShape, build_chart, polygon_from_radii, topology_report
from polyslope.tangential import (
    edge_hessians,
    hessian_det_identities,
    hessian_det_identity,
    hessian_formula,
    index_pair,
    index_reports,
    tangential_critical_points,
    tangential_residual,
)
from polyslope.tolerances import DEFAULT_TOL

from families import near_exceptional_system


@pytest.fixture(scope="module")
def near_locus():
    rng = np.random.default_rng(41)
    return [near_exceptional_system(rng, int(rng.integers(4, 10)), 1e-9, 1e-6) for _ in range(40)]


def failing_labels(outcome):
    """The labels of the rows of a check's (n, rows) that fail."""
    _, rows = outcome
    return [label for label, error, bound in rows if not error <= bound]


def run_on(monkeypatch, name, chart):
    """Failing labels of check ``name`` run on ``chart``'s system in place of
    its random draw."""
    monkeypatch.setattr(sweeps, "random_slope_system", lambda rng, n: chart.system)
    check = dict(sweeps.CHECKS)[name]
    return failing_labels(check(np.random.default_rng(0), (chart.n, chart.n), DEFAULT_TOL))


def test_determinant_passes_next_to_the_locus(monkeypatch, near_locus):
    # Every relabeling: a chart whose |p_1| is small against max|p| loses
    # that ratio too, which the bound's units alone do not cover.
    over_fixed_bound = 0
    for chart in (build_chart(c.system.rotated(k)) for c in near_locus for k in range(c.n)):
        assert run_on(monkeypatch, "hessian_determinant", chart) == []
        for point in tangential_critical_points(chart):
            lhs, rhs = hessian_det_identity(point)
            over_fixed_bound += abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs))
    # The fixed relative bound 1e-9 that the roundoff bound replaced fails here.
    assert over_fixed_bound > 0


def test_tangential_area_and_perimeter_pass_next_to_the_locus(monkeypatch, near_locus):
    over_fixed_bound = 0
    for chart in near_locus:
        assert run_on(monkeypatch, "chart_identities", chart) == []
        for point in tangential_critical_points(chart):
            rebuilt = polygon_from_radii(chart, np.full(chart.n - 2, point.inradius))
            area_error = abs(oriented_area(rebuilt) - point.area)
            perimeter_error = abs(signed_perimeter(rebuilt, chart.system) / point.perimeter - 1.0)
            over_fixed_bound += max(area_error, perimeter_error) > 1e-10
    # The fixed bound 1e-10 that the roundoff bound replaced fails here.
    assert over_fixed_bound > 0


def test_edge_space_checks_pass_next_to_the_locus(monkeypatch, near_locus):
    # Every relabeling, as for the determinant: the residual and area bounds
    # read no chart conditioning, the Hessian bound reads max|p| / |p_1|.
    for chart in (build_chart(c.system.rotated(k)) for c in near_locus for k in range(c.n)):
        assert run_on(monkeypatch, "critical_gradient", chart) == []
        assert run_on(monkeypatch, "hessian_difference", chart) == []


def perturbed_determinant(points):
    return [(lhs, rhs * (1.0 + 1e-6)) for lhs, rhs in hessian_det_identities(points)]


def perturbed_points(field):
    def points(chart):
        return tuple(
            dataclasses.replace(point, **{field: getattr(point, field) * (1.0 + 1e-6)})
            for point in tangential_critical_points(chart)
        )

    return points


def nan_residual(*args):
    """:func:`tangential_residual` with NaN errors."""
    _, gradient_bound, _, area_bound = tangential_residual(*args)
    return math.nan, gradient_bound, math.nan, area_bound


def nan_hessians(points):
    """:func:`edge_hessians` with NaN edge-space entries."""
    closed, edge = edge_hessians(points)
    return closed, edge * math.nan


def inflated_polygons(angles, centers, inradii):
    """:func:`tangential_polygons` built at inradii a millionth larger than
    the points', which the oracle reads."""
    return tangential_polygons(angles, centers, np.asarray(inradii) * (1.0 + 1e-6))


def perturbed_hessian(unit_perimeters, inradius, off=1e-6):
    """:func:`hessian_formula` with its largest entry off by ``off``, relative."""
    hessian = hessian_formula(unit_perimeters, inradius)
    flat = hessian.reshape(len(hessian), -1)
    flat[:, np.argmax(np.abs(flat[0]))] *= 1.0 + off
    return hessian


def perturbed_perimeter(vertices, slope_angles, tol):
    return signed_perimeters(vertices, slope_angles, tol) * (1.0 + 1e-6)


def shifted(kernel, *fields):
    """``kernel``'s report, or each of its list of reports, with each integer
    field one more."""

    def one(report):
        return dataclasses.replace(report, **{f: getattr(report, f) + 1 for f in fields})

    def shift(*args):
        result = kernel(*args)
        return [one(report) for report in result] if isinstance(result, list) else one(result)

    return shift


def shifted_sphere(chart):
    """:func:`topology_report` with the positive component's sphere one
    dimension larger, its area signature one more positive."""
    topology = topology_report(chart)
    sphere, disc = topology.positive_component.sphere_dim, topology.positive_component.disc_dim
    return dataclasses.replace(topology, positive_component=ComponentShape(sphere + 1, disc))


def shifted_dual_index(n, k, perimeter_sum):
    """:func:`index_pair` with mu(r > 0), the dual perimeter index, one more."""
    first, second = index_pair(n, k, perimeter_sum)
    return first + 1, second - 1


def offset_tangent_sum(cyclic):
    # B off by a millionth of sum|tan a|, far above the dual perimeter's
    # bound of 1024 eps sum|tan a|, however small B itself is.
    invariants = cyclic_invariants(cyclic)
    return dataclasses.replace(
        invariants,
        bifurcation_sum=invariants.bifurcation_sum + 1e-6 * invariants.tangent_scale,
    )


def zero_tangent_sum(cyclic):
    # B planted on the bifurcation locus; the dual's perimeter, measured on
    # the polygon, stays off it on the generic draws.
    return dataclasses.replace(cyclic_invariants(cyclic), bifurcation_sum=0.0)


def odd_right_turns(system, tol):
    chart = build_chart(system, tol)
    return dataclasses.replace(chart, right_turns=chart.right_turns + 1)


def half_turn_off(system, tol):
    chart = build_chart(system, tol)
    return dataclasses.replace(chart, half_turns=chart.half_turns + 1)


@pytest.mark.parametrize(
    "check_index, name, value, label",
    [
        # The stacked kernels keep the ids of the one-point kernels they replaced.
        pytest.param(
            2,
            "hessian_det_identities",
            perturbed_determinant,
            "determinant identity off",
            id="2-hessian_det_identity-perturbed_determinant-determinant identity off",
        ),
        (5, "tangential_critical_points", perturbed_points("area"), "tangential area off"),
        (
            5,
            "tangential_critical_points",
            perturbed_points("perimeter"),
            "tangential perimeter off",
        ),
        # A wrong inradius builds a polygon tangential at that inradius, of the
        # wrong area; a polygon tangential at another inradius than the one
        # read is not critical.
        (0, "tangential_critical_points", perturbed_points("inradius"), "shoelace area off"),
        (0, "tangential_polygons", inflated_polygons, "gradient norm"),
        (1, "hessian_formula", perturbed_hessian, "hessian error"),
        pytest.param(
            3,
            "index_reports",
            shifted(index_reports, "index_formula"),
            "index mismatch",
            id="3-morse_index_eigen-shift-index mismatch",
        ),
        (3, "topology_report", shifted_sphere, "area signature off topology"),
        pytest.param(
            4,
            "index_reports",
            shifted(index_reports, "index_eigen"),
            "convex index off",
            id="4-morse_index_eigen-shift-convex index off",
        ),
        (6, "build_chart", odd_right_turns, "turn parity off"),
        (6, "build_chart", half_turn_off, "angle sum off its line turns"),
        (7, "cyclic_invariants", offset_tangent_sum, "dual perimeter off 2RB"),
        (7, "cyclic_invariants", zero_tangent_sum, "bifurcation test off dual perimeter"),
        pytest.param(
            7,
            "signed_perimeters",
            perturbed_perimeter,
            "dual perimeter off 2RB",
            id="7-signed_perimeter-perturbed_perimeter-dual perimeter off 2RB",
        ),
        (
            8,
            "duality_index_check",
            shifted(duality_index_check, "mu_area_numeric"),
            "area index numeric off formula",
        ),
        (8, "index_pair", shifted_dual_index, "area index numeric off formula"),
        # A NaN error fails: the runner's rule is error <= bound.  The
        # edge-space oracles keep the ids of the derivative oracles they replaced.
        pytest.param(
            0,
            "tangential_residual",
            nan_residual,
            "gradient norm",
            id="0-critical_gradient_norms-nan-gradient norm",
        ),
        (0, "tangential_residual", nan_residual, "shoelace area off"),
        pytest.param(
            1,
            "edge_hessians",
            nan_hessians,
            "hessian error",
            id="1-hessian_errors-nan-hessian error",
        ),
    ],
)
def test_perturbed_closed_form_fails(monkeypatch, capsys, check_index, name, value, label):
    # A closed form off by one part in a million, or a planted defect in
    # what a check compares, fails every trial of the check's own stream:
    # the roundoff bounds stay below that on its draws.  The invariants are
    # read through CyclicPolygon.invariants, which calls the cyclic module's,
    # the dual's perimeter is measured in cyclic.dual_polygon, the dual's
    # index read in cyclic.area_morse_index_formula, the closed-form
    # Hessian in tangential.edge_hessians, and a point's vertices built by
    # TangentialCritical.vertices.
    modules = dict.fromkeys(("cyclic_invariants", "signed_perimeters", "index_pair"), cyclic_module)
    modules["hessian_formula"] = modules["tangential_polygons"] = tangential_module
    monkeypatch.setattr(modules.get(name, sweeps), name, value)
    assert_fails_every_trial(check_index, label, capsys)


def test_hessian_entry_off_by_a_billionth_fails(monkeypatch):
    # The check resolves one entry off by 1e-9 of itself on every trial of
    # its stream.
    monkeypatch.setattr(
        tangential_module, "hessian_formula", lambda p, r: perturbed_hessian(p, r, 1e-9)
    )
    check = dict(sweeps.CHECKS)["hessian_difference"]
    for trial in range(20):
        outcome = check(trial_rng(1, 1, trial), (3, 12), DEFAULT_TOL)
        assert failing_labels(outcome) == ["hessian error", "hessian error"], (trial, outcome)


def assert_fails_every_trial(check_index, label, capsys):
    """Check ``check_index`` fails its row ``label`` on each of 20 trials of
    its stream, and the ``sweep`` command exits 3 on the same streams."""
    check = sweeps.CHECKS[check_index][1]
    for trial in range(20):
        outcome = check(trial_rng(1, check_index, trial), (3, 12), DEFAULT_TOL)
        assert label in failing_labels(outcome), (trial, outcome)
    argv = ["sweep", "--seed", "1", "--trials", "2", "--n-min", "3", "--n-max", "12"]
    assert main(argv) == 3
    assert f"FAIL {label} " in capsys.readouterr().out


def test_every_check_returns_concrete_rows():
    # Each check runs its whole trial before it returns: a timer around the
    # call measures the trial, which a lazy generator would not.
    for check_index, entry in enumerate(sweeps.CHECKS):
        name, check = entry
        assert isinstance(entry, tuple) and isinstance(name, str) and callable(check)
        for trial in range(5):
            outcome = check(trial_rng(2, check_index, trial), (3, 12), DEFAULT_TOL)
            if outcome is None:
                continue
            assert isinstance(outcome, tuple)
            n, rows = outcome
            assert isinstance(n, int) and isinstance(rows, list) and rows
            for row in rows:
                assert isinstance(row, tuple) and len(row) == 3
                label, error, bound = row
                assert isinstance(label, str)
                assert isinstance(error, numbers.Real) and isinstance(bound, numbers.Real)


OFF = 1.0 + 1e-6


def plant_on_triangles(monkeypatch, part):
    """Measure ``part`` of sweeps.polygon_measures (0 areas, 1 signed
    perimeters) off by one part in a million on the decomposition triangles
    alone: the stack that the sweep's line_vertices built last."""
    made = []
    build, kernel = sweeps.line_vertices, sweeps.polygon_measures

    def recorded(*args):
        made.append(build(*args))
        return made[-1]

    def planted(vertices, *args):
        measures = list(kernel(vertices, *args))
        if made and vertices is made[-1]:
            measures[part] = measures[part] * OFF
        return tuple(measures)

    monkeypatch.setattr(sweeps, "line_vertices", recorded)
    monkeypatch.setattr(sweeps, "polygon_measures", planted)


def plant_on_result(monkeypatch, name, perturb):
    original = getattr(sweeps, name)
    monkeypatch.setattr(sweeps, name, lambda *args: perturb(original(*args)))


def offset_incenters(chart):
    # Each closed-form polygon moves with its incenter, by 1e-6 |r|.
    return tuple(
        dataclasses.replace(point, incenter=point.incenter * OFF)
        for point in tangential_critical_points(chart)
    )


# Each comparison of the chart-identity check, by its row's label, and a planted
# defect of one part in a million on one side of it.
PLANTED = {
    # The reconstruction's measured areas or signed perimeters, once its own
    # check of the chart laws has passed.
    "quadratic area law off": lambda m: plant_on_result(
        m, "_reconstruction", lambda r: (r[0], r[1] * OFF, *r[2:])
    ),
    "linear perimeter law off": lambda m: plant_on_result(
        m, "_reconstruction", lambda r: (*r[:2], r[2] * OFF, *r[3:])
    ),
    "area additivity off": lambda m: plant_on_triangles(m, 0),
    "perimeter additivity off": lambda m: plant_on_triangles(m, 1),
    "radii roundtrip off": lambda m: plant_on_result(
        m, "tritangent_circle", lambda r: (r[0], r[1] * OFF)
    ),
    "coordinate quadratic form off": lambda m: plant_on_result(
        m, "_chart_coordinates", lambda x: x * OFF
    ),
    "tangential vertices off": lambda m: m.setattr(
        sweeps, "tangential_critical_points", offset_incenters
    ),
}


@pytest.mark.parametrize("label", list(PLANTED))
def test_planted_chart_identity_defect_fails(monkeypatch, capsys, label):
    # Every comparison of the stacked chart-identity check still fails each
    # trial of its stream when one side is off by one part in a million.
    PLANTED[label](monkeypatch)
    assert_fails_every_trial(5, label, capsys)


@pytest.mark.parametrize("law, label", enumerate(list(PLANTED)[:2]))
def test_planted_law_sum_fails(monkeypatch, capsys, law, label):
    # The other side of the two chart-law rows: the sums that the
    # reconstruction returned, once its own check has passed.
    def off_sum(result):
        sums = result[4].copy()
        sums[law] *= OFF
        return (*result[:4], sums, result[5])

    plant_on_result(monkeypatch, "_reconstruction", off_sum)
    assert_fails_every_trial(5, label, capsys)


def test_sweep_passes_at_scaled_tolerances():
    # The identities and oracles keep roundoff bounds in units of eps, which
    # the factor leaves alone.  Seeds 1..5 at 1e-6 failed on the chart laws
    # when their bound scaled, and seed 8 at 1e-3 on an edge held to its slope
    # without the roundoff of its direction.
    for seeds, factor in ((range(1, 6), 1e-6), ((8,), 1e-3)):
        for seed in seeds:
            result = sweeps.run_sweep(seed, 20, (4, 9), DEFAULT_TOL.scaled(factor))
            assert result.total_failed == 0, result.format_text()


def test_systems_without_critical_points_are_skipped(monkeypatch):
    # A draw with no tangential critical point (an exceptional system) gives
    # the five checks that read the points nothing to compare: each skips
    # the trial.  The chart identities still check the drawn radii.
    monkeypatch.setattr(sweeps, "tangential_critical_points", lambda chart: ())
    result = sweeps.run_sweep(3, 10, (4, 9))
    tallies = {tally.name: tally for tally in result.tallies}
    for name in ("critical_gradient", "hessian_difference", "hessian_determinant",
                 "index_agreement", "convex_indices"):
        assert (tallies[name].passed, tallies[name].failed, tallies[name].skipped) == (0, 0, 10)
    assert (tallies["chart_identities"].passed, tallies["chart_identities"].skipped) == (10, 0)
    assert result.total_failed == 0
