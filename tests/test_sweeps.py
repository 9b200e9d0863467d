"""Roundoff bounds of the sweep checks next to the exceptional locus.

The sweep draws systems as close to the locus as tangential_critical_points
allows (|sum p| / sum|p| above tol.exceptional = 1e-9), so the comparisons
whose terms cancel there carry bounds in eps sum|p| / |sum p|.
"""

import dataclasses

import numpy as np
import pytest

import polyslope.sweeps as sweeps
from polyslope.geometry import oriented_area, signed_perimeter
from polyslope.randomgen import trial_rng
from polyslope.slope_space import build_chart, polygon_from_radii
from polyslope.tangential import hessian_det_identity, tangential_critical_points
from polyslope.tolerances import DEFAULT_TOL

from families import near_exceptional_system


@pytest.fixture(scope="module")
def near_locus():
    rng = np.random.default_rng(41)
    return [near_exceptional_system(rng, int(rng.integers(4, 10)), 1e-9, 1e-6) for _ in range(40)]


def run_on(monkeypatch, check, chart):
    """``check`` run on ``chart``'s system in place of its random draw."""
    monkeypatch.setattr(sweeps, "random_slope_system", lambda rng, n: chart.system)
    return check(np.random.default_rng(0), (chart.n, chart.n), DEFAULT_TOL)


def test_determinant_passes_next_to_the_locus(monkeypatch, near_locus):
    # Every relabeling: a chart whose |p_1| is small against max|p| loses
    # that ratio too, which the bound's units alone do not cover.
    over_fixed_bound = 0
    for chart in (build_chart(c.system.rotated(k)) for c in near_locus for k in range(c.n)):
        assert run_on(monkeypatch, sweeps.check_hessian_determinant, chart) == []
        for point in tangential_critical_points(chart):
            lhs, rhs = hessian_det_identity(point)
            over_fixed_bound += abs(lhs - rhs) > 1e-9 * max(abs(lhs), abs(rhs))
    # The fixed relative bound 1e-9 that the roundoff bound replaced fails here.
    assert over_fixed_bound > 0


def test_tangential_area_and_perimeter_pass_next_to_the_locus(monkeypatch, near_locus):
    over_fixed_bound = 0
    for chart in near_locus:
        assert run_on(monkeypatch, sweeps.check_chart_identities, chart) == []
        for point in tangential_critical_points(chart):
            rebuilt = polygon_from_radii(chart, np.full(chart.n - 2, point.inradius))
            area_error = abs(oriented_area(rebuilt) - point.area)
            perimeter_error = abs(signed_perimeter(rebuilt, chart.system) / point.perimeter - 1.0)
            over_fixed_bound += max(area_error, perimeter_error) > 1e-10
    # The fixed bound 1e-10 that the roundoff bound replaced fails here.
    assert over_fixed_bound > 0


def perturbed_determinant(point):
    lhs, rhs = hessian_det_identity(point)
    return lhs, rhs * (1.0 + 1e-6)


def perturbed_points(field):
    def points(chart, tol):
        return tuple(
            dataclasses.replace(point, **{field: getattr(point, field) * (1.0 + 1e-6)})
            for point in tangential_critical_points(chart, tol)
        )

    return points


@pytest.mark.parametrize(
    "check_index, name, value, message",
    [
        (2, "hessian_det_identity", perturbed_determinant, "determinant identity off"),
        (5, "tangential_critical_points", perturbed_points("area"), "tangential area off"),
        (
            5,
            "tangential_critical_points",
            perturbed_points("perimeter"),
            "tangential perimeter off",
        ),
    ],
)
def test_perturbed_closed_form_fails(monkeypatch, check_index, name, value, message):
    # A closed form off by one part in a million fails every trial of the
    # check's own stream: the roundoff bounds stay below that on its draws.
    monkeypatch.setattr(sweeps, name, value)
    assert_fails_every_trial(check_index, message)


def assert_fails_every_trial(check_index, message):
    check = sweeps.CHECKS[check_index][1]
    for trial in range(20):
        failures = check(trial_rng(1, check_index, trial), (3, 12), DEFAULT_TOL)
        assert any(message in failure for failure in failures), (trial, failures)


OFF = 1.0 + 1e-6


def plant_on_triangles(monkeypatch, name):
    """sweeps.<name> off by one part in a million on the decomposition
    triangles alone: the stack that decomposition_polygons returned last."""
    made = []
    decompose, kernel = sweeps.decomposition_polygons, getattr(sweeps, name)

    def recorded(*args):
        made.append(decompose(*args))
        return made[-1]

    def planted(vertices, *args):
        value = kernel(vertices, *args)
        return value * OFF if made and vertices is made[-1] else value

    monkeypatch.setattr(sweeps, "decomposition_polygons", recorded)
    monkeypatch.setattr(sweeps, name, planted)


def plant_on_result(monkeypatch, name, perturb):
    original = getattr(sweeps, name)
    monkeypatch.setattr(sweeps, name, lambda *args: perturb(original(*args)))


def offset_incenters(chart, tol):
    # Each closed-form polygon moves with its incenter, by 1e-6 |r|.
    return tuple(
        dataclasses.replace(point, incenter=point.incenter * OFF)
        for point in tangential_critical_points(chart, tol)
    )


# Each comparison of the chart-identity check, by its message, and a planted
# defect of one part in a million on one side of it.
PLANTED = {
    "area additivity off": lambda m: plant_on_triangles(m, "oriented_areas"),
    "perimeter additivity off": lambda m: plant_on_triangles(m, "signed_perimeters"),
    "radii roundtrip off": lambda m: plant_on_result(m, "radii_of_polygon", lambda r: r * OFF),
    "coordinate quadratic form off": lambda m: plant_on_result(
        m, "normalized_coordinates", lambda c: dataclasses.replace(c, x=c.x * OFF)
    ),
    "tangential vertices off": lambda m: m.setattr(
        sweeps, "tangential_critical_points", offset_incenters
    ),
}


@pytest.mark.parametrize("message", list(PLANTED))
def test_planted_chart_identity_defect_fails(monkeypatch, message):
    # Every comparison of the stacked chart-identity check still fails each
    # trial of its stream when one side is off by one part in a million.
    PLANTED[message](monkeypatch)
    assert_fails_every_trial(5, message)
