"""Tests of the benchmark's oracles, checks, inputs and tracer, on fixed seeds.

    PYTHONPATH=src python3 -m pytest -q perfbench

The oracles never call polyslope; these tests compare them with it.
"""

import copy
import math

import numpy as np
import polyslope.report
import pytest

import checks
import inputs
import oracles
import tracer
import workloads
from polyslope import SlopeSystem, build_chart, morse_index_eigen, tangential_critical_points
from polyslope.errors import DegenerateHessian
from polyslope.report import cyclic_report, family_report, slopes_report


def _systems(count, seed=7):
    rng = np.random.default_rng(seed)
    for i in range(count):
        yield inputs.draw_slopes(rng, 4 + i % 11)


def test_unit_perimeters_match_build_chart():
    worst = 0.0
    for angles in _systems(400):
        chart = build_chart(SlopeSystem.from_degrees(angles))
        p = oracles.unit_perimeters(np.radians(angles))
        worst = max(worst, float(np.max(np.abs(p - chart.unit_perimeters)) / np.sum(np.abs(p))))
        assert oracles.half_turns(np.radians(angles)) == chart.half_turns
    assert worst < 1e-12


def test_inertia_index_matches_eigenvalue_count():
    compared = 0
    for angles in _systems(200, seed=8):
        p = oracles.unit_perimeters(np.radians(angles))
        for point in tangential_critical_points(SlopeSystem.from_degrees(angles)):
            try:
                report = morse_index_eigen(point)
            except DegenerateHessian:
                continue
            compared += 1
            assert report.index_eigen == oracles.inertia_index(p, 1 if point.inradius > 0 else -1)
    assert compared >= 390


def test_cyclic_oracle_routes_agree_with_the_program():
    rng = np.random.default_rng(9)
    for n in list(range(4, 10)) * 10:
        data = inputs.draw_cyclic(rng, n)
        expected = oracles.cyclic_expected(data["radius"], np.radians(data["phis_deg"]))
        assert expected["mu_dual"] == expected["mu_dual_inertia"]
        report = cyclic_report(data["radius"], data["phis_deg"], tuple(data["center"]))
        assert checks.check_cyclic(report, data["radius"], data["phis_deg"]) == []


def test_family_root_lies_in_the_reported_bracket():
    rng = np.random.default_rng(10)
    family = inputs.draw_family(rng, 4, crossing=True)
    report = family_report(family["start"], family["end"], inputs.FAMILY_STEPS)
    assert len(report["sign_changes"]) == 1
    assert checks.check_family(report, family["start"], family["end"], inputs.FAMILY_STEPS) == []


def test_checks_reject_wrong_reports():
    angles = next(_systems(1, seed=11))
    report = slopes_report(angles)
    assert checks.check_slopes(report, angles) == []
    for mutate in (
        lambda r: r["critical"]["points"][0].__setitem__("index_eigen", 99),
        lambda r: r["chart"]["unit_perimeters"].__setitem__(0, r["chart"]["unit_perimeters"][0] * 1.001),
        lambda r: r["critical"]["points"][1].__setitem__("inradius", 1.0),
        lambda r: r["critical"]["points"][0]["vertices"][0].__setitem__(0, 5.0),
    ):
        wrong = copy.deepcopy(report)
        mutate(wrong)
        assert checks.check_slopes(wrong, angles) != []


def test_fault_inputs_fail():
    with pytest.raises(DegenerateHessian):
        slopes_report(inputs.FAULTS["F2"]["angles_deg"])
    with pytest.raises(ValueError):
        f1 = inputs.FAULTS["F1"]
        cyclic_report(f1["radius"], f1["phis_deg"])
    f3 = inputs.FAULTS["F3"]
    with pytest.raises(DegenerateHessian):
        family_report(f3["start"], f3["end"], inputs.FAMILY_STEPS)


def test_inputs_repeat_for_a_seed_and_pass_their_filters():
    assert workloads.ops_for("analyze", 5, 1) == workloads.ops_for("analyze", 5, 1)
    assert workloads.ops_for("analyze", 5, 1) != workloads.ops_for("analyze", 6, 1)
    for op in workloads.ops_for("analyze", 5, 1):
        if op["kind"] == "slopes" and op["label"] not in inputs.FAULTS:
            ratio, margin = oracles.conditioning(np.radians(op["angles_deg"]))
            assert ratio <= inputs.MAX_RATIO and margin >= inputs.MIN_EXCEPTIONAL_MARGIN
            gap = oracles.min_line_gap(np.radians(op["angles_deg"]))
            assert gap >= math.radians(inputs.MIN_GAP_DEG)


def test_self_time_subtracts_direct_children():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.5, 1, 0],
        ["b", 5.0, 6.0, 0, 0],
        ["a", 20.0, 21.0, -1, 1],
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0, 1.0])


def test_traced_counts_repeat_and_self_times_add_up():
    angles = [0.0, 70.0, 150.0, 200.0, 260.0, 310.0]
    counts = []
    for _ in range(2):
        trace = tracer.Tracer()
        uninstall = tracer.install(trace)
        try:
            trace.op = 0
            polyslope.report.slopes_report(angles)
        finally:
            uninstall()
        metrics = tracer.layer_metrics(trace.spans, 1)
        counts.append({k: v for k, v in metrics.items() if k.endswith("calls_per_op")})
        roots = [s for s in trace.spans if s[tracer.PARENT] < 0]
        assert [s[tracer.NAME] for s in roots] == ["report.slopes_report"]
        total = roots[0][tracer.END] - roots[0][tracer.START]
        assert sum(tracer.self_times(trace.spans)) == pytest.approx(total)
    assert counts[0] == counts[1]
    assert counts[0]["report.slopes_report.calls_per_op"] == 1

