"""The family report against its one-row-at-a-time reference.

``family_report`` charts its rows and bisection midpoints as angle stacks
(``slope_space.chart_stack``) and walks speculative bisection trees.
``families.sequential_family_report`` is the route it replaced: one
``SlopeSystem`` and one ``build_chart`` per row and per midpoint.  Both must
give the same JSON, byte for byte, on families that reach every branch:
random families, poles, invalid rows at grid points, scaled tolerances,
two steps and the benchmark's crossings.
"""

import json
import math

import numpy as np
import pytest

from polyslope import SlopeSystem, build_chart
from polyslope.errors import PolyslopeError
from polyslope.geometry import TWO_PI
from polyslope.report import family_report
from polyslope.slope_space import chart_stack
from polyslope.tolerances import DEFAULT_TOL

from families import (
    BENCH_CROSSING,
    BENCH_F3,
    FAMILY_END,
    FAMILY_START,
    sequential_family_report,
)

# The third slope turns parallel to the second near t = 2/21: a pole of sum p.
POLE = ([264.0, 211.0, 29.0, 22.0], [264.0, 211.0, 50.0, 22.0])
# At t = 1/2 slope 2 turns parallel to slope 0, a non-consecutive pair in
# the first family and a consecutive one in the second: invalid grid rows.
PARALLEL_ROWS = [
    ([0.0, 100.0, 170.0, 250.0], [0.0, 100.0, 190.0, 250.0]),
    ([0.0, 100.0, 170.0], [0.0, 100.0, 190.0]),
]
# Angles at the ends of the float range: a reduction that rounds up to
# 2 pi, and interpolation next to overflow.
EXTREME = [
    ([-1e-300, 0.0, 100.0], [-1e-20, 10.0, 200.0]),
    ([1.7e308, 0.0, 100.0], [1.7976931348623157e308, 10.0, 200.0]),
]
SCALES = (1.0, 1e-3, 1e3, 1e6)


def tolerances(scale):
    return DEFAULT_TOL if scale == 1.0 else DEFAULT_TOL.scaled(scale)


def outcome(make, start, end, steps, tol):
    """The report's JSON, or the type and message of the error it raises."""
    try:
        return json.dumps(make(start, end, steps, tol))
    except Exception as exc:  # both routes must fail alike
        return f"{type(exc).__name__}: {exc}"


def one_angle_family(rng, n):
    """A random system with one slope moved by up to 60 degrees."""
    start = rng.uniform(0.0, 360.0, n).tolist()
    end = list(start)
    k = int(rng.integers(0, n))
    end[k] = start[k] + float(rng.uniform(-60.0, 60.0))
    return start, end


def families():
    """(start, end, steps, tolerance scale) of every family compared."""
    fixed = [(FAMILY_START, FAMILY_END), BENCH_F3, BENCH_CROSSING, POLE, *PARALLEL_ROWS, *EXTREME]
    for start, end in fixed:
        for steps in (2, 3, 11, 21):
            for scale in SCALES:
                yield start, end, steps, scale
    rng = np.random.default_rng(16)
    for i in range(700):
        n = int(rng.integers(3, 11))
        if i % 2:
            start, end = one_angle_family(rng, n)
        else:
            start, end = rng.uniform(0.0, 360.0, (2, n)).tolist()
        yield start, end, int(rng.choice([2, 3, 5, 11, 17])), float(rng.choice(SCALES))
    # Endpoints and steps on a 5 degree lattice put lines exactly parallel
    # on grid rows.
    for _ in range(300):
        n = int(rng.integers(3, 8))
        start, end = (5.0 * rng.integers(0, 72, (2, n))).tolist()
        yield start, end, int(rng.choice([3, 5, 9])), 1.0


def test_reports_equal_the_sequential_reference():
    cases = list(families())
    assert len(cases) >= 1000
    brackets = poles = invalid = 0
    for start, end, steps, scale in cases:
        tol = tolerances(scale)
        expected = outcome(sequential_family_report, start, end, steps, tol)
        assert outcome(family_report, start, end, steps, tol) == expected, (start, end, steps)
        if not expected.startswith("{"):
            continue
        report = json.loads(expected)
        rows = report["rows"]
        changes = sum(
            a["status"] == b["status"] == "ok" and a["perimeter_sum"] * b["perimeter_sum"] < 0
            for a, b in zip(rows, rows[1:])
        )
        brackets += len(report["sign_changes"])
        poles += changes - len(report["sign_changes"])
        invalid += sum(row["status"] == "invalid" for row in rows)
    # Every branch is reached: roots, poles broken off at parallel
    # midpoints, and invalid rows (448, 932 and 289 when written).
    assert brackets >= 300 and poles >= 300 and invalid >= 100


def test_poles_are_not_bracketed():
    start, end = POLE
    report = family_report(start, end, 11)
    sums = [row["perimeter_sum"] for row in report["rows"]]
    assert sums[0] > 0 > sums[1] and report["sign_changes"] == []


def planted_stack(rng, n, m):
    """m rows of n random angles, reduced as SlopeSystem stores them; in
    every third row one pair, consecutive or not, is parallel, closer than
    the parallel tolerance, or just outside it."""
    angles = rng.uniform(0.0, TWO_PI, (m, n))
    for row in range(0, m, 3):
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        offset = float(rng.choice([0.0, math.pi, 0.5e-9, 2e-9, math.pi - 0.5e-9]))
        angles[row, j] = angles[row, i] + offset
    angles %= TWO_PI
    angles[angles == TWO_PI] = 0.0
    return angles


@pytest.mark.parametrize("scale", SCALES)
def test_stack_rows_agree_with_build_chart(scale):
    tol = tolerances(scale)
    rng = np.random.default_rng(SCALES.index(scale))
    rejected = 0
    for n in range(3, 13):
        stack = planted_stack(rng, n, 60)
        perimeters, sums, ok = chart_stack(stack, tol)
        for row, flag, p, total in zip(stack, ok, perimeters, sums):
            try:
                chart = build_chart(SlopeSystem.from_angles(row), tol)
            except PolyslopeError:
                assert not flag
                rejected += 1
                continue
            assert flag
            assert np.array_equal(p, chart.unit_perimeters)
            assert total == chart.perimeter_sum
    assert rejected >= 100
