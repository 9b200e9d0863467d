"""The family report against its one-row-at-a-time reference.

``family_report`` charts its rows as one angle stack
(``slope_space.chart_stack``) and brackets each sign change of sum p
between two valid rows on the turn sum T = sum tan(tau_i / 2) alone, which
is half of sum p: each bisection round proposes where T changes sign (a
pole, or a Newton root), evaluates T at the midpoints of the halvings that
proposal gives with one stacked turn sum, and takes them up to the first
that T decides otherwise.  A bracket whose ends straddle a pole, where a
turn tangent changes sign through infinity, is dropped.
``families.sequential_family_report`` is the plain route: one
``SlopeSystem`` and one ``build_chart`` per row, and one turn sum per
midpoint.  Both must give the same JSON, byte for byte, on families that
reach every branch: random families, poles, invalid rows at grid points,
parallel lines at midpoints, scaled tolerances, two steps, crossings
shaped like the benchmark's, and roots on a grid row or one float beside
it.  They must still do so when the proposal is wrong, in more stacks.
Every sign change of the charted rows is a bracket or a pole, which a
planted rule that reads parallel lines at a midpoint as a pole breaks;
no bracket takes more stacks than the midpoint trees of earlier rounds.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from polyslope import SlopeSystem, build_chart, report
from polyslope.errors import InputSchemaError, NonIntegralTurn, ParallelLines, PolyslopeError
from polyslope.geometry import EPS, TWO_PI, turn_tangents
from polyslope.report import family_report
from polyslope.slope_space import chart_stack
from polyslope.tolerances import DEFAULT_TOL

import families as reference
from test_geometry import (
    reference_consecutive_check,
    reference_pairwise_check,
    reference_turn_counts,
    reference_turning_sum,
)
from families import (
    BENCH_CROSSING,
    BENCH_F3,
    FAMILY_END,
    FAMILY_START,
    interpolated,
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
# The families compared at every step count and tolerance scale.
FIXED = [(FAMILY_START, FAMILY_END), BENCH_F3, BENCH_CROSSING, POLE, *PARALLEL_ROWS, *EXTREME]


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


def benchmark_crossings(rng, count):
    """Families shaped like the benchmark's crossings: one slope of n = 4..9
    moved 5 to 60 degrees either way, 11 valid rows, and one sign change of
    sum p between them, where every p_i keeps its sign (a root, not a pole)."""
    while count:
        n = int(rng.integers(4, 10))
        start = rng.uniform(0.0, 360.0, n).tolist()
        end = list(start)
        k = int(rng.integers(0, n))
        end[k] += float(rng.uniform(5.0, 60.0)) * float(rng.choice([-1.0, 1.0]))
        try:
            charts = [
                build_chart(SlopeSystem.from_degrees(interpolated(start, end, i / 10)))
                for i in range(11)
            ]
        except PolyslopeError:
            continue
        changes = [
            np.array_equal(a.unit_perimeters > 0, b.unit_perimeters > 0)
            for a, b in zip(charts, charts[1:])
            if a.perimeter_sum * b.perimeter_sum < 0.0
        ]
        if changes == [True]:
            count -= 1
            yield start, end


def moved(angles, k, angle):
    angles = list(angles)
    angles[k] = angle
    return angles


def sign_change_degrees(start, end, k):
    """The two adjacent floats between start[k] and end[k] across which sum p
    changes sign as slope k moves alone."""
    def total(angle):
        return build_chart(SlopeSystem.from_degrees(moved(start, k, angle))).perimeter_sum

    lo, hi = start[k], end[k]
    flo = total(lo)
    while lo < 0.5 * (lo + hi) < hi or hi < 0.5 * (lo + hi) < lo:
        mid = 0.5 * (lo + hi)
        fmid = total(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return lo, hi


def root_families():
    """Families with a root of sum p at a grid row, from the three crossings
    above with their moved slope k on a float next to the root or one float
    further out: as an end, as the row t = 1/2, and as the end opposite a
    system with slope k 1e-6 degrees off parallel to another, whose |sum p|
    is about 1e8.  Next to such a root the turn sum and the chart's sum p
    can differ in sign."""
    for start, end in ((FAMILY_START, FAMILY_END), BENCH_F3, BENCH_CROSSING):
        k = next(i for i, (a, b) in enumerate(zip(start, end)) if a != b)
        below, above = sign_change_degrees(start, end, k)
        outward = math.copysign(math.inf, above - below)
        beside = (math.nextafter(below, -outward), below, above, math.nextafter(above, outward))
        for angle in beside:
            at_root = moved(start, k, angle)
            yield start, at_root
            yield at_root, end
            for half_width in (1.0, 0.25):
                low, high = angle - half_width, angle + half_width
                if 0.5 * low + 0.5 * high == angle:  # the row t = 1/2 holds angle exactly
                    yield moved(start, k, low), moved(start, k, high)
            for j in range(len(start)):
                if j != k:
                    near_pole = moved(start, k, start[j] + 180.0 + 1e-6)
                    yield near_pole, at_root
                    yield at_root, near_pole


def families():
    """(start, end, steps, tolerance scale) of every family compared."""
    for start, end in FIXED:
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
    for start, end in benchmark_crossings(rng, 100):
        yield start, end, 11, 1.0
    for start, end in root_families():
        for steps in (2, 3):
            yield start, end, steps, 1.0


def counted_reports(families):
    """For each family: the outcome of each route, the stacked turn sums
    (``_perimeter_sums`` calls) of each bracket of family_report, and the
    midpoints the plain bisection evaluates for each bracket; both routes
    bracket the same rows in order."""
    stacks, rounds, halvings, results = [0], [], [], []
    sums, bracket, sequential = report._perimeter_sums, report._bracket, reference.sequential_bracket

    def counted_sums(*args):
        stacks[0] += 1
        return sums(*args)

    def counted_bracket(*args):
        before = stacks[0]
        result = bracket(*args)
        rounds.append(stacks[0] - before)
        return result

    def counted_sequential(*args):
        result, count = sequential(*args)
        halvings.append(count)
        return result, count

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_perimeter_sums", counted_sums)
        patch.setattr(report, "_bracket", counted_bracket)
        patch.setattr(reference, "sequential_bracket", counted_sequential)
        for start, end, steps, scale in families:
            tol = tolerances(scale)
            first = len(rounds), len(halvings)
            expected = outcome(sequential_family_report, start, end, steps, tol)
            actual = outcome(family_report, start, end, steps, tol)
            results.append(
                ((start, end, steps), expected, actual, rounds[first[0]:], halvings[first[1]:])
            )
    return results


@pytest.fixture(scope="module")
def compared():
    return counted_reports(families())


def test_reports_equal_the_sequential_reference(compared):
    assert len(compared) >= 1000
    brackets = poles = invalid = 0
    for case, expected, actual, _, _ in compared:
        assert actual == expected, case
        if not expected.startswith("{"):
            continue
        rows = json.loads(expected)["rows"]
        changes = sum(
            a["status"] == b["status"] == "ok" and a["perimeter_sum"] * b["perimeter_sum"] < 0
            for a, b in zip(rows, rows[1:])
        )
        sign_changes = len(json.loads(expected)["sign_changes"])
        brackets += sign_changes
        poles += changes - sign_changes
        invalid += sum(row["status"] == "invalid" for row in rows)
    # Every branch is reached: roots, poles and invalid rows (816, 852 and
    # 289 when written).
    assert brackets >= 300 and poles >= 300 and invalid >= 100


# The depth of the midpoint trees that bisection rounds once charted: a
# bracket whose plain bisection evaluates h midpoints took ceil(h / 5)
# chart stacks with the trees alone.
TREE_DEPTH = 5


def test_no_bracket_charts_more_stacks_than_its_midpoint_trees(compared):
    # A round evaluates the halvings that its proposal gives, down to the
    # bracket width, as one stacked turn sum, so a bracket takes one stack
    # per halving that the turn sum decides against a proposal, plus one.
    # When written, 1,514 brackets took one stack, 130 two and 8 three,
    # 2,066 in all, where the midpoint trees took 13,344.  The unreduced
    # turns of the family at 1.7e308 degrees carry no proposal: its 16
    # brackets took 13 to 20 stacks each, still one halving at least per
    # stack.
    used = bound = 0
    for case, _, _, rounds, halvings in compared:
        assert len(rounds) == len(halvings), case
        huge = case[0] == EXTREME[1][0]
        for taken, count in zip(rounds, halvings):
            assert 1 <= taken <= (count if huge else min(3, math.ceil(count / TREE_DEPTH))), case
            used += taken
            bound += math.ceil(count / TREE_DEPTH)
    assert used < 0.2 * bound and used <= 2100


def proposing(where):
    """A ``_proposed_root`` that proposes ``where(lo, hi)``."""
    return lambda start, end, lo, hi, flo, fhi: where(lo, hi)


def negated(start, end, t, turn_tangents=report._turn_tangents):
    return [-x for x in turn_tangents(start, end, t)]


RANDOM_ROOTS = np.random.default_rng(5)
# Wrong proposals: a wrong root, or Newton steps on a wrong turn sum.
WRONG = {
    "root at lo": {"_proposed_root": proposing(lambda lo, hi: lo)},
    "root at hi": {"_proposed_root": proposing(lambda lo, hi: hi)},
    "root NaN": {"_proposed_root": proposing(lambda lo, hi: math.nan)},
    "random root": {"_proposed_root": proposing(lambda lo, hi: RANDOM_ROOTS.uniform(lo, hi))},
    "negated": {"_turn_tangents": negated},
    "zero": {"_turn_tangents": lambda start, end, t: [0.0] * len(start)},
    "nan": {"_turn_tangents": lambda start, end, t: [math.nan] * len(start)},
}


@pytest.mark.parametrize("name", WRONG)
def test_the_turn_sum_only_picks_the_rows_charted(monkeypatch, name):
    # The proposal only picks the midpoints that one stacked turn sum
    # evaluates; the turn sum decides every halving.  A wrong proposal
    # gives the same reports, byte for byte, in more stacks.
    cases = [(start, end, steps, 1.0) for start, end in FIXED for steps in (2, 3, 11, 21)]
    right = counted_reports(cases)
    for attribute, value in WRONG[name].items():
        monkeypatch.setattr(report, attribute, value)
    wrong = counted_reports(cases)
    used = mispredicted = 0
    for (case, expected, actual, rounds, _), (_, _, again, more, _) in zip(right, wrong):
        assert actual == again == expected, case
        used += sum(rounds)
        mispredicted += sum(more)
    assert mispredicted > used > 0


def turn_sum_cases(name):
    """(start, end, t): 400 random families at a random t, or one of the
    EXTREME families at 21 steps."""
    if name == "random":
        rng = np.random.default_rng(29)
        for _ in range(400):
            n = int(rng.integers(3, 13))
            start, end = rng.uniform(0.0, 360.0, (2, n)).tolist()
            yield start, end, float(rng.uniform())
    else:
        start, end = EXTREME[name == "huge"]
        for i in range(21):
            yield start, end, i / 20


# |2 T - sum p| / (eps sum|p|) on these cases: 228 at most on the random
# families and 446 on the tiny one when written, from angle differences
# next to a pole of the tangent.
TURN_SUM_EPS = 2048


@pytest.mark.parametrize("name", ["random", "tiny", "huge"])
def test_twice_the_turn_sum_is_the_perimeter_sum(name):
    # At 1.7e308 degrees a difference of unreduced radians loses the other
    # angle entirely (near 1e16 eps sum|p| when written), so each angle is
    # reduced before differencing.
    checked = cases = 0
    for start, end, t in turn_sum_cases(name):
        cases += 1
        try:
            chart = build_chart(SlopeSystem.from_degrees(interpolated(start, end, t)))
        except PolyslopeError:
            continue
        bound = TURN_SUM_EPS * np.finfo(float).eps * np.abs(chart.unit_perimeters).sum()
        assert abs(2.0 * sum(report._turn_tangents(start, end, t)) - chart.perimeter_sum) <= bound
        # The check's stacked turn sum, on the rows the chart reads.
        stacked = turn_tangents(report._family_angles(start, end, [t])[1]).sum(axis=-1)
        assert abs(2.0 * float(stacked[0]) - chart.perimeter_sum) <= bound
        checked += 1
    assert checked >= 0.9 * cases


@pytest.mark.parametrize("name", ["tiny", "huge"])
def test_the_turn_sum_reads_the_angles_as_charted(name):
    # -1e-300 degrees reduces to 2 pi in floats; the chart stores it as 0.0,
    # so must the turn sum.
    for start, end, t in turn_sum_cases(name):
        angles = report._family_angles(start, end, [t])[1][0].tolist()
        turns = zip(angles, angles[1:] + angles[:1])
        assert report._turn_tangents(start, end, t) == [math.tan(0.5 * (b - a)) for a, b in turns]


def antiparallel_between(start, end, lo, hi):
    """Whether two consecutive lines of the family turn antiparallel at some
    t in [lo, hi]: a turn, linear in t, at an odd multiple of 180 degrees,
    in closed form on the unreduced degrees (which find one in every
    interval where the degrees are too large to carry a turn)."""
    ends = [interpolated(start, end, t) for t in (lo, hi)]
    turns = [[b - a for a, b in zip(angles, angles[1:] + angles[:1])] for angles in ends]
    return any(
        math.floor((a - 180.0) / 360.0) != math.floor((b - 180.0) / 360.0)
        or (a - 180.0) % 360.0 == 0.0
        for a, b in zip(*turns)
    )


def unaccounted(start, end, family):
    """The row pairs of a family report whose charted sums change sign with
    no bracket between them and no antiparallel turn, and those with more
    than one bracket."""
    rows, brackets = family["rows"], family["sign_changes"]
    missing, pairs = [], 0
    for a, b in zip(rows, rows[1:]):
        if not a["status"] == b["status"] == "ok":
            continue
        pa, pb = a["perimeter_sum"], b["perimeter_sum"]
        if pa == 0.0 or pa * pb >= 0.0:
            continue
        pairs += 1
        inside = [x for x in brackets if a["t"] <= x["t_low"] < x["t_high"] <= b["t"]]
        if len(inside) > 1 or not inside and not antiparallel_between(start, end, a["t"], b["t"]):
            missing.append((a["t"], b["t"]))
    assert len(brackets) <= pairs
    return missing


def test_every_sign_change_is_a_root_or_a_pole(compared):
    # Every row pair whose charted sums change sign gets one bracket, or
    # its interval holds a turn through an odd multiple of 180 degrees, a
    # pole of the turn sum, where the bisection ends.
    dropped = 0
    for (start, end, _), expected, _, _, _ in compared:
        if expected.startswith("{"):
            family = json.loads(expected)
            assert unaccounted(start, end, family) == [], (start, end)
            dropped += sum(
                a["status"] == b["status"] == "ok" and a["perimeter_sum"] * b["perimeter_sum"] < 0
                for a, b in zip(family["rows"], family["rows"][1:])
            ) - len(family["sign_changes"])
    assert dropped >= 300


def parallel_midpoint_is_a_pole(monkeypatch):
    """Plant the rule that parallel lines at a midpoint of the bisection end
    it at a pole: a bracket whose path meets a row that the chart rejects
    becomes None."""
    bracket = report._bracket

    def planted(start, end, lo, hi, flo, fhi):
        found = bracket(start, end, lo, hi, flo, fhi)
        mids = []
        while found is not None and hi - lo > report.BRACKET_WIDTH:
            mids.append(0.5 * (lo + hi))
            lo, hi = (lo, mids[-1]) if found["t_high"] <= mids[-1] else (mids[-1], hi)
        if mids and not chart_stack(report._family_angles(start, end, mids)[1]).ok.all():
            return None
        return found

    monkeypatch.setattr(report, "_bracket", planted)


# Lines 1 and 5 of this family are parallel at t = 0.875 (both at 6.25
# degrees mod 180), not consecutive: the chart rejects that system, but the
# turn sum is finite there.  Its root lies near t = 0.9362713.
PAST_PARALLEL = (
    [285.0, 55.0, 315.0, 95.0, 335.0, 335.0],
    [55.0, 205.0, 240.0, 130.0, 80.0, 165.0],
)


def exact_turn_sum(start, end, t):
    """T at t, with the degrees interpolated and the tangents taken at 60
    digits."""
    with mpmath.workdps(60):
        t = mpmath.mpf(t)
        angles = [mpmath.radians((1 - t) * a + t * b) for a, b in zip(start, end)]
        return sum(mpmath.tan((b - a) / 2) for a, b in zip(angles, angles[1:] + angles[:1]))


def test_a_root_past_non_consecutive_parallel_lines_is_bracketed():
    start, end = PAST_PARALLEL
    assert not chart_stack(report._family_angles(start, end, [0.875])[1]).ok[0]
    [bracket] = family_report(start, end, 3)["sign_changes"]
    lo, hi = bracket["t_low"], bracket["t_high"]
    assert 0.0 < hi - lo <= 1e-12 and abs(lo - 0.9362713) < 1e-7
    assert exact_turn_sum(start, end, lo) < 0 < exact_turn_sum(start, end, hi)
    # t_low is a midpoint: perimeter_sum_low is 2 T there.
    low = bracket["perimeter_sum_low"]
    assert low < 0 and abs(2.0 * exact_turn_sum(start, end, lo) - low) <= 1e-12


def test_a_parallel_midpoint_read_as_a_pole_fails_the_accounting(monkeypatch, compared):
    # With the planted rule the family above loses its root, and so do 124
    # of the families compared (when written).
    parallel_midpoint_is_a_pole(monkeypatch)
    start, end = PAST_PARALLEL
    assert unaccounted(start, end, family_report(start, end, 3)) == [(0.5, 1.0)]
    lost = 0
    for (start, end, steps), expected, _, _, _ in compared:
        if expected.startswith("{"):
            lost += bool(unaccounted(start, end, family_report(start, end, steps)))
    assert lost >= 100


def test_poles_are_not_bracketed():
    start, end = POLE
    report = family_report(start, end, 11)
    sums = [row["perimeter_sum"] for row in report["rows"]]
    assert sums[0] > 0 > sums[1] and report["sign_changes"] == []


def test_unequal_endpoints_are_an_input_error():
    # The library call says what the command line says, not a numpy error.
    with pytest.raises(InputSchemaError, match="differ in length"):
        family_report([0.0, 100.0, 200.0], [0.0, 100.0], 3)


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


def reference_chart_error(angles, perimeters, tol):
    """The type and text of the error of the first chart rule a row breaks,
    or None: the plain float loops of test_geometry, then a plain count of
    the positive p_i."""
    try:
        reference_consecutive_check(angles)
        reference_pairwise_check(angles, tol)
        _, k = reference_turning_sum(angles, tol)
    except (ParallelLines, NonIntegralTurn) as exc:
        return type(exc).__name__, str(exc)
    positive = 0
    for p in perimeters:
        positive += p > 0.0
    if positive != k - 1:
        return "SignatureMismatch", f"{positive} positive unit perimeters, expected {k - 1}"
    return None


def outcome_text(require, *args, **kwargs):
    """None, or the type and text of the error that ``require`` raises."""
    try:
        require(*args, **kwargs)
    except PolyslopeError as exc:
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("scale", SCALES)
def test_stack_rows_agree_with_build_chart(scale):
    # Each row's decision and error against the plain loops; each accepted
    # row's chart data, bit for bit, against its chart and the loops.
    tol = tolerances(scale)
    rng = np.random.default_rng(SCALES.index(scale))
    rejected = 0
    for n in range(3, 13):
        stack = planted_stack(rng, n, 60)
        result = chart_stack(stack, tol)
        for i, (row, flag) in enumerate(zip(stack.tolist(), result.ok)):
            expected = reference_chart_error(row, result.unit_perimeters[i].tolist(), tol)
            assert outcome_text(result.require, row=i) == expected
            try:
                chart = build_chart(SlopeSystem.from_angles(row), tol)
            except PolyslopeError as exc:
                assert (type(exc).__name__, str(exc)) == expected
                assert not flag
                rejected += 1
                continue
            assert flag and expected is None
            assert np.array_equal(result.unit_perimeters[i], chart.unit_perimeters)
            assert result.perimeter_sums[i] == chart.perimeter_sum
            # k and the right turns exactly; the angle sum k pi within the
            # roundoff of the reference's float sum of the line turns.
            total, k = reference_turning_sum(row, tol)
            right, _ = reference_turn_counts(row)
            assert result.half_turns[i] == chart.half_turns == k
            assert result.right_turns[i] == chart.right_turns == right
            assert abs(chart.angle_sum - total) <= 16.0 * n * EPS * max(1, k) * math.pi
    assert rejected >= 100
