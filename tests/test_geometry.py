"""Tests for the planar primitives."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyslope import (
    DEFAULT_TOL,
    NonIntegralTurn,
    ParallelLines,
    PointOnBoundary,
    PolygonChain,
    SlopeMismatch,
    SlopeSystem,
    build_chart,
    index_pair,
    oriented_area,
    signed_perimeter,
    tangential_critical_points,
    turning_sum,
    winding_number,
)
from polyslope import geometry
from polyslope.geometry import (
    area_form,
    diameters,
    edge_lengths_along,
    edges_against_slopes,
    edge_offsets,
    integral_ratio,
    left_normal,
    line_gap,
    line_vertices,
    oriented_areas,
    polygon_from_lines,
    polygon_measures,
    signed_perimeters,
    tangential_polygons,
    winding_numbers,
)
from polyslope.slope_space import LINES, chart_stack, turning_rule
from polyslope.tangential import well_conditioned_chart

EPS = float(np.finfo(float).eps)

UNIT_SQUARE = PolygonChain(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))


@st.composite
def polygon_strategy(draw, max_n=8):
    # Vertices on a jittered circle: consecutive distinctness is structural.
    n = draw(st.integers(min_value=3, max_value=max_n))
    radii = [draw(st.floats(min_value=0.5, max_value=2.0)) for _ in range(n)]
    jitter = [draw(st.floats(min_value=-0.3, max_value=0.3)) for _ in range(n)]
    angles = [2 * math.pi * k / n + jitter[k] for k in range(n)]
    verts = np.array(
        [[r * math.cos(a), r * math.sin(a)] for r, a in zip(radii, angles)]
    )
    return PolygonChain(verts)


class TestOrientedArea:
    def test_unit_square(self):
        assert oriented_area(UNIT_SQUARE) == pytest.approx(1.0)

    def test_reversed_square(self):
        assert oriented_area(PolygonChain(UNIT_SQUARE.vertices[::-1])) == pytest.approx(-1.0)

    def test_bowtie_cancels(self):
        bowtie = PolygonChain(np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
        assert oriented_area(bowtie) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(polygon_strategy(), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))
    def test_translation_invariance(self, polygon, dx, dy):
        # Shoelace roundoff scales with the squared coordinate magnitude.
        scale = max(1.0, polygon.diameter, abs(dx), abs(dy)) ** 2
        moved = PolygonChain(polygon.vertices + [dx, dy])
        assert abs(oriented_area(moved) - oriented_area(polygon)) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(polygon_strategy())
    def test_reversal_negates(self, polygon):
        scale = max(1.0, polygon.diameter) ** 2
        total = oriented_area(polygon) + oriented_area(PolygonChain(polygon.vertices[::-1]))
        assert abs(total) <= 1e-12 * scale

    @settings(max_examples=60, deadline=None)
    @given(polygon_strategy())
    def test_area_form_of_edge_lengths(self, polygon):
        # Each edge along its own direction: l_i is its length, and the area
        # form of the edge lengths is the shoelace area.
        angles = polygon.edge_angles
        lengths = edge_lengths_along(polygon.vertices, angles)
        assert np.allclose(lengths, polygon.edge_lengths, rtol=1e-12, atol=0.0)
        form = area_form(angles)
        assert np.array_equal(form, form.T) and not form.diagonal().any()
        scale = max(1.0, polygon.diameter) ** 2
        assert abs(0.5 * lengths @ form @ lengths - oriented_area(polygon)) <= 1e-12 * scale


class TestWindingNumber:
    def test_square_center(self):
        assert winding_number(UNIT_SQUARE, [0.5, 0.5]) == 1

    def test_far_point(self):
        assert winding_number(UNIT_SQUARE, [10.0, 10.0]) == 0

    def test_double_traversal(self):
        doubled = PolygonChain(np.vstack([UNIT_SQUARE.vertices, UNIT_SQUARE.vertices]))
        assert winding_number(doubled, [0.5, 0.5]) == 2

    def test_point_on_edge_rejected(self):
        with pytest.raises(PointOnBoundary):
            winding_number(UNIT_SQUARE, [0.5, 0.0])

    def test_simple_ccw_polygon_interior(self):
        hexagon = PolygonChain(
            np.array(
                [[math.cos(2 * math.pi * k / 6), math.sin(2 * math.pi * k / 6)] for k in range(6)]
            )
        )
        assert winding_number(hexagon, [0.05, -0.1]) == 1


class TestTurning:
    def test_three_sixty_degree_steps(self):
        # Two left turns of 60 degrees, then a right turn of 120.
        t, k, right = turning_sum(SlopeSystem.from_degrees([0, 60, 120]))
        assert t == pytest.approx(math.pi)
        assert (k, right) == (1, 1)

    def test_three_onetwenty_degree_steps(self):
        t, k, right = turning_sum(SlopeSystem.from_degrees([0, 120, 60]))
        assert t == pytest.approx(2 * math.pi)
        assert (k, right) == (2, 2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
    def test_range_of_turning_multiple(self, n):
        rng = np.random.default_rng(n)
        from polyslope.randomgen import random_slope_system

        for _ in range(20):
            system = random_slope_system(rng, n)
            total, k, _ = turning_sum(system)
            assert 1 <= k <= n - 1
            # The integral rule keeps the sum and breaks it moved by 1e-12 pi.
            assert not integral_ratio(total / math.pi, n)[1]
            assert integral_ratio((total + 1e-12 * math.pi) / math.pi, n)[1]

    def test_recursion(self):
        rng = np.random.default_rng(5)
        from polyslope.randomgen import random_slope_system

        for _ in range(50):
            n = int(rng.integers(4, 10))
            system = random_slope_system(rng, n)
            total, _, _ = turning_sum(system)
            head = SlopeSystem(system.angles[:-1])
            tail = SlopeSystem(system.angles[[0, -2, -1]])
            rhs = turning_sum(head)[0] + turning_sum(tail)[0] - math.pi
            assert total == pytest.approx(rhs, abs=1e-9)


class TestTurnCounts:
    # The square's opposite sides are parallel, so it has no chart; its
    # turn counts come from turning_sum alone.
    def test_quarter_turns_left(self):
        _, k, right = turning_sum(SlopeSystem.from_degrees([0, 90, 180, 270]))
        assert (k, right) == (2, 0)

    def test_quarter_turns_right(self):
        _, k, right = turning_sum(SlopeSystem.from_degrees([0, 270, 180, 90]))
        assert (k, right) == (2, 4)

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(17)
        from polyslope.randomgen import random_slope_system

        for _ in range(50):
            n = int(rng.integers(3, 12))
            chart = build_chart(random_slope_system(rng, n))
            assert chart.right_turns + chart.left_turns == n
            assert chart.half_turns == chart.right_turns + 2 * chart.winding


@st.composite
def angle_lists(draw):
    """n = 3..12 angles in radians from a drawn seed: uniform in (-7, 7), or
    within 10^U(-8, 0) degrees of one direction or of its opposite."""
    n = draw(st.integers(3, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.uniform(-7.0, 7.0, n).tolist()
    spread = math.radians(10.0 ** rng.uniform(-8.0, 0.0))
    opposite = math.pi * rng.integers(0, 2, n)
    offsets = opposite + spread * rng.uniform(-1.0, 1.0, n)
    return (rng.uniform(0.0, 2.0 * math.pi) + offsets).tolist()


def turning_property(rule):
    """The hypothesis test that ``rule``, on every drawn list that keeps the
    lines rule, gives the k and right turns of the plain float loops, with
    k in 1..n - 1 and k - RT even."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(angle_lists())
    def holds(angles):
        try:
            system = SlopeSystem.from_angles(angles)
        except ParallelLines:
            return
        if chart_stack(system.angles).broken[LINES]:
            return
        n = len(angles)
        k, right = (int(x) for x in rule(system.angles))
        assert k == reference_turning_sum(angles, DEFAULT_TOL)[1]
        assert right == reference_turn_counts(angles)[0]
        assert 1 <= k <= n - 1 and (k - right) % 2 == 0

    return holds


def floor_one_off(angles):
    """The turning rule with the first floor one more: k one less, and the
    parity of that floor flipped."""
    floors = (np.roll(angles, -1) - angles) // math.pi
    floors[0] += 1
    return -floors.sum(), np.count_nonzero(floors % 2)


class TestTurningRule:
    def test_floors_give_the_float_loops_k_and_right_turns(self):
        turning_property(turning_rule)()

    def test_a_floor_one_off_breaks_the_property(self):
        with pytest.raises(AssertionError):
            turning_property(floor_one_off)()

    def test_nan_angle_raises_value_error(self):
        # The finite rule; the command line rejects non-finite input first.
        system = SlopeSystem.from_angles([math.nan, 1.0, 2.0])
        for call in (
            lambda: build_chart(system),
            lambda: turning_sum(system),
            lambda: chart_stack(system.angles).require(),
        ):
            with pytest.raises(ValueError, match="^slope angles must be finite$"):
                call()


class TestSignedPerimeter:
    def setup_method(self):
        self.triangle = PolygonChain(
            np.array([[0.0, 0.0], [2.0, 0.0], [1.0, math.sqrt(3.0)]])
        )
        self.slopes = SlopeSystem.from_degrees([0, 120, 240])

    def test_codirected_gives_total_length(self):
        total = signed_perimeter(self.triangle, self.slopes)
        assert total == pytest.approx(6.0)

    def test_reversed_slopes_negate(self):
        flipped = SlopeSystem.from_degrees([180, 300, 420])
        assert signed_perimeter(self.triangle, flipped) == pytest.approx(-6.0)

    def test_point_reflection_negates(self):
        reflected = PolygonChain(-self.triangle.vertices)
        assert signed_perimeter(reflected, self.slopes) == pytest.approx(-6.0)

    def test_slope_mismatch_rejected(self):
        bad = SlopeSystem.from_degrees([10, 120, 240])
        with pytest.raises(SlopeMismatch):
            signed_perimeter(self.triangle, bad)


class TestConstruction:
    def test_slope_system_reduces_angles(self):
        system = SlopeSystem.from_angles([2 * math.pi + 0.5, -0.5, 2.0])
        assert system.angles[0] == pytest.approx(0.5)
        assert system.angles[1] == pytest.approx(2 * math.pi - 0.5)

    def test_consecutive_parallel_rejected(self):
        with pytest.raises(ParallelLines):
            SlopeSystem.from_degrees([0, 180, 90])

    def test_pairwise_check_catches_opposite_pairs(self):
        system = SlopeSystem.from_degrees([0, 90, 180, 270])
        with pytest.raises(ParallelLines):
            system.require_pairwise_nonparallel()

    def test_repeated_vertex_measures_as_without_it(self):
        # A zero edge lies along any slope: repeating vertex j inserts edge j
        # of length 0 under a slope drawn at random, and the area, signed
        # perimeter and winding numbers stay those of the polygon without it,
        # to the roundoff of sums that gained one term.
        for rng, system, polygon in chart_polygons(47, 300):
            j = int(rng.integers(polygon.n))
            vertices = polygon.vertices
            repeated = PolygonChain(np.insert(vertices, j, vertices[j], axis=0))
            slopes = SlopeSystem.from_angles(
                np.insert(system.angles, j, rng.uniform(0.0, 2.0 * math.pi))
            )
            assert repeated.edge_lengths[j] == 0.0
            size = float(np.max(np.abs(vertices)))
            bound = 4.0 * repeated.n * EPS
            assert abs(oriented_area(repeated) - oriented_area(polygon)) <= bound * size**2
            assert abs(
                signed_perimeter(repeated, slopes) - signed_perimeter(polygon, system)
            ) <= bound * float(np.sum(polygon.edge_lengths))
            for point in rng.uniform(vertices.min(axis=0), vertices.max(axis=0), (4, 2)):
                assert winding_number(repeated, point) == winding_number(polygon, point)
            assert outcome_text(winding_number, repeated, vertices[j]) == outcome_text(
                winding_number, polygon, vertices[j]
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("vertex, coordinate", [(0, 0), (0, 1), (2, 0), (2, 1)])
    def test_non_finite_vertices_rejected(self, value, vertex, coordinate):
        vertices = UNIT_SQUARE.vertices.copy()
        vertices[vertex, coordinate] = value
        with pytest.raises(ValueError, match="^vertices must be finite$"):
            PolygonChain(vertices)

    @pytest.mark.parametrize(
        "vertices",
        [
            [[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]],  # an x spread of 2e308
            [[1.5e308, 0.0], [0.0, 1.5e308], [0.0, 0.0]],  # each spread finite, the diagonal not
        ],
    )
    def test_spread_beyond_the_float_range_rejected(self, vertices):
        # Measured, the first overflowed the diameter and the area with a
        # RuntimeWarning (an error under the suite's warning filters) and put
        # (0, 0.5) on its edge 0 with an infinite dot product.
        with pytest.raises(ValueError, match="^vertices must spread within the float range$"):
            PolygonChain(vertices)

    def test_spread_within_the_float_range_measures(self):
        # Clockwise: the base runs from (1e307, 0) to (-1e307, 0).
        polygon = PolygonChain([[1e307, 0.0], [-1e307, 0.0], [0.0, 1.0]])
        assert polygon.diameter == math.hypot(2e307, 1.0)
        assert oriented_area(polygon) == -1e307

    def test_too_few_vertices_rejected(self):
        with pytest.raises(ValueError):
            PolygonChain(np.array([[0.0, 0.0], [1.0, 0.0]]))


# The slope checks as plain float loops over line_gap and (b - a) mod pi,
# pair by pair in the order of the definitions; the array loops of
# SlopeSystem must decide the same, name the same first pair and sum the
# same bits.


def reduced(angles):
    """Each angle mod 2pi, with a remainder that rounded up to 2pi as 0."""
    out = [float(a) % (2.0 * math.pi) for a in angles]
    return [0.0 if a == 2.0 * math.pi else a for a in out]


def reference_consecutive_check(angles):
    angles = reduced(angles)
    for i, a in enumerate(angles):
        b = angles[(i + 1) % len(angles)]
        if line_gap(a, b) < DEFAULT_TOL.parallel:
            raise ParallelLines(
                f"consecutive slopes {i} and {(i + 1) % len(angles)} are parallel as lines"
            )


def reference_pairwise_check(angles, tol):
    angles = reduced(angles)
    for i in range(len(angles)):
        for j in range(i + 1, len(angles)):
            if line_gap(angles[i], angles[j]) < tol.parallel:
                raise ParallelLines(f"slopes {i} and {j} are parallel as lines")


def reference_turning_sum(angles, tol):
    angles = reduced(angles)
    terms = []
    for i, a in enumerate(angles):
        b = angles[(i + 1) % len(angles)]
        if line_gap(a, b) < tol.parallel:
            raise ParallelLines("line angle undefined for parallel lines")
        terms.append((b - a) % math.pi)
    # A plain sequential sum: sum() is compensated from Python 3.12 on.
    t = 0.0
    for term in terms:
        t += term
    ratio = t / math.pi
    k = round(ratio)
    if abs(ratio - k) > 16.0 * len(angles) * EPS * max(1.0, abs(ratio)):
        raise NonIntegralTurn(f"angle sum {t!r} is not an integral multiple of pi")
    if not 1 <= k <= len(angles) - 1:
        raise NonIntegralTurn(f"turning number {k} outside {{1, ..., n - 1}}")
    return float(t), int(k)


def reference_turn_counts(angles):
    angles = reduced(angles)
    right = left = 0
    for i, a in enumerate(angles):
        step = (angles[(i + 1) % len(angles)] - a) % (2.0 * math.pi)
        if step < math.pi:
            left += 1
        else:
            right += 1
    return right, left


def reference_winding(angles):
    """Sum of the turns of consecutive directions wrapped to (-pi, pi), in
    whole turns."""
    angles = np.array(reduced(angles))
    turns = (np.roll(angles, -1) - angles + math.pi) % (2.0 * math.pi) - math.pi
    return round(float(np.sum(turns)) / (2.0 * math.pi))


def outcome(func, *args):
    """The result, with floats as hex so that only equal bits compare equal,
    or the error's type and message."""
    try:
        result = func(*args)
    except (ParallelLines, NonIntegralTurn) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, tuple):
        return tuple(x.hex() if isinstance(x, float) else x for x in result)
    return result


# Two angles within this of each other differ by the rounding of a
# remainder mod pi.
ROUNDING_OF_PI = 8.0 * np.finfo(float).eps * math.pi


def min_line_gap(angles):
    return min(line_gap(a, b) for i, a in enumerate(angles) for b in angles[i + 1 :])


def twin_and_fuzz_charts():
    """(chart, tolerances) of the 2000 twin systems and the 1500 fuzz slope
    systems of test_fuzz that have a chart."""
    from test_fuzz import ANGLES, COUNT

    cases = [(SlopeSystem.from_angles, angles, tol) for angles, tol in twin_systems(2000)]
    cases += [(SlopeSystem.from_degrees, angles, DEFAULT_TOL) for angles in ANGLES[:COUNT]]
    for make, angles, tol in cases:
        try:
            yield build_chart(make(angles), tol), tol
        except ParallelLines:
            continue


def twin_systems(count):
    """Seeded angle lists, n 3..14, with tolerances 1, 10 and 1e3 times the
    default.  Most plant one or two pairs, consecutive or not, at a line gap
    of tol.parallel * (1 +- 4 eps); two pairs share a slope, so the order of
    the search decides which is named first.  Some plant the gap from an
    angle of 0, where d = (a_i - a_j) mod pi is the planted gap itself."""
    rng = np.random.default_rng(2024)
    eps = np.finfo(float).eps
    for index in range(count):
        tol = DEFAULT_TOL.scaled([1.0, 10.0, 1e3][index % 3])
        n = int(rng.integers(3, 15))
        angles = rng.uniform(0.0, 2.0 * math.pi, n).tolist()
        i = int(rng.integers(0, n))
        for _ in range(int(rng.choice([0, 1, 1, 2]))):
            j = (i + 1) % n if rng.random() < 0.5 else int(rng.integers(0, n))
            if i == j:
                continue
            gap = tol.parallel * (1.0 + eps * float(rng.choice([-4.0, 0.0, 4.0])))
            if rng.random() < 0.3:
                angles[i], angles[j] = gap, 0.0
            else:
                shift = math.pi * int(rng.integers(-1, 3))
                angles[j] = angles[i] + shift + float(rng.choice([-1.0, 1.0])) * gap
        yield angles, tol


class TestAngleArrayChecks:
    def test_agree_with_object_loops(self):
        seen = set()
        for angles, tol in twin_systems(2000):
            built = outcome(SlopeSystem.from_angles, angles)
            expected = outcome(reference_consecutive_check, angles)
            if expected is not None:
                assert built == expected
                seen.add("consecutive")
                continue
            system = SlopeSystem.from_angles(angles)
            pairwise = outcome(system.require_pairwise_nonparallel, tol)
            assert pairwise == outcome(reference_pairwise_check, angles, tol)
            # build_chart runs the pairwise check first, and turning_sum only
            # on the systems that pass it.
            if pairwise is not None:
                assert outcome(build_chart, system, tol) == pairwise
                seen.add("ParallelLines")
                continue
            try:
                total, k = reference_turning_sum(angles, tol)
            except ParallelLines:
                # The reference measures the wrap-around pair as
                # (a_n - a_1) mod pi and the pairwise check as (a_1 - a_n)
                # mod pi; within rounding of tol.parallel they can decide
                # differently, and the pairwise check decides.  The
                # constructor has passed the pair at the default tolerance.
                first, *_, last = reduced(angles)
                assert abs(line_gap(first, last) - tol.parallel) <= ROUNDING_OF_PI
                seen.add("wrap-around boundary")
                total, k = reference_turning_sum(angles, DEFAULT_TOL)
            # k and the right turns exactly; the angle sum k pi within the
            # roundoff of the reference's float sum of the line turns.
            right, _ = reference_turn_counts(angles)
            angle_sum, *counts = turning_sum(system)
            assert counts == [k, right]
            assert abs(angle_sum - total) <= 16.0 * len(angles) * EPS * max(1, k) * math.pi
            seen.add("turning")
        assert seen == {"consecutive", "ParallelLines", "turning", "wrap-around boundary"}

    def test_planted_gaps_decide_both_ways(self):
        eps = np.finfo(float).eps
        for scale in (1.0, 10.0, 1e3):
            tol = DEFAULT_TOL.scaled(scale)
            below = tol.parallel * (1.0 - 4.0 * eps)
            above = tol.parallel * (1.0 + 4.0 * eps)
            # Slopes 0 and 2 are not neighbours: only the pairwise check sees them.
            with pytest.raises(ParallelLines, match="^slopes 0 and 2 are parallel"):
                SlopeSystem.from_angles([below, 2.0, 0.0, 4.0]).require_pairwise_nonparallel(tol)
            SlopeSystem.from_angles([above, 2.0, 0.0, 4.0]).require_pairwise_nonparallel(tol)
            # Slopes 0 and 1 are: the constructor decides at the default
            # tolerance, the chart's pairwise check at the looser ones.
            neighbours = [below, 0.0, 2.0, 4.0]
            if scale == 1.0:
                with pytest.raises(ParallelLines, match="^consecutive slopes 0 and 1 "):
                    SlopeSystem.from_angles(neighbours)
            else:
                with pytest.raises(ParallelLines, match="^slopes 0 and 1 are parallel"):
                    build_chart(SlopeSystem.from_angles(neighbours), tol)
            chart = build_chart(SlopeSystem.from_angles([above, 0.0, 2.0, 4.0]), tol)
            assert (chart.angle_sum.hex(), chart.half_turns) == outcome(
                reference_turning_sum, [above, 0.0, 2.0, 4.0], tol
            )

    def test_chart_turning_data_matches_references(self):
        # Every relabeling of a system shares its turn counts and winding,
        # and the turn/winding index formula, RT - 1 + 2w - [P > 0] at r > 0
        # and LT - 1 - 2w - [P > 0] at r < 0 with the reference counts,
        # reduces to index_pair's k and sign of sum p.
        points = 0
        for chart, tol in twin_and_fuzz_charts():
            angles = chart.system.angles.tolist()
            right, left = reference_turn_counts(angles)
            expected = (chart.half_turns, right, left, reference_winding(angles))
            relabelings = [chart, well_conditioned_chart(chart.system, tol)]
            for shift in range(1, chart.n):
                try:
                    relabelings.append(build_chart(chart.system.rotated(shift), tol))
                except ParallelLines:
                    # A gap planted at tol.parallel, which the relabeled
                    # pairwise check measures the other way round.
                    assert abs(min_line_gap(angles) - tol.parallel) <= ROUNDING_OF_PI, angles
            for other in relabelings:
                observed = (other.half_turns, other.right_turns, other.left_turns, other.winding)
                assert observed == expected, angles
            critical = tangential_critical_points(chart)
            winding = expected[3]
            pair = index_pair(chart.n, chart.half_turns, chart.perimeter_sum)
            for point, index in zip(critical, pair):
                turns = right + 2 * winding if point.inradius > 0 else left - 2 * winding
                assert index == turns - 1 - (point.perimeter > 0), angles
                points += 1
        assert points >= 2 * 2500

    def test_angles_are_the_whole_representation(self):
        system = SlopeSystem.from_degrees([10.0, 80.0, 200.0, 300.0])
        with pytest.raises(ValueError):
            system.angles[0] = 0.0
        assert vars(system).keys() == {"angles"}
        again = SlopeSystem(system.angles)
        assert again == system and again.angles.tobytes() == system.angles.tobytes()

    def test_an_angle_reduced_to_two_pi_is_stored_as_zero(self):
        # -1e-17 mod 2pi rounds up to 2pi, outside [0, 2pi).
        assert -1e-17 % (2.0 * math.pi) == 2.0 * math.pi
        system = SlopeSystem.from_angles([-1e-17, 2.0, 4.0])
        assert system.angles[0] == 0.0
        assert SlopeSystem.from_degrees([-1e-15, 100.0, 200.0]).angles[0] == 0.0
        assert SlopeSystem(system.angles).angles.tobytes() == system.angles.tobytes()
        from polyslope.report import slopes_report

        assert slopes_report([-1e-15, 100, 200])["input"]["angles_rad"][0] == 0.0


# Per-edge loops as they were written before the polygon kernels worked on
# whole arrays; the kernels must agree with them to roundoff and raise the
# same error for the same first offending edge.


def reference_signed_perimeter(polygon, system, tol=DEFAULT_TOL):
    edges = polygon.edge_vectors
    angles = polygon.edge_angles
    total = 0.0
    scale = polygon.diameter + float(np.max(np.abs(polygon.vertices)))
    for i, slope in enumerate(system.angles.tolist()):
        length = float(np.linalg.norm(edges[i]))
        roundoff = 256.0 * EPS * scale / length
        if line_gap(angles[i], slope) > tol.parallel + roundoff:
            raise SlopeMismatch(
                f"edge {i} at angle {float(angles[i])!r} is not parallel to slope {slope!r}"
            )
        direction = np.array([math.cos(slope), math.sin(slope)])
        sign = 1.0 if float(edges[i] @ direction) > 0.0 else -1.0
        total += sign * length
    return total


def reference_winding_number(polygon, point):
    point = np.asarray(point, dtype=float)
    rel = polygon.vertices - point
    nxt = np.roll(rel, -1, axis=0)
    cross = rel[:, 0] * nxt[:, 1] - rel[:, 1] * nxt[:, 0]
    dot = np.einsum("ij,ij->i", rel, nxt)
    for i in range(polygon.n):
        # Past edge i the signed angle is near +-pi, with the sign of a cross
        # product that rounds by at most 2 eps times its terms' magnitudes.
        terms = abs(rel[i, 0] * nxt[i, 1]) + abs(rel[i, 1] * nxt[i, 0])
        if dot[i] <= 0.0 and abs(cross[i]) <= 8.0 * EPS * terms:
            raise PointOnBoundary(f"point {point.tolist()} lies on edge {i}")
    return round(float(np.sum(np.arctan2(cross, dot))) / (2 * math.pi))


def reference_edge_offsets(polygon, angles):
    normals = np.stack([left_normal(a) for a in angles])
    return np.einsum("ij,ij->i", normals, polygon.vertices)


def reference_intersect_lines(angle_a, offset_a, angle_b, offset_b, tol=DEFAULT_TOL):
    """Intersection (x, y) of two directed lines given as (angle, offset)."""
    det = math.sin(angle_b - angle_a)
    if abs(det) < math.sin(min(tol.parallel, 0.5 * math.pi)):
        raise ParallelLines(
            f"lines at angles {angle_a!r} and {angle_b!r} are parallel within tolerance"
        )
    ca, sa = math.cos(angle_a), math.sin(angle_a)
    cb, sb = math.cos(angle_b), math.sin(angle_b)
    return (cb * offset_a - ca * offset_b) / det, (sb * offset_a - sa * offset_b) / det


def reference_line_vertices(angles, offsets, tol=DEFAULT_TOL):
    """Vertices v_i = e_{i-1} ^ e_i, one intersection at a time."""
    angles, offsets = [float(a) for a in angles], [float(d) for d in offsets]
    return np.array(
        [
            reference_intersect_lines(angles[i - 1], offsets[i - 1], angles[i], offsets[i], tol)
            for i in range(len(angles))
        ]
    )


def outcome_text(func, *args):
    """The error's type and message, or None when ``func`` returns."""
    try:
        func(*args)
    except Exception as exc:  # each caller plants the error it expects
        return type(exc).__name__, str(exc)
    return None


def chart_polygons(seed, count):
    """Random polygons of random slope systems, n 3..14, self-intersecting too."""
    from polyslope.randomgen import random_radii, random_slope_system
    from polyslope.slope_space import build_chart, polygon_from_radii

    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 15))
        chart = build_chart(random_slope_system(rng, n))
        yield rng, chart.system, polygon_from_radii(chart, random_radii(rng, n - 2))


class TestArrayKernels:
    def test_agree_with_per_edge_loops(self):
        for rng, system, polygon in chart_polygons(40, 150):
            expected = reference_signed_perimeter(polygon, system)
            scale = float(np.sum(polygon.edge_lengths))
            assert abs(signed_perimeter(polygon, system) - expected) <= 1e-12 * scale
            offsets = edge_offsets(polygon.vertices, system.angles)
            expected = reference_edge_offsets(polygon, system.angles)
            scale = max(1.0, float(np.max(np.abs(polygon.vertices))))
            assert np.max(np.abs(offsets - expected)) <= 1e-12 * scale
            low, high = polygon.vertices.min(axis=0), polygon.vertices.max(axis=0)
            for point in rng.uniform(low, high, (5, 2)):
                assert winding_number(polygon, point) == reference_winding_number(polygon, point)

    def test_slope_mismatch_names_first_edge(self):
        for _, system, polygon in chart_polygons(41, 20):
            if system.n < 5:
                continue
            angles = system.angles.copy()
            angles[[2, 4]] += 0.1
            bad = SlopeSystem.from_angles(angles)
            with pytest.raises(SlopeMismatch) as expected:
                reference_signed_perimeter(polygon, bad)
            with pytest.raises(SlopeMismatch) as batched:
                signed_perimeter(polygon, bad)
            assert str(batched.value) == str(expected.value)
            assert "edge 2 " in str(batched.value)

    @pytest.mark.parametrize("scale", [1.0, 1e-300])
    def test_edges_the_quick_test_clears_pass_the_slope_rule(self, monkeypatch, scale):
        # signed_perimeters runs the slope rule only on a stack with an edge
        # that |x sin s - y cos s| + 2**-1000 <= 64 eps length cannot clear.
        # Slopes turned by up to 1e-6 rad, across the rule's bound, and a
        # tolerance near zero, where its roundoff term alone decides: it
        # raises exactly where the rule finds an edge off its slope, and
        # otherwise gives the lengths signed by their slopes, bit for bit.
        tol, runs, seen = DEFAULT_TOL.scaled(scale), [0], set()
        rule = geometry._slope_rule
        monkeypatch.setattr(geometry, "_slope_rule", lambda *a: runs.append(1) or rule(*a))
        for rng, system, polygon in chart_polygons(47, 300):
            vertices, n = polygon.vertices, system.n
            top = rng.uniform(-17.0, -6.0)
            slopes = system.angles + rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-18, top, n)
            edges = np.roll(vertices, -1, axis=0) - vertices
            lengths = np.hypot(edges[:, 0], edges[:, 1])
            along = edges[:, 0] * np.cos(slopes) + edges[:, 1] * np.sin(slopes)
            off = bool(edges_against_slopes(vertices, slopes, tol).any())
            runs.clear()
            outcome = outcome_text(signed_perimeters, vertices, slopes, tol)
            if off:
                assert outcome[0] == "SlopeMismatch" and runs, top
            else:
                signed = np.where(along > 0.0, lengths, -lengths).sum()
                assert outcome is None and signed_perimeters(vertices, slopes, tol) == signed
            seen.add((off, bool(runs)))
        assert seen == {(True, True), (False, True), (False, False)}

    def test_point_on_an_edge_names_first_edge(self):
        # Vertex 2 ends edge 1 and starts edge 2.
        cases = [(polygon, polygon.vertices[2], 1) for _, _, polygon in chart_polygons(42, 20)]
        # (0.9, 0.3) rounds off the line of edge 0, y = x / 3, by less than the
        # cross product deciding its side can err: it counts as on the edge.
        sliver = PolygonChain(np.array([[0.0, 0.0], [3.0, 1.0], [-1.0, 2.0]]))
        cases.append((sliver, [0.9, 0.3], 0))
        for polygon, point, edge in cases:
            with pytest.raises(PointOnBoundary) as expected:
                reference_winding_number(polygon, point)
            with pytest.raises(PointOnBoundary) as batched:
                winding_number(polygon, point)
            assert str(batched.value) == str(expected.value)
            assert str(batched.value).endswith(f"edge {edge}")
        # A millionth of the edge's length off it, the sign is certain.
        assert winding_number(sliver, [0.9, 0.3 + 3e-6]) == 1
        assert winding_number(sliver, [0.9, 0.3 - 3e-6]) == 0

    def test_line_vertices_agree_with_intersections(self):
        # Stacks of four systems, n 3..14: every row against the loop, and
        # polygon_from_lines is the one-row case.
        from polyslope.randomgen import random_slope_system

        rng = np.random.default_rng(43)
        for _ in range(150):
            n = int(rng.integers(3, 15))
            angles = np.array([random_slope_system(rng, n).angles for _ in range(4)])
            offsets = rng.uniform(-2.0, 2.0, (4, n))
            stacked = line_vertices(angles, offsets)
            assert stacked.shape == (4, n, 2)
            for row, (a, d) in enumerate(zip(angles, offsets)):
                expected = reference_line_vertices(a, d)
                scale = max(1.0, float(np.max(np.abs(expected))))
                assert np.max(np.abs(stacked[row] - expected)) <= 1e-12 * scale
                assert np.array_equal(polygon_from_lines(a, d).vertices, stacked[row])

    def test_parallel_lines_name_first_pair_of_a_stack(self):
        rng = np.random.default_rng(44)
        angles = rng.uniform(0.0, 2.0 * math.pi, (4, 6))
        offsets = rng.uniform(-1.0, 1.0, (4, 6))
        angles[2, 4] = angles[2, 3] + math.pi
        angles[3, 1] = angles[3, 0]
        expected = outcome_text(reference_line_vertices, angles[2], offsets[2])
        assert expected[0] == "ParallelLines"
        assert outcome_text(line_vertices, angles, offsets) == expected
        assert outcome_text(line_vertices, angles[2], offsets[2]) == expected

    def test_stacks_measure_each_polygon_as_one(self):
        # A polygon, its point reflection, a dilation and the zero polygon,
        # every edge of which is zero, share the slopes: each stacked row
        # gives the one-polygon value bit for bit.
        for rng, system, polygon in chart_polygons(45, 80):
            vertices = polygon.vertices
            stack = np.array([vertices, -vertices, 2.5 * vertices, np.zeros_like(vertices)])
            chains = [PolygonChain(v) for v in stack]
            points = rng.uniform(stack.min(axis=(0, 1)), stack.max(axis=(0, 1)), (4, 2))
            assert oriented_areas(stack).tolist() == [oriented_area(c) for c in chains]
            assert signed_perimeters(stack, system.angles).tolist() == [
                signed_perimeter(c, system) for c in chains
            ]
            assert diameters(stack).tolist() == [c.diameter for c in chains]
            assert winding_numbers(stack, points).tolist() == [
                winding_number(c, p) for c, p in zip(chains, points)
            ]
            # One edge pass gives all three measures, with the slopes as one
            # row or one row per polygon.
            for slopes in (system.angles, np.array([system.angles] * 4)):
                areas, perimeters, sizes = polygon_measures(stack, slopes)
                assert areas.tolist() == oriented_areas(stack).tolist()
                assert perimeters.tolist() == signed_perimeters(stack, slopes).tolist()
                assert sizes.tolist() == diameters(stack).tolist()

    def test_stacks_name_the_first_failing_row(self):
        for _, system, polygon in chart_polygons(46, 20):
            if system.n < 5:
                continue
            good = polygon.vertices
            angles = system.angles.copy()
            angles[[2, 4]] += 0.1
            bad = SlopeSystem.from_angles(angles)
            slopes = np.array([system.angles, bad.angles, bad.angles])
            expected = outcome_text(reference_signed_perimeter, polygon, bad)
            assert expected[0] == "SlopeMismatch"
            assert outcome_text(signed_perimeters, np.array([good] * 3), slopes) == expected
            assert outcome_text(polygon_measures, np.array([good] * 3), slopes) == expected
            # Vertex 2 ends edge 1 and starts edge 2.
            points = np.array([good.mean(axis=0), good[2], good[3]])
            expected = outcome_text(reference_winding_number, polygon, good[2])
            assert expected[0] == "PointOnBoundary"
            assert outcome_text(winding_numbers, np.array([good] * 3), points) == expected
            # The zero polygon lies along any slopes: a stack that starts
            # with it under the wrong slopes names the first polygon off its
            # slopes, as that polygon alone does.
            expected = outcome_text(reference_signed_perimeter, polygon, bad)
            stack = np.array([np.zeros_like(good), good, good])
            slopes = np.array([bad.angles, system.angles, bad.angles])
            assert outcome_text(signed_perimeters, stack, slopes) == expected
            assert outcome_text(polygon_measures, stack, slopes) == expected

    def test_parallel_lines_name_first_pair(self):
        angles = [0.0, 1.0, 1.0 + math.pi, 2.5, 2.5, 4.0]
        with pytest.raises(ParallelLines) as raised:
            polygon_from_lines(angles, [0.0, 1.0, 2.0, 0.5, 1.5, 1.0])
        assert str(raised.value) == (
            f"lines at angles {1.0!r} and {1.0 + math.pi!r} are parallel within tolerance"
        )


def exact_shoelace(vertices):
    """The shoelace area of float vertices in exact arithmetic, and half the
    sum of its products' magnitudes, the unit of its roundoff."""
    rows = [[Fraction(x) for x in row] for row in vertices.tolist()]
    pairs = list(zip(rows, rows[1:] + rows[:1]))
    area = sum(v[0] * w[1] - w[0] * v[1] for v, w in pairs) / 2
    return area, sum(abs(v[0] * w[1]) + abs(w[0] * v[1]) for v, w in pairs) / 2


class TestPowerOfTwoScaling:
    # Coordinate products past the float range: each vertex list is scaled
    # by a power of two before them, under the suite's RuntimeWarning filter.
    def test_rays_longer_than_the_float_range_allows_wind(self):
        # The point lies 0.5 off an edge 2e200 long: the cross product
        # deciding its side, -1e200, is exact to eps in its terms.
        chain = PolygonChain(np.array([[1e200, 0.0], [-1e200, 0.0], [0.0, 1.0]]))
        assert winding_number(chain, [0.0, 0.5]) == -1
        assert winding_number(chain, [0.0, -0.5]) == 0
        with pytest.raises(PointOnBoundary):
            winding_number(chain, [0.0, 0.0])

    def test_area_of_a_triangle_far_out(self):
        # 1e150 wide at 1e160 from the origin: its products near 1e320
        # overflowed, giving NaN, and about the origin they rounded at their
        # magnitude, giving -1.1e304.  About the first vertex the edges are
        # exact differences and the area, 5.000006e299, one rounded product.
        vertices = np.array([[1e160, 1e160], [1e160 + 1e150, 1e160], [1e160, 1e160 + 1e150]])
        area = oriented_area(PolygonChain(vertices))
        exact, _ = exact_shoelace(vertices)
        assert abs(Fraction(area) - exact) <= Fraction(EPS) * abs(exact)
        for m in (-532, -600, -1000):
            assert np.ldexp(oriented_area(PolygonChain(np.ldexp(vertices, m))), -2 * m) == area

    def test_area_of_a_list_whose_spread_leaves_the_float_range(self):
        # PolygonChain refuses it; the stack kernel scales before it
        # translates, so the differences 2e308 of this clockwise list stay
        # finite and its area is the base 2e308 times the height 1 halved.
        vertices = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]])
        assert oriented_areas(vertices) == -1e308

    @pytest.mark.parametrize("m", [-1000, -600, -300, 300, 600, 1000])
    def test_measures_scale_exactly(self, m):
        # 2**m V has 2**m times the signed perimeter, 2**2m times the area
        # where that is a float, and the same windings, exactly.
        for rng, system, polygon in chart_polygons(47, 40):
            if np.abs(polygon.vertices).max() > 2.0**20:
                continue
            scaled = PolygonChain(np.ldexp(polygon.vertices, m))
            assert signed_perimeter(scaled, system) == math.ldexp(signed_perimeter(polygon, system), m)
            if abs(m) <= 500:
                assert oriented_area(scaled) == math.ldexp(oriented_area(polygon), 2 * m)
            low, high = polygon.vertices.min(axis=0), polygon.vertices.max(axis=0)
            for point in rng.uniform(low, high, (3, 2)):
                assert winding_number(scaled, np.ldexp(point, m)) == winding_number(polygon, point)


def mpmath_tangential_vertices(angles, center, inradius):
    """Corners of the lines tangent to the circle, intersected at 50 digits.

    Line i is {q : n_i . q = n_i . c - r}; vertex i + 1 solves lines i and
    i + 1 by Cramer's rule, independent of the half-angle closed form.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        phi = [mpmath.mpf(float(a)) for a in angles]
        cx, cy = (mpmath.mpf(float(x)) for x in center)
        r = mpmath.mpf(float(inradius))
        offsets = [-mpmath.sin(a) * cx + mpmath.cos(a) * cy - r for a in phi]
        corners = []
        for i in range(len(phi)):
            a, b = phi[i], phi[(i + 1) % len(phi)]
            oa, ob = offsets[i], offsets[(i + 1) % len(phi)]
            det = mpmath.sin(b - a)
            x = (mpmath.cos(b) * oa - mpmath.cos(a) * ob) / det
            y = (mpmath.sin(b) * oa - mpmath.sin(a) * ob) / det
            corners.append((float(x), float(y)))
    return np.array(corners[-1:] + corners[:-1])


class TestTangentialPolygon:
    def test_matches_mpmath_intersections(self):
        # One row of the edge-form stack against the corners of its lines.
        # Unfiltered: uniform angles, so nearly parallel and nearly
        # antiparallel neighbours (far corners) occur.
        rng = np.random.default_rng(50)
        for _ in range(40):
            n = int(rng.integers(3, 15))
            angles = rng.uniform(0.0, 2.0 * math.pi, n)
            center = rng.uniform(-2.0, 2.0, 2)
            inradius = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 2.0)
            vertices = tangential_polygons(angles, [center], [inradius])[0]
            expected = mpmath_tangential_vertices(angles, center, inradius)
            gap = float(np.max(np.abs(vertices - expected)))
            assert gap <= 1e-12 * float(diameters(vertices))

    def test_points_of_a_chart_are_exact_reflections(self):
        # At the canonical incenter c = r n_1 the tangent point of line 1 is
        # exactly 0, so the polygon of -r is that of r negated, bit for bit,
        # and its first vertex is r tan(tau_n / 2) behind 0 along u_1.
        rng = np.random.default_rng(51)
        for _ in range(200):
            angles = rng.uniform(0.0, 360.0, int(rng.integers(3, 15))).tolist()
            try:
                chart = build_chart(SlopeSystem.from_degrees(angles))
            except ParallelLines:
                continue
            points = tangential_critical_points(chart)
            if not points:
                continue
            centers = [point.incenter for point in points]
            radii = [point.inradius for point in points]
            vertices = tangential_polygons(chart.system.angles, centers, radii)
            assert np.array_equal(vertices[1], -vertices[0]), angles
            phi = chart.system.angles
            back = -radii[0] * math.tan(0.5 * (phi[0] - phi[-1]))
            first = back * np.array([math.cos(phi[0]), math.sin(phi[0])])
            assert np.allclose(vertices[0, 0], first, rtol=1e-14, atol=0.0), angles
