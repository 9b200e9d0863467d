"""Tests for the seeded generators."""

import collections
import math

import numpy as np
import pytest

from polyslope.randomgen import (
    MIN_LINE_SEPARATION,
    STAR_SIZES,
    random_convex_slope_system,
    random_cyclic_polygon,
    random_slope_system,
    random_star_polygon,
)

TWO_PI = 2.0 * math.pi
GENERATORS = (random_slope_system, random_convex_slope_system, random_cyclic_polygon)


class NoDraws:
    """Stands in for a numpy Generator that must not be drawn from."""

    def __getattr__(self, name):
        raise AssertionError(f"generator drew {name!r}")


class CountingDraws:
    """Wraps a numpy Generator and counts the calls to each of its methods."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = collections.Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)


class TestSeparation:
    def test_infeasible_count_raises_before_drawing(self):
        # 60 lines mod pi cannot keep the default 3 degree gap.
        for draw in (
            lambda rng: random_slope_system(rng, 60),
            lambda rng: random_convex_slope_system(rng, 60),
            lambda rng: random_cyclic_polygon(rng, 60),
            lambda rng: random_star_polygon(rng, 60, 7),
        ):
            with pytest.raises(ValueError, match="cannot keep"):
                draw(NoDraws())

    def test_lines_keep_their_separation_up_to_the_limit(self):
        rng = np.random.default_rng(3)
        for n in (3, 20, 59):
            for draw in GENERATORS:
                drawn = draw(rng, n)
                angles = drawn.phis if draw is random_cyclic_polygon else drawn.angles
                lines = np.sort(angles % math.pi)
                gaps = np.diff(lines, append=lines[0] + math.pi)
                assert np.min(gaps) >= MIN_LINE_SEPARATION * (1 - 1e-12)


class TestDrawCounts:
    def test_draws_per_system_stay_bounded_below_the_limit(self):
        # One set of lines costs one ``integers`` call (the direction bits).
        # The rejection loops needed about 2200 draws per system at n = 20.
        # Convex systems need every direction gap below pi - delta, which n
        # independent directions meet with probability about 1 - n / 2**(n - 1):
        # 1/4 at n = 3, 1/2 at n = 4.
        trials = 25
        for n in range(3, 60):
            for draw in GENERATORS:
                rng = CountingDraws(np.random.default_rng([7, n]))
                for _ in range(trials):
                    draw(rng, n)
                draws = rng.calls["integers"] / trials
                if draw is random_slope_system:
                    assert draws == 1
                else:
                    assert draws <= 6, (draw.__name__, n, draws)

    def test_star_draws_once(self):
        rng = CountingDraws(np.random.default_rng(8))
        for _ in range(20):
            random_star_polygon(rng, 7, 3)
        assert rng.calls == {"uniform": 40}


# In-test copies of the rejection loops the generators replaced, vectorised
# over a batch of candidates: uniform draws accepted under the same tests.

OLD_ARC = math.radians(2.0)
OLD_ANTIPODAL = math.radians(4.0)


def old_lines_apart(angles):
    lines = np.sort(angles % math.pi, axis=1)
    gaps = np.diff(lines, axis=1, append=lines[:, :1] + math.pi)
    return np.min(gaps, axis=1) >= MIN_LINE_SEPARATION


def old_slope_angles(rng, n, count):
    kept = []
    while sum(len(k) for k in kept) < count:
        lines = rng.uniform(0.0, math.pi, (count, n))
        lines = lines[old_lines_apart(lines)]
        kept.append(lines + math.pi * rng.integers(0, 2, lines.shape))
    return np.concatenate(kept)[:count]


def old_convex_angles(rng, n, count):
    kept = []
    while sum(len(k) for k in kept) < count:
        directions = np.sort(rng.uniform(0.0, TWO_PI, (count, n)), axis=1)
        gaps = np.diff(directions, axis=1, append=directions[:, :1] + TWO_PI)
        ok = (np.min(gaps, axis=1) >= MIN_LINE_SEPARATION) & (
            np.max(gaps, axis=1) < math.pi - MIN_LINE_SEPARATION
        )
        kept.append(directions[ok & old_lines_apart(directions)])
    return np.concatenate(kept)[:count]


def old_cyclic_phis(rng, n, count):
    kept = []
    while sum(len(k) for k in kept) < count:
        phis = rng.uniform(0.0, TWO_PI, (count, n))
        arcs = (np.roll(phis, -1, axis=1) - phis) % TWO_PI
        ok = np.min(np.minimum(arcs, TWO_PI - arcs), axis=1) >= OLD_ARC
        ok &= np.min(np.abs(arcs - math.pi), axis=1) >= OLD_ANTIPODAL
        kept.append(phis[ok & old_lines_apart(phis)])
    return np.concatenate(kept)[:count]


def old_star_polygon(rng, n, turns):
    base = TWO_PI * turns * np.arange(n) / n
    while True:
        phis = base + rng.uniform(-0.15, 0.15, n)
        arcs = (np.roll(phis, -1) - phis) % TWO_PI
        if np.min(np.minimum(arcs, TWO_PI - arcs)) < OLD_ARC:
            continue
        if np.min(np.abs(arcs - math.pi)) < OLD_ANTIPODAL:
            continue
        if old_lines_apart(phis[None, :])[0]:
            return phis, float(rng.uniform(0.5, 2.0))


def half_turns(angles):
    terms = (np.roll(angles, -1, axis=1) - angles) % math.pi
    return np.rint(np.sum(terms, axis=1) / math.pi).astype(int)


def positive_edges(phis):
    arcs = (np.roll(phis, -1, axis=1) - phis) % TWO_PI
    return np.count_nonzero(arcs < math.pi, axis=1)


def min_gap(directions):
    gaps = np.diff(directions, axis=1, append=directions[:, :1] + TWO_PI)
    return np.min(gaps, axis=1)


def chi_square(a, b):
    """Two-sample chi-square statistic of integer samples and its degrees of freedom."""
    values = np.union1d(a, b)
    table = np.array([[np.count_nonzero(s == v) for v in values] for s in (a, b)])
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    return float(np.sum((table - expected) ** 2 / expected)), len(values) - 1


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    grid = np.concatenate([a, b])
    cdf = lambda s: np.searchsorted(np.sort(s), grid, side="right") / len(s)
    return float(np.max(np.abs(cdf(a) - cdf(b))))


# Upper 1 % points of chi-square with 4 and 6 degrees of freedom, and the
# two-sample KS coefficient at 1 % (critical value c sqrt(2 / COUNT)).
CHI2_99 = {4: 13.277, 6: 16.812}
KS_99 = 1.628
COUNT = 10_000
N = 6


class TestLaws:
    """Each generator draws the law of the rejection loop it replaced."""

    def test_slope_half_turns_and_lines(self):
        rng = np.random.default_rng(11)
        new = np.array([random_slope_system(rng, N).angles for _ in range(COUNT)])
        old = old_slope_angles(np.random.default_rng(12), N, COUNT)
        stat, dof = chi_square(half_turns(new), half_turns(old))
        assert dof == 4 and stat < CHI2_99[dof]
        # The first line is uniform mod pi: the spacings are turned at random.
        critical = KS_99 * math.sqrt(2.0 / COUNT)
        assert ks_statistic(new[:, 0] % math.pi, old[:, 0] % math.pi) < critical

    def test_cyclic_positive_edges(self):
        rng = np.random.default_rng(13)
        new = np.array([random_cyclic_polygon(rng, N).phis for _ in range(COUNT)])
        old = old_cyclic_phis(np.random.default_rng(14), N, COUNT)
        stat, dof = chi_square(positive_edges(new), positive_edges(old))
        assert dof == 6 and stat < CHI2_99[dof]

    def test_convex_minimum_gap(self):
        rng = np.random.default_rng(15)
        new = np.array([random_convex_slope_system(rng, N).angles for _ in range(COUNT)])
        old = old_convex_angles(np.random.default_rng(16), N, COUNT)
        assert ks_statistic(min_gap(new), min_gap(old)) < KS_99 * math.sqrt(2.0 / COUNT)


class TestStar:
    def test_draws_match_the_rejection_loop_bit_for_bit(self):
        for seed in range(200):
            for n, turns in ((5, 2), (5, 3), (7, 2), (7, 3), (7, 4), (7, 5)):
                new_rng = np.random.default_rng([seed, n, turns])
                old_rng = np.random.default_rng([seed, n, turns])
                star = random_star_polygon(new_rng, n, turns)
                phis, radius = old_star_polygon(old_rng, n, turns)
                assert np.array_equal(star.phis, phis) and star.radius == radius
                assert new_rng.random() == old_rng.random()

    def test_unsupported_sizes_raise_before_drawing(self):
        for n in range(3, 60):
            if n in STAR_SIZES:
                continue
            with pytest.raises(ValueError):
                random_star_polygon(NoDraws(), n, 1)
