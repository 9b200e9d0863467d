"""Tests for the seeded generators."""

import pytest

from polyslope.randomgen import (
    random_convex_slope_system,
    random_cyclic_polygon,
    random_slope_system,
    random_star_polygon,
)


class NoDraws:
    """Stands in for a numpy Generator that must not be drawn from."""

    def __getattr__(self, name):
        raise AssertionError(f"generator drew {name!r}")


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
