"""Closed-form oracles for the benchmark's correctness checks.

Nothing here imports polyslope: every expected value is recomputed from the
slope angles (or the cyclic vertex angles) with the paper's closed forms, so
a check compares the program against an independent computation.

* ``unit_perimeters``: p_i = 2 * sum tan(tau_j / 2) over the three turns
  tau_j in (0, 2 pi) of the triangle (s_1, s_{i+1}, s_{i+2}).
* ``inertia_index``: the Morse index at the tangential point with inradius
  sign ``r_sign``, from the signs of p alone.  With
  neg = #{j >= 2: p_j < 0} + [sum p > 0] - [p_1 > 0] the index is
  n - 3 - neg for r > 0 and neg for r < 0.
* ``cyclic_expected``: edge signs, half angles, winding, B = sum eps tan(alpha),
  the area index e - 1 - 2 omega - [B <= 0], its dual n - 3 - mu, and the dual
  perimeter 2 R B.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def unit_perimeters(angles_rad) -> np.ndarray:
    """Signed unit-inradius perimeters p_1..p_{n-2} of the decomposition triangles."""
    a = np.asarray(angles_rad, dtype=float)
    first = a[0]
    b = a[1:-1]
    c = a[2:]
    turns = (
        np.tan(((b - first) % TWO_PI) / 2.0)
        + np.tan(((c - b) % TWO_PI) / 2.0)
        + np.tan(((first - c) % TWO_PI) / 2.0)
    )
    return 2.0 * turns


def half_turns(angles_rad) -> int:
    """k with sum of consecutive line angles = k * pi."""
    a = np.asarray(angles_rad, dtype=float)
    steps = (np.roll(a, -1) - a) % math.pi
    return int(round(float(np.sum(steps)) / math.pi))


def turn_counts(angles_rad) -> tuple[int, int]:
    """(right, left): consecutive direction steps of at least / below pi."""
    a = np.asarray(angles_rad, dtype=float)
    steps = (np.roll(a, -1) - a) % TWO_PI
    left = int(np.count_nonzero(steps < math.pi))
    return len(a) - left, left


def min_line_gap(angles_rad) -> float:
    """Smallest angle between two of the undirected lines, in radians."""
    lines = np.sort(np.asarray(angles_rad, dtype=float) % math.pi)
    gaps = np.diff(np.concatenate([lines, [lines[0] + math.pi]]))
    return float(np.min(gaps))


def inertia_index(p, r_sign: int) -> int:
    """Morse index of the perimeter at the tangential point with sign(r) = r_sign."""
    p = np.asarray(p, dtype=float)
    n = len(p) + 2
    neg = (
        int(np.count_nonzero(p[1:] < 0))
        + (1 if float(np.sum(p)) > 0 else 0)
        - (1 if p[0] > 0 else 0)
    )
    return n - 3 - neg if r_sign > 0 else neg


def topology(n: int, k: int) -> dict:
    """Sphere and disc dimensions of the negative and positive components."""
    return {
        "negative_component": (n - k - 2, k - 1),
        "positive_component": (k - 2, n - k - 1),
    }


def conditioning(angles_rad) -> tuple[float, float]:
    """(max|p| / min|p|, |sum p| / sum|p|) of a slope system."""
    p = unit_perimeters(angles_rad)
    magnitudes = np.abs(p)
    return (
        float(np.max(magnitudes) / np.min(magnitudes)),
        float(abs(np.sum(p)) / np.sum(magnitudes)),
    )


def cyclic_expected(radius: float, phis_rad) -> dict:
    """Closed-form invariants and indices of a cyclic polygon."""
    phis = np.asarray(phis_rad, dtype=float)
    n = len(phis)
    arcs = (np.roll(phis, -1) - phis) % TWO_PI
    signs = np.where(arcs < math.pi, 1, -1)
    half = np.minimum(arcs, TWO_PI - arcs) / 2.0
    signed_arcs = np.where(signs > 0, arcs, arcs - TWO_PI)
    winding = int(round(float(np.sum(signed_arcs)) / TWO_PI))
    tangents = np.tan(half)
    b_sum = float(np.sum(signs * tangents))
    positive = int(np.count_nonzero(signs > 0))
    mu_area = positive - 1 - 2 * winding - (1 if b_sum <= 0 else 0)
    dual_p = unit_perimeters((phis + 0.5 * math.pi) % TWO_PI)
    return {
        "orientations": [int(s) for s in signs],
        "half_angles": half,
        "positive_edges": positive,
        "winding": winding,
        "bifurcation_sum": b_sum,
        "bifurcation_scale": float(np.sum(np.abs(tangents))),
        "mu_area": mu_area,
        "mu_dual": n - 3 - mu_area,
        "mu_dual_inertia": inertia_index(dual_p, +1),
        "dual_perimeter": 2.0 * radius * b_sum,
    }


def interpolated_deg(start, end, t: float) -> list[float]:
    """The family's componentwise linear interpolation, in degrees."""
    return [(1.0 - t) * a + t * b for a, b in zip(start, end)]


def family_perimeter_sum(start, end, t: float) -> float:
    """Closed-form sum p along a family at parameter t."""
    return float(np.sum(unit_perimeters(np.radians(interpolated_deg(start, end, t)))))


def family_root(start, end, lo: float, hi: float, width: float = 1e-14) -> float:
    """Root of the closed-form sum p in [lo, hi], found by bisection."""
    f_lo = family_perimeter_sum(start, end, lo)
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        f_mid = family_perimeter_sum(start, end, mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
