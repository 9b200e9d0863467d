"""SHA-256 digests of the program's outputs, one per input set.

Run from the root of a checkout:

    PYTHONPATH=src python3 tests/digest.py

Two checkouts that print the same digests give the same bytes on every
input below; a change that claims to leave all outputs alone compares its
digests with its parent's.  Each output is the JSON of a report or sweep
result, or ``Type: message`` of the error it raises.  The sets:

* ``sweep``: ``run_sweep(s, 20)`` for s = 0..399;
* ``sweep rows``: the ``(n, rows)`` outcome of every check, or its error,
  on the streams of those sweeps, ``trial_rng(s, check, trial)`` for
  trial = 0..19, so a passing row whose error or bound moves shows too;
* ``slopes xF``: slopes reports on the fuzz slope systems and the
  near-parallel fuzz lists of ``test_fuzz`` at tolerance scale F;
* ``cyclic at C``: cyclic reports of radius 1 on the fuzz vertex angles
  about the center C;
* ``family``: the family reports of ``test_family.families()``;
* ``near bifurcation xF``: cyclic reports of ``families.near_bifurcation_phis``
  polygons, on the bifurcation locus, inside its band and just outside it,
  at tolerance scale F (the set at scale 1 is named without it).

It takes about 90 s on a 2-core machine.
"""

import hashlib
import json

import numpy as np

from polyslope.randomgen import trial_rng
from polyslope.report import cyclic_report, family_report, slopes_report
from polyslope.sweeps import CHECKS, run_sweep
from polyslope.tolerances import DEFAULT_TOL

import test_family
import test_fuzz
from families import near_bifurcation_phis

SCALES = (1.0, 1e-3, 1e3)
# Scales of the near-bifurcation set: below 1 the band meets its floor.
BIFURCATION_SCALES = (1.0, 1e-3, 1e-6)
CENTERS = ((0.0, 0.0), (0.5, -2.0))
# |B| / sum|tan alpha| bands of the near-bifurcation polygons: roots to
# working precision, inside the default band, and just outside it.
BIFURCATION_BANDS = ((0.0, 0.0), (1e-12, 1e-10), (1e-9, 1e-7))


def outcome(make, *args) -> str:
    """The JSON of ``make(*args)``, or the type and message of its error."""
    try:
        return json.dumps(make(*args))
    except Exception as exc:  # an error is an output too
        return f"{type(exc).__name__}: {exc}"


def check_outcome(check, rng) -> str:
    """The repr of a sweep check's outcome with the sweep's defaults, or the
    type and message of its error."""
    try:
        return repr(check(rng, (4, 9), DEFAULT_TOL))
    except Exception as exc:  # an error is an output too
        return f"{type(exc).__name__}: {exc}"


def digest(outcomes) -> tuple[int, str]:
    """How many outcomes, and the SHA-256 of their lines."""
    sha, count = hashlib.sha256(), 0
    for line in outcomes:
        sha.update(line.encode() + b"\n")
        count += 1
    return count, sha.hexdigest()


def near_bifurcation_inputs():
    rng = np.random.default_rng(24)
    for low, high in BIFURCATION_BANDS:
        for _ in range(40):
            yield near_bifurcation_phis(rng, int(rng.integers(4, 8)), low, high)


def sets():
    yield "sweep", (outcome(lambda s: run_sweep(s, 20).to_dict(), s) for s in range(400))
    yield "sweep rows", (
        check_outcome(check, trial_rng(s, index, trial))
        for s in range(400)
        for index, (_, check) in enumerate(CHECKS)
        for trial in range(20)
    )
    slopes = test_fuzz.ANGLES[:test_fuzz.COUNT] + test_fuzz.NEAR_PARALLEL
    for factor in SCALES:
        tol = test_family.tolerances(factor)
        yield f"slopes x{factor:g}", (outcome(slopes_report, a, tol) for a in slopes)
    for center in CENTERS:
        phis = test_fuzz.ANGLES[test_fuzz.COUNT:]
        yield f"cyclic at {center}", (outcome(cyclic_report, 1.0, p, center) for p in phis)
    yield "family", (
        outcome(family_report, start, end, steps, test_family.tolerances(scale))
        for start, end, steps, scale in test_family.families()
    )
    near = list(near_bifurcation_inputs())
    for factor in BIFURCATION_SCALES:
        tol = test_family.tolerances(factor)
        name = "near bifurcation" + ("" if factor == 1.0 else f" x{factor:g}")
        yield name, (outcome(cyclic_report, 1.0, p, (0.0, 0.0), tol) for p in near)


if __name__ == "__main__":
    for name, outcomes in sets():
        count, hexdigest = digest(outcomes)
        print(f"{name:<22} {count:>6}  {hexdigest}", flush=True)
