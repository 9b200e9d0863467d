"""SHA-256 digests of the program's outputs, one per input set.

Run from the root of a checkout:

    PYTHONPATH=src python3 tests/digest.py [--dump DIR] [SET ...]

With set names as arguments (quoted where they hold spaces) it runs only
those sets.  ``--dump DIR`` also writes each set's outcome lines to
``DIR/<set>.txt`` (raw bytes as hex, one outcome a line), so the dumps of
two checkouts can be diffed line by line.  Two checkouts that print the
same digests give the same bytes on every input below; a change that
claims to leave all outputs alone compares its digests with its parent's.  Each output is the JSON of a report or sweep
result, or ``Type: message`` of the error it raises.  The sets:

* ``sweep``: ``run_sweep(s, 20)`` for s = 0..399;
* ``sweep rows``: the ``(n, rows)`` outcome of every check, or its error,
  on the streams of those sweeps, ``trial_rng(s, check, trial)`` for
  trial = 0..19, so a passing row whose error or bound moves shows too;
* ``slopes xF``: slopes reports on the fuzz slope systems and the
  near-parallel fuzz lists of ``test_fuzz`` at tolerance scale F;
* ``cyclic at C``: cyclic reports of radius 1 on the fuzz vertex angles
  about the center C;
* ``family``: the family reports of ``test_family.families()`` and of
  ``test_family.BESIDE_POLE`` (a root beside a pole) at 3 steps;
* ``near bifurcation xF``: cyclic reports of ``families.near_bifurcation_phis``
  polygons, on the bifurcation locus, inside its band and just outside it,
  at tolerance scale F (the set at scale 1 is named without it);
* ``cli``: ``cli.main`` run in this process on fuzz inputs of each
  subcommand, text and ``--json``, with and without ``--tol-scale``, on
  renders of each kind, on ``EDGE_CASES`` (inputs that exit 3, or sit next
  to what the checks resolve, and a fold), every ``--help``, and the usage,
  file, schema and option errors.  Each invocation hashes as the JSON of
  its exit code, stdout, stderr and the SVG it wrote, with the temporary
  directory written ``<tmp>``;
* ``kernels``: one line per chart kernel, ``kernels: NAME``, over the raw
  bytes of its float64 results (or the type and message of its error) on
  3,000 seeded charts, n 3..14, each with a drawn, a unit, a first-axis
  (r = e_1, whose polygon has zero edges) and a zero row of radii and a
  row r_i = r per tangential point: ``_unit_perimeters`` (the p_i of the
  chart's angles), ``_reconstruction`` (vertices, areas, signed
  perimeters, diameters), ``polygon_measures``, ``tangential_polygons``,
  ``decomposition_polygons`` and ``tritangent_circle`` (the last two on
  the drawn, unit and first-axis rows).  A kernel change that claims byte identity
  compares these lines with its parent's (``tests/digest.py kernels``).

It takes about 90 s on a 2-core machine; the ``cli`` set alone about 9 s,
the ``kernels`` set about 8 s.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from polyslope import cli
from polyslope.geometry import PolygonChain, edge_offsets, polygon_measures, tangential_polygons
from polyslope.randomgen import random_radii, random_slope_system, trial_rng
from polyslope.report import cyclic_report, family_report, slopes_report
from polyslope.slope_space import (
    _reconstruction,
    _unit_perimeters,
    build_chart,
    decomposition_lines,
    decomposition_polygons,
    tritangent_circle,
)
from polyslope.sweeps import CHECKS, run_sweep
from polyslope.tangential import tangential_critical_points
from polyslope.tolerances import DEFAULT_TOL

import test_family
import test_fuzz
from families import FOLD_PENTAGON, near_bifurcation_phis

SCALES = (1.0, 1e-3, 1e3)
# Scales of the near-bifurcation set: below 1 the band meets its floor.
BIFURCATION_SCALES = (1.0, 1e-3, 1e-6)
CENTERS = ((0.0, 0.0), (0.5, -2.0))
# |B| / sum|tan alpha| bands of the near-bifurcation polygons: roots to
# working precision, inside the default band, and just outside it.
BIFURCATION_BANDS = ((0.0, 0.0), (1e-12, 1e-10), (1e-9, 1e-7))
# A near-bifurcating cyclic 20-gon whose area index fails its roundoff bound.
TWENTY_GON = [
    184.30025685609274, 206.21740213744292, 15.028148676640019, 131.66832039705557,
    264.76044164346916, 339.18546486296907, 101.74227288767634, 76.35476859323035,
    106.49198321013189, 278.35609349368804, 23.135425637224472, 66.3398258699735,
    52.29599125304753, 35.108398530703596, 150.99585256637053, 357.514914136018,
    56.47385095278773, 335.7125208741396, 300.11357911029353, 123.9620304498942,
]
# Inputs of the cli set at the edge of what the program resolves, each
# analyzed, in text and --json, and rendered.  E1 exits 0 with its inradius
# 1.3e-13 off, which no check resolves.  The 20-gon fails its area index's
# roundoff bound, and E4 and test_fuzz.NEAR_PARALLEL[947] their gradient and
# area checks: each exits 3 with its reasons on stderr.  The fold pentagon's
# dual has a zero edge.
EDGE_CASES = (
    (("slopes", "analyze"), {"angles_deg": [0.08750000000000001, 0.1, 180.0, 180.05]}),
    (("cyclic", "analyze"), {"radius": 1, "phis_deg": TWENTY_GON}),
    (
        ("slopes", "analyze"),
        {
            "angles_deg": [
                82.37296368693613, 262.3729612294919, 262.37295261122074, 82.3729630048502,
                82.37296087848776, 262.372960367739, 262.3729632461403,
            ],
        },
    ),
    (("slopes", "analyze"), {"angles_deg": test_fuzz.NEAR_PARALLEL[947]}),
    (("cyclic", "analyze"), {"radius": 1, "phis_deg": FOLD_PENTAGON}),
)
# Flags of each analyze invocation of the cli set.
CLI_FLAGS = ((), ("--json",), ("--tol-scale", "1000"), ("--json", "--tol-scale", "1000"))
KERNELS = (
    "_unit_perimeters", "_reconstruction", "polygon_measures", "tangential_polygons",
    "decomposition_polygons", "tritangent_circle",
)
HELP = (
    (), ("slopes",), ("slopes", "analyze"), ("cyclic",), ("cyclic", "analyze"),
    ("sweep",), ("family",), ("render",),
)


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


def digest(outcomes, dump=None) -> tuple[int, str]:
    """How many outcomes, and the SHA-256 of their lines (bytes as they are),
    each also written to the text file ``dump`` when it is given."""
    sha, count = hashlib.sha256(), 0
    for line in outcomes:
        sha.update(line if isinstance(line, bytes) else line.encode() + b"\n")
        if dump:
            dump.write((line.hex() if isinstance(line, bytes) else line) + "\n")
        count += 1
    return count, sha.hexdigest()


def raw(make, *args) -> bytes:
    """The raw float64 bytes of the array or tuple of arrays that
    ``make(*args)`` returns, or the type and message of its error."""
    try:
        result = make(*args)
    except Exception as exc:  # an error is an output too
        return f"{type(exc).__name__}: {exc}\n".encode()
    arrays = result if isinstance(result, tuple) else (result,)
    return b"".join(np.asarray(array, dtype=float).tobytes() for array in arrays)


@functools.cache
def kernel_inputs() -> list:
    """(chart, radii rows, tangential points) of 3,000 seeded charts, n 3..14:
    the drawn, unit and first-axis rows, then one row per tangential point."""
    rng = np.random.default_rng(3000)
    inputs = []
    for _ in range(3000):
        n = int(rng.integers(3, 15))
        chart = build_chart(random_slope_system(rng, n))
        points = tangential_critical_points(chart)
        rows = [random_radii(rng, n - 2), np.ones(n - 2), np.eye(n - 2)[0]]
        rows += [np.full(n - 2, point.inradius) for point in points]
        inputs.append((chart, np.array(rows), points))
    return inputs


def kernel_outcomes(kernel):
    """The raw bytes of ``kernel`` on each chart of :func:`kernel_inputs`."""
    for chart, rows, points in kernel_inputs():
        angles, tol = chart.system.angles, chart.tol
        n = chart.n
        if kernel == "_unit_perimeters":
            yield raw(_unit_perimeters, angles)
            continue
        if kernel == "_reconstruction":
            yield raw(lambda: _reconstruction(chart, rows)[:4])
            yield raw(lambda: _reconstruction(chart, np.zeros(n - 2))[:4])
            continue
        vertices = _reconstruction(chart, rows)[0]
        lines = decomposition_lines(n)
        if kernel == "polygon_measures":
            yield raw(polygon_measures, vertices, angles, tol)
            triangles = decomposition_polygons(chart, PolygonChain(vertices[0]))
            yield raw(polygon_measures, triangles, angles[lines], tol)
        elif kernel == "tangential_polygons":
            centers = [point.incenter for point in points]
            yield raw(tangential_polygons, angles, centers, [p.inradius for p in points])
        elif kernel == "decomposition_polygons":
            for row in vertices[:3]:
                yield raw(decomposition_polygons, chart, PolygonChain(row))
        elif kernel == "tritangent_circle":
            for row in vertices[:3]:
                yield raw(tritangent_circle, angles[lines], edge_offsets(row, angles)[lines])
            yield raw(tritangent_circle, angles[lines], np.zeros((n - 2, 3)))


def near_bifurcation_inputs():
    rng = np.random.default_rng(24)
    for low, high in BIFURCATION_BANDS:
        for _ in range(40):
            yield near_bifurcation_phis(rng, int(rng.integers(4, 8)), low, high)


def cli_outcome(argv, tmp) -> str:
    """The JSON of the exit code, stdout, stderr and the SVG written to
    ``tmp/out.svg`` of ``cli.main(argv)``, with ``tmp`` written ``<tmp>``.
    A ``SystemExit`` (help, usage errors) gives its code, any other error
    its type and message."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    except Exception as exc:  # an error is an output too
        code = f"{type(exc).__name__}: {exc}"
    svg_path, svg = os.path.join(tmp, "out.svg"), None
    if os.path.exists(svg_path):
        with open(svg_path, encoding="utf-8") as handle:
            svg = handle.read()
        os.remove(svg_path)
    return json.dumps([code, out.getvalue(), err.getvalue(), svg]).replace(tmp, "<tmp>")


def cli_outcomes():
    os.environ["COLUMNS"] = "80"  # argparse wraps its help to this width
    with tempfile.TemporaryDirectory() as tmp:

        def run(*argv):
            return cli_outcome(list(argv), tmp)

        def write(payload):
            if isinstance(payload, dict):
                payload = json.dumps(payload)
            path = os.path.join(tmp, "input.json")
            with open(path, "wb") as handle:
                handle.write(payload if isinstance(payload, bytes) else payload.encode())
            return path

        svg = os.path.join(tmp, "out.svg")
        for command in HELP:
            yield run(*command, "--help")
        count = 150
        for angles in test_fuzz.ANGLES[:count] + test_fuzz.NEAR_PARALLEL[:count // 3]:
            path = write({"angles_deg": angles})
            for flags in CLI_FLAGS:
                yield run("slopes", "analyze", path, *flags)
        for phis, center in zip(test_fuzz.ANGLES[test_fuzz.COUNT:][:count], CENTERS * count):
            path = write({"radius": 1.0, "phis_deg": phis, "center": list(center)})
            for flags in CLI_FLAGS:
                yield run("cyclic", "analyze", path, *flags)
        for start, end, steps, scale in list(test_family.families())[::5]:
            path = write({"start_angles_deg": start, "end_angles_deg": end})
            flags = ["--steps", str(steps)] + ([] if scale == 1.0 else ["--tol-scale", repr(scale)])
            yield run("family", path, *flags)
            yield run("family", path, *flags, "--json")
        renders = (
            [{"angles_deg": a} for a in test_fuzz.ANGLES[:8]]
            + [{"radius": 2.0, "phis_deg": p} for p in test_fuzz.ANGLES[test_fuzz.COUNT:][:8]]
            + [{"start_angles_deg": s, "end_angles_deg": e} for s, e in test_family.FIXED[:2]]
        )
        renders += [payload for _, payload in EDGE_CASES]
        for payload in renders:
            path = write(payload)
            yield run("render", path, "-o", svg)
            yield run("render", path, "-o", svg, "--tol-scale", "1000")
        for command, payload in EDGE_CASES:
            path = write(payload)
            yield run(*command, path)
            yield run(*command, path, "--json")
        for seed in range(4):
            yield run("sweep", "--seed", str(seed), "--trials", "3")
            yield run("sweep", "--seed", str(seed), "--trials", "3", "--json")
        yield run("sweep", "--seed", "7", "--trials", "2", "--n-min", "3", "--n-max", "12",
                  "--tol-scale", "10")
        # Errors: usage, file, schema and option values.
        analyze = (("slopes", "analyze"), ("cyclic", "analyze"), ("family",))
        commands = analyze + (("render", "-o", svg),)
        for argv in ((), ("slopes",), ("sweep", "--bogus"), ("render", write({}))):
            yield run(*argv)
        invalid = ("{", b"\xff\xfe{", "1" * 5000, "[1, 2]", '{"angles_deg": [1e999, 0, 1]}')
        for payload in invalid + ({}, {"other": 1}):
            path = write(payload)
            for command in commands:
                yield run(*command, path)
        schema = (
            {"angles_deg": [0, 1]},
            {"angles_deg": [0, 1, "x"]},
            {"angles_deg": [0, 90, 180]},
            {"angles_deg": "0, 90, 200"},
            {"phis_deg": [0, 90, 200]},
            {"radius": -1, "phis_deg": [0, 90, 200]},
            {"radius": 1, "phis_deg": [0, 90, 200], "center": [0]},
            {"radius": 1, "phis_deg": [0, 90, 90]},
            {"radius": 1, "phis_deg": [0, 90, 270]},
            {"start_angles_deg": [0, 90, 200], "end_angles_deg": [0, 90]},
            {"start_angles_deg": [0, 90, 200]},
        )
        for payload in schema:
            path = write(payload)
            for command in commands:
                yield run(*command, path)
        path = write({"start_angles_deg": [0, 90, 200], "end_angles_deg": [0, 95, 200]})
        yield run("family", path, "--steps", "1")
        missing = os.path.join(tmp, "missing.json")
        for command in commands:
            yield run(*command, missing)
        yield run("render", write({"angles_deg": [90, 210, 330]}), "-o",
                  os.path.join(tmp, "no", "out.svg"))
        valid = (
            (("slopes", "analyze"), {"angles_deg": [90, 210, 330]}),
            (("cyclic", "analyze"), {"radius": 1, "phis_deg": [0, 144, 288, 72, 216]}),
            (("family",), {"start_angles_deg": [0, 90, 200], "end_angles_deg": [0, 95, 200]}),
            (commands[3], {"angles_deg": [90, 210, 330]}),
            (commands[3], {"start_angles_deg": [0, 90, 200], "end_angles_deg": [0, 95, 200]}),
        )
        for command, payload in valid:
            path = write(payload)
            for bad in ("-1", "0", "nan", "inf"):
                yield run(*command, path, "--tol-scale", bad)
        for flags in (("--seed", "-1"), ("--trials", "-1"), ("--n-min", "9", "--n-max", "4"),
                      ("--n-min", "1", "--n-max", "2"), ("--tol-scale", "-1")):
            yield run("sweep", "--trials", "1", *flags)


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
    families = [*test_family.families(), (*test_family.BESIDE_POLE, 3, 1.0)]
    yield "family", (
        outcome(family_report, start, end, steps, test_family.tolerances(scale))
        for start, end, steps, scale in families
    )
    near = list(near_bifurcation_inputs())
    for factor in BIFURCATION_SCALES:
        tol = test_family.tolerances(factor)
        name = "near bifurcation" + ("" if factor == 1.0 else f" x{factor:g}")
        yield name, (outcome(cyclic_report, 1.0, p, (0.0, 0.0), tol) for p in near)
    yield "cli", cli_outcomes()
    for kernel in KERNELS:
        yield f"kernels: {kernel}", kernel_outcomes(kernel)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digests of the program's outputs.")
    parser.add_argument("sets", nargs="*", metavar="SET")
    parser.add_argument("--dump", metavar="DIR", help="write each set's lines to DIR/<set>.txt")
    args = parser.parse_args()
    wanted, found = set(args.sets), set()
    if args.dump:
        os.makedirs(args.dump, exist_ok=True)
    for name, outcomes in sets():
        names = {name, name.split(":")[0]}  # "kernels" names every "kernels: NAME" set
        if wanted and not names & wanted:
            continue
        found |= names
        path = os.path.join(args.dump, f"{name}.txt") if args.dump else None
        with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext() as dump:
            count, hexdigest = digest(outcomes, dump)
        print(f"{name:<32} {count:>6}  {hexdigest}", flush=True)
    if wanted - found:
        sys.exit(f"no such set: {', '.join(sorted(wanted - found))}")
