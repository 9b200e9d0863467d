"""Command-line front end.

Subcommands::

    polyslope slopes analyze FILE [--json] [--tol-scale X]
    polyslope cyclic analyze FILE [--json] [--tol-scale X]
    polyslope sweep --seed S --trials T --n-min A --n-max B [--json] [--tol-scale X]
    polyslope family FILE --steps K [--json] [--tol-scale X]
    polyslope render FILE -o OUT.svg [--tol-scale X]

``slopes analyze``, ``cyclic analyze`` and ``family`` run one command,
:func:`cmd_analyze`, which reads the input kind from the parser and the
report from :func:`polyslope.report.analyze`; ``render`` detects the kind,
calls the same function and exits as the analysis does.

Exit codes: 0 success, 2 input error (an :class:`~polyslope.errors.InputError`
or an ``OSError``), 3 property or cross-check failure (any other
:class:`~polyslope.errors.PolyslopeError`, or a report whose cross-checks
fail).  Any other exception is a fault of the library and propagates with
its traceback.  Output is deterministic for identical inputs and seeds.
"""

import argparse
import json
import sys

from .errors import InputError, InputSchemaError, PolyslopeError
from .report import analyze, detect_kind, load_input_file
from .tolerances import DEFAULT_TOL

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PROPERTY = 3


def _tolerances(args):
    scale = getattr(args, "tol_scale", 1.0)
    try:
        return DEFAULT_TOL if scale == 1.0 else DEFAULT_TOL.scaled(scale)
    except ValueError as exc:
        raise InputSchemaError(f"--tol-scale: {exc}") from exc


def _format_slopes_text(report: dict) -> str:
    lines = ["slopes analysis"]
    turning = report["turning"]
    lines.append(
        f"  angle sum: {turning['angle_sum_deg']:.6f} deg "
        f"({turning['half_turns']} half turns), "
        f"right turns {turning['right_turns']}, left turns {turning['left_turns']}"
    )
    chart = report["chart"]
    lines.append(
        "  unit perimeters: "
        + ", ".join(f"{p:+.6f}" for p in chart["unit_perimeters"])
        + f"  (sum {chart['perimeter_sum']:+.6f})"
    )
    topo = report["topology"]
    lines.append(
        f"  topology: negative {topo['negative_component']['description']}, "
        f"positive {topo['positive_component']['description']}"
    )
    critical = report["critical"]
    if critical["exceptional"]:
        lines.append("  exceptional: no critical points of the perimeter")
    else:
        for point in critical["points"]:
            lines.append(
                f"  critical point: r {point['inradius']:+.6f}, "
                f"perimeter {point['perimeter']:+.6f}, area {point['area']:+.1f}, "
                f"winding {point['winding']}, index {point['index_eigen']} "
                f"(formula {point['index_formula']}, "
                f"agree {'yes' if point['agreement'] else 'NO'}), "
                f"gradient {point['gradient_norm']:.2e}"
            )
    return "\n".join(lines)


def _format_cyclic_text(report: dict) -> str:
    lines = ["cyclic analysis"]
    inv = report["invariants"]
    lines.append(
        f"  orientations: {inv['edge_orientations']}, positive edges {inv['positive_edges']}, "
        f"winding {inv['winding']}"
    )
    lines.append(
        f"  tangent sum: {inv['bifurcation_sum']:+.6f} "
        f"(bifurcating: {'yes' if report['bifurcating'] else 'no'})"
    )
    dual = report["dual"]
    lines.append(
        f"  dual perimeter: {dual['signed_perimeter']:+.6f} "
        f"(2*R*sum: {dual['twice_radius_times_sum']:+.6f})"
    )
    indices = report["indices"]
    if indices.get("withheld"):
        lines.append(f"  indices withheld: {indices['reason']}")
    else:
        lines.append(
            f"  area index: numeric {indices['mu_area_numeric']}, "
            f"formula {indices['mu_area_formula']}, "
            f"dual perimeter index {indices['mu_dual_perimeter']}, "
            f"identity {'holds' if indices['identity_holds'] else 'FAILS'}"
        )
    return "\n".join(lines)


def _format_family_text(report: dict) -> str:
    lines = ["family sweep"]
    header = f"  {'t':>8}  {'perimeter sum':>14}  {'critical':>8}  indices"
    lines.append(header)
    for row in report["rows"]:
        if row["status"] != "ok":
            lines.append(f"  {row['t']:8.4f}  {'invalid: ' + row['reason']}")
            continue
        indices = row.get("indices", [])
        lines.append(
            f"  {row['t']:8.4f}  {row['perimeter_sum']:+14.6f}  "
            f"{row['critical_points']:>8}  {indices}"
        )
    for bracket in report["sign_changes"]:
        lines.append(
            f"  perimeter-sum sign change bracketed in "
            f"t = [{bracket['t_low']:.12f}, {bracket['t_high']:.12f}]"
        )
    if not report["sign_changes"]:
        lines.append("  no root of the perimeter sum bracketed")
    return "\n".join(lines)


FORMATS = {"slopes": _format_slopes_text, "cyclic": _format_cyclic_text, "family": _format_family_text}


def _cross_check_failures(report: dict) -> list[str]:
    """Each failed cross-check of a report, with its error and bound."""
    problems = []
    if report["kind"] == "slopes":
        for point in report["critical"].get("points", []):
            side = "(r > 0)" if point["inradius"] > 0 else "(r < 0)"
            if not point["agreement"]:
                eigen, formula = point["index_eigen"], point["index_formula"]
                problems.append(f"index {eigen} disagrees with formula {formula} {side}")
            # The sweep runner's rule: a NaN error fails.
            for error, bound in (("gradient_norm", "gradient_bound"), ("area_error", "area_bound")):
                if not point[error] <= point[bound]:
                    label, value, limit = error.replace("_", " "), point[error], point[bound]
                    problems.append(f"{label} {value:.1e} over bound {limit:.1e} {side}")
    elif report["kind"] == "cyclic":
        indices = report["indices"]
        if not indices.get("withheld") and not indices.get("identity_holds", True):
            numeric, formula = indices["mu_area_numeric"], indices["mu_area_formula"]
            problems.append(f"area index {numeric} disagrees with formula {formula}")
    return problems


def _exit_code(report: dict) -> int:
    """EXIT_PROPERTY, each failed cross-check on stderr as a raised one, or EXIT_OK."""
    failures = _cross_check_failures(report)
    for failure in failures:
        print(f"cross-check failure: {failure}", file=sys.stderr)
    return EXIT_PROPERTY if failures else EXIT_OK


def cmd_analyze(args) -> int:
    """``slopes analyze``, ``cyclic analyze`` and ``family``: the parser
    sets ``args.kind``."""
    data = load_input_file(args.file)
    report = analyze(args.kind, data, _tolerances(args), getattr(args, "steps", None))
    print(json.dumps(report) if args.json else FORMATS[args.kind](report))
    return _exit_code(report)


def cmd_sweep(args) -> int:
    # Imported here: the sweep's generators load numpy.random, which no
    # other subcommand needs.
    from .sweeps import run_sweep

    if args.seed < 0 or args.trials < 0:
        raise InputSchemaError("--seed and --trials must be non-negative integers")
    if args.n_min > args.n_max:
        raise InputSchemaError("--n-min must not exceed --n-max")
    result = run_sweep(
        seed=args.seed,
        trials=args.trials,
        n_range=(args.n_min, args.n_max),
        tol=_tolerances(args),
    )
    if args.trials and not any(t.passed or t.failed for t in result.tallies):
        raise InputSchemaError(
            f"--n-min {args.n_min} and --n-max {args.n_max} admit no polygon size "
            "that any check draws"
        )
    print(json.dumps(result.to_dict()) if args.json else result.format_text())
    return EXIT_PROPERTY if result.total_failed else EXIT_OK


def cmd_render(args) -> int:
    from .svgrender import render_cyclic_svg, render_slopes_svg

    data = load_input_file(args.file)
    kind = detect_kind(data)
    tol = _tolerances(args)
    if kind == "family":
        raise InputSchemaError("render expects a slopes or cyclic input file")
    render = render_slopes_svg if kind == "slopes" else render_cyclic_svg
    report = analyze(kind, data, tol)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(render(report) + "\n")
    print(f"wrote {args.output}")
    return _exit_code(report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyslope",
        description="Polygons with prescribed edge slopes: perimeter critical "
        "points, Morse indices, and cyclic-polygon duality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_json=True):
        if with_json:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--tol-scale",
            type=float,
            default=1.0,
            help="multiply by this positive factor the tolerances (1e-9) of parallel lines and "
            "of the exceptional and bifurcation loci; the constructors keep consecutive lines "
            "and cyclic vertices 1e-9 rad apart at any scale, and the bifurcation band stays "
            "1e-9 wide or wider, as the numeric area index resolves no narrower (n 4..9)",
        )

    slopes = sub.add_parser("slopes", help="slope-system commands")
    slopes_sub = slopes.add_subparsers(dest="subcommand", required=True)
    slopes_analyze = slopes_sub.add_parser("analyze", help="full analysis of a slopes file")
    slopes_analyze.add_argument("file")
    common(slopes_analyze)
    slopes_analyze.set_defaults(func=cmd_analyze, kind="slopes")

    cyclic = sub.add_parser("cyclic", help="cyclic-polygon commands")
    cyclic_sub = cyclic.add_subparsers(dest="subcommand", required=True)
    cyclic_analyze = cyclic_sub.add_parser("analyze", help="full analysis of a cyclic file")
    cyclic_analyze.add_argument("file")
    common(cyclic_analyze)
    cyclic_analyze.set_defaults(func=cmd_analyze, kind="cyclic")

    sweep = sub.add_parser("sweep", help="randomized invariant sweep")
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--trials", type=int, default=100)
    sweep.add_argument("--n-min", type=int, default=4)
    sweep.add_argument("--n-max", type=int, default=9)
    common(sweep)
    sweep.set_defaults(func=cmd_sweep)

    family = sub.add_parser("family", help="interpolate two slope systems")
    family.add_argument("file")
    family.add_argument("--steps", type=int, default=11)
    common(family)
    family.set_defaults(func=cmd_analyze, kind="family")

    render = sub.add_parser("render", help="render an input file to SVG")
    render.add_argument("file")
    render.add_argument("-o", "--output", required=True)
    common(render, with_json=False)
    render.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PolyslopeError as exc:
        print(f"cross-check failure: {exc}", file=sys.stderr)
        return EXIT_PROPERTY


if __name__ == "__main__":
    sys.exit(main())
