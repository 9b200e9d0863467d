"""
Rendering figures
=================

Writes SVG figures into the directory given as the first argument, or next
to this script without one: tangential critical points with their inscribed
circles, and a cyclic polygon with its circumscribed circle and dual
tangential polygon.
"""

import pathlib
import sys

from polyslope.report import cyclic_report, slopes_report
from polyslope.svgrender import render_cyclic_svg, render_slopes_svg

here = pathlib.Path(__file__).resolve().parent
directory = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else here

figures = {
    "pentagon_critical_points.svg": render_slopes_svg(
        slopes_report([10, 80, 150, 230, 300])
    ),
    "saddleish_critical_points.svg": render_slopes_svg(
        slopes_report([0, 150, 72, 290])
    ),
    "pentagram_duality.svg": render_cyclic_svg(
        cyclic_report(1.0, [0, 144, 288, 72, 216])
    ),
    "wavy_cyclic_duality.svg": render_cyclic_svg(
        cyclic_report(1.3, [10, 95, 355, 150, 250, 305])
    ),
}

for name, svg in figures.items():
    path = directory / name
    path.write_text(svg + "\n", encoding="utf-8")
    print("wrote", path)
