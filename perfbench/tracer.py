"""Spans around polyslope's public functions, recorded from outside the program.

``install`` rebinds each traced function, in every loaded ``polyslope``
module that holds it, to a wrapper that records a span: name, start, end,
parent span and the operation it belongs to.  The entries of
``sweeps.CHECKS`` are wrapped the same way.  Spans stay in memory until the
run writes them out.  The program itself is not modified.
"""

import functools
import importlib
import json
import sys
import time

# Traced functions, by module.  Their metric names are
# <module>.<function>.calls_per_op and <module>.<function>.self_us_per_op.
TRACED = {
    "geometry": ["polygon_from_lines", "signed_perimeter", "winding_number", "turning_sum"],
    "slope_space": [
        "build_chart",
        "unit_triangle",
        "polygon_from_radii",
        "radii_of_polygon",
        "tritangent_circle",
        "decomposition_polygons",
        "normalized_coordinates",
    ],
    "tangential": [
        "tangential_critical_points",
        "morse_index_eigen",
        "hessian_det_identity",
        "critical_gradient_norm",
        "hessian_fd_comparison",
        "well_conditioned_chart",
        "constrained_perimeter",
    ],
    "cyclic": [
        "cyclic_invariants",
        "bifurcation_test",
        "dual_polygon",
        "area_morse_index_numeric",
        "duality_index_check",
    ],
    "randomgen": [
        "random_slope_system",
        "random_convex_slope_system",
        "random_cyclic_polygon",
        "random_star_polygon",
    ],
    "report": ["slopes_report", "cyclic_report", "family_report"],
    "svgrender": ["render_slopes_svg", "render_cyclic_svg"],
}

# The entries of polyslope.sweeps.CHECKS, in order.
SWEEP_CHECKS = [
    "critical_gradient",
    "hessian_difference",
    "hessian_determinant",
    "index_agreement",
    "convex_indices",
    "chart_identities",
    "turning_signature",
    "dual_perimeter",
    "cyclic_indices",
]

GENERATORS = {f"randomgen.{name}" for name in TRACED["randomgen"]}

# Span fields.
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """In-memory span recorder; ``op`` tags every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []

    def wrap(self, name, func):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(index)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()

        return traced



def install(tracer: Tracer):
    """Wrap every traced function and every sweep check; returns the undo."""
    # Every module that can hold a traced name must be loaded before rebinding.
    for module_name in [*TRACED, "sweeps", "cli"]:
        importlib.import_module(f"polyslope.{module_name}")
    modules = [m for name, m in sys.modules.items()
               if name == "polyslope" or name.startswith("polyslope.")]
    rebound = []
    for module_name, functions in TRACED.items():
        home = sys.modules[f"polyslope.{module_name}"]
        for function in functions:
            original = getattr(home, function)
            wrapper = tracer.wrap(f"{module_name}.{function}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        rebound.append((module, attr, original))
    sweeps = sys.modules["polyslope.sweeps"]
    rebound.append((sweeps, "CHECKS", sweeps.CHECKS))
    sweeps.CHECKS = tuple(
        (name, tracer.wrap(f"sweeps.{name}", func)) for name, func in sweeps.CHECKS
    )

    def uninstall():
        for module, attr, original in rebound:
            setattr(module, attr, original)

    return uninstall


def self_times(spans) -> list[float]:
    """Duration of each span minus the time covered by its children.

    Spans come from one thread, so siblings never overlap and the time a
    span's children cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


def layer_metrics(spans, ops: int) -> dict:
    """Per-layer metrics of one traced pass over ``ops`` operations."""
    own = self_times(spans)
    calls = {}
    self_s = {}
    for span, t in zip(spans, own):
        calls[span[NAME]] = calls.get(span[NAME], 0) + 1
        self_s[span[NAME]] = self_s.get(span[NAME], 0.0) + t
    metrics = {}
    for module_name, functions in TRACED.items():
        for function in functions:
            name = f"{module_name}.{function}"
            metrics[f"{name}.calls_per_op"] = calls.get(name, 0) / ops
            metrics[f"{name}.self_us_per_op"] = 1e6 * self_s.get(name, 0.0) / ops
    draws = sum(calls.get(name, 0) for name in GENERATORS)
    charts = sum(
        1 for span in spans
        if span[NAME] == "slope_space.build_chart" and _under_generator(spans, span)
    )
    metrics["randomgen.charts_per_draw"] = charts / draws if draws else 0.0
    inclusive = {}
    for span in spans:
        if span[NAME].startswith("sweeps."):
            inclusive[span[NAME]] = inclusive.get(span[NAME], 0.0) + span[END] - span[START]
    for check in SWEEP_CHECKS:
        name = f"sweeps.{check}"
        metrics[f"{name}.trials_per_s"] = (
            calls[name] / inclusive[name] if inclusive.get(name) else 0.0
        )
    return metrics


def _under_generator(spans, span) -> bool:
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] in GENERATORS:
            return True
        parent = spans[parent][PARENT]
    return False


def write(spans, path) -> None:
    """Write spans as {"names": [...], "spans": [[name index, start, end, parent, op]]}."""
    names = sorted({s[NAME] for s in spans})
    code = {name: i for i, name in enumerate(names)}
    rows = [[code[s[NAME]], s[START], s[END], s[PARENT], s[OP]] for s in spans]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "names": names, "spans": rows}, handle)


def load(path):
    """Spans written by ``write``, with names restored."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    names = data["names"]
    return [[names[s[0]], s[1], s[2], s[3], s[4]] for s in data["spans"]]
