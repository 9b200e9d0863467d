"""One warm process running the sweep or analyze workload.

Started by run.py with PYTHONPATH=src, so polyslope is imported the way the
test suite imports it.  Writes one JSON result to the file named by --out.

    python3 perfbench/worker.py --workload analyze --seed 1 --seconds 20 \
        --trace 0 --out perfbench/out/result.json
"""

import argparse
import json
import os
import sys
import time

import calibrate
import checks
import inputs
import tracer
import workloads


def _import_program(root: str):
    import polyslope

    source = os.path.realpath(os.path.join(root, "src", "polyslope"))
    if os.path.dirname(os.path.realpath(polyslope.__file__)) != source:
        raise SystemExit(f"polyslope imported from {polyslope.__file__}, not {source}")
    from polyslope import report, sweeps

    return report, sweeps


def _analyze_call(report, op):
    if op["kind"] == "slopes":
        return lambda: report.slopes_report(op["angles_deg"])
    if op["kind"] == "cyclic":
        return lambda: report.cyclic_report(op["radius"], op["phis_deg"], tuple(op["center"]))
    return lambda: report.family_report(op["start"], op["end"], op["steps"])


def check_op(op, output) -> list[str]:
    if op["kind"] == "slopes":
        return checks.check_slopes(output, op["angles_deg"])
    if op["kind"] == "cyclic":
        return checks.check_cyclic(output, op["radius"], op["phis_deg"])
    return checks.check_family(output, op["start"], op["end"], op["steps"])


def analyze_pass(report, ops, trace, cal):
    """One timed pass over the reports: (latencies, starts, failures, outputs)."""
    calls = [_analyze_call(report, op) for op in ops]
    latencies, starts, failures, outputs = [], [], [], []
    clock = time.perf_counter
    for index, call in enumerate(calls):
        if trace is not None:
            trace.op = index
        cal.due()
        t0 = clock()
        starts.append(t0)
        try:
            outputs.append(call())
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs.append(None)
            failures.append(f"{ops[index]['label']}: {type(exc).__name__}: {exc}")
        latencies.append(clock() - t0)
    return latencies, starts, failures, outputs


def sweep_pass(sweeps, seeds, trace, cal):
    """One run_sweep block per seed, each check trial timed: (latencies, starts, [], dicts)."""
    latencies, starts = [], []
    clock = time.perf_counter

    def timed(func):
        def call(*args):
            cal.due()
            t0 = clock()
            starts.append(t0)
            try:
                return func(*args)
            finally:
                latencies.append(clock() - t0)
        return call

    checks_before = sweeps.CHECKS
    sweeps.CHECKS = tuple((name, timed(func)) for name, func in checks_before)
    outputs = []
    try:
        for index, seed in enumerate(seeds):
            if trace is not None:
                trace.op = index
            outputs.append(sweeps.run_sweep(seed, workloads.SWEEP_BLOCK_TRIALS).to_dict())
    finally:
        sweeps.CHECKS = checks_before
    return latencies, starts, [], outputs


def check_sweep(seeds, outputs) -> tuple[int, list[str], list[str]]:
    """(failed trials, their messages, problems) of one pass of sweep blocks."""
    failed, failures, problems = 0, [], []
    for seed, data in zip(seeds, outputs):
        for check in data["checks"]:
            failed += check["failed"]
            failures += [f"{check['name']} (block seed {seed}): {m}" for m in check["failures"]]
            if check["passed"] + check["failed"] + check["skipped"] != data["trials"]:
                problems.append(f"block seed {seed}: {check['name']} counts do not add up")
        if not data["all_passed"]:
            problems.append(f"block seed {seed}: the sweep failed")
    return failed, failures, problems


def timed_pass(one_pass, trace):
    """Latencies of one pass, scaled to the reference speed (calibrate.py)."""
    cal = calibrate.Calibrator()
    latencies, starts, errors, outputs = one_pass(trace, cal)
    cal.sample()
    scaled = [t * cal.scale(at) for t, at in zip(latencies, starts)]
    return scaled, errors, outputs


def measure(one_pass, check, passes: int, trace: tracer.Tracer | None, spans_path):
    """Run ``passes`` untraced passes, then, with ``trace``, as many traced ones.

    Every pass must give the outputs of the first, which ``check`` verifies.
    An operation's latency is its fastest pass.
    """
    times, failed, failures, problems = [], 0, [], []
    first = None
    for index in range(passes):
        latencies, errors, outputs = timed_pass(one_pass, None)
        times.append(latencies)
        if first is None:
            first = outputs
            extra_failed, extra_failures, problems = check(outputs)
        elif outputs != first:
            problems.append(f"pass {index + 1} gives other outputs than pass 1")
        failed += len(errors) + extra_failed
        failures += errors + extra_failures
    result = {
        "attempted": passes * len(times[0]),
        "failed": failed,
        "failures": failures,
        "problems": problems,
        "latencies": workloads.fastest(times),
    }
    if trace is not None:
        tracer.install(trace)
        traced = []
        for index in range(passes):
            traced.append(timed_pass(one_pass, trace)[0])
            if index == 0:
                result["layers"] = tracer.layer_metrics(trace.spans, len(times[0]))
                tracer.write(trace.spans, spans_path)
            trace.spans.clear()
        result["overhead_ratio"] = sum(result["latencies"]) / sum(workloads.fastest(traced))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=["sweep", "analyze"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="file for the spans of the first traced pass")
    args = parser.parse_args()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    report, sweeps = _import_program(root)
    trace = tracer.Tracer() if args.trace else None
    passes = workloads.PASSES[args.workload]
    if args.workload == "analyze":
        ops = workloads.ops_for("analyze", args.seed, args.seconds)
        warm = {}
        for op in ops:
            if op["label"] not in inputs.FAULTS:
                warm.setdefault(op["kind"], op)
        for op in warm.values():  # not timed
            _analyze_call(report, op)()

        def check(outputs):
            problems = []
            for op, output in zip(ops, outputs):
                if output is not None:
                    problems += [f"{op['label']}: {p}" for p in check_op(op, output)]
            return 0, [], problems

        result = measure(lambda t, cal: analyze_pass(report, ops, t, cal), check, passes,
                         trace, args.spans)
    else:
        seeds = workloads.sweep_seeds(args.seed, args.seconds)
        sweeps.run_sweep(seeds[0], 1)  # not timed
        result = measure(lambda t, cal: sweep_pass(sweeps, seeds, t, cal),
                         lambda outputs: check_sweep(seeds, outputs), passes, trace, args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    sys.exit(main())
