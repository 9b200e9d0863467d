"""Benchmark of polyslope: the cli, sweep and analyze workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Prints a few readable lines, then, as the last line, one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1 they
are its per-layer metrics, from a pass with every traced function wrapped
(see tracer.py) next to an untraced pass over the same operations.
See README.md for the workloads, the metrics and the reference figures.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("cli", "sweep", "analyze")
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5
CLI_TIMEOUT_S = 60.0
WORKER_TIMEOUT_S = 170.0


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, a child that hung)."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env.pop("PYTHONHOME", None)
    return env


def spawn(argv, stdout_path, stderr_path, timeout):
    """Run one child to its end; returns (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        begin = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - begin
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss / 1024.0


def _python(code: str, scratch: str) -> tuple[str, float]:
    out = os.path.join(scratch, "probe.out")
    code_, elapsed, _ = spawn([sys.executable, "-c", code], out,
                              os.path.join(scratch, "probe.err"), CLI_TIMEOUT_S)
    with open(out, "r", encoding="utf-8") as handle:
        text = handle.read()
    if code_ != 0:
        raise BenchmarkError(f"probe exited {code_}: {code}")
    return text, elapsed


def _import_program(scratch: str) -> tuple[float, float]:
    """Import polyslope in a fresh interpreter: (seconds inside it, wall seconds)."""
    source = os.path.realpath(os.path.join(ROOT, "src", "polyslope"))
    text, wall = _python("import time; t = time.perf_counter(); import polyslope; "
                         "print(time.perf_counter() - t, polyslope.__file__)", scratch)
    inside, path = text.split(maxsplit=1)
    if os.path.dirname(os.path.realpath(path.strip())) != source:
        raise BenchmarkError(f"polyslope imported from {path.strip()}, not {source}")
    return float(inside), wall


def setup_seconds(scratch: str) -> float:
    """Median wall time of fresh interpreters that import polyslope."""
    return statistics.median(_import_program(scratch)[1] for _ in range(SETUP_SAMPLES))


def import_layers(scratch: str) -> dict:
    """Import times in fresh interpreters, medians of IMPORT_SAMPLES each."""
    libs = ("import time; t = time.perf_counter(); import numpy; a = time.perf_counter(); "
            "import scipy.linalg; b = time.perf_counter(); print(a - t, b - a)")
    numpy_s, scipy_s, program_s = [], [], []
    for _ in range(IMPORT_SAMPLES):
        a, b = map(float, _python(libs, scratch)[0].split())
        numpy_s.append(a)
        scipy_s.append(b)
        program_s.append(_import_program(scratch)[0])
    return {
        "import.numpy_ms": 1e3 * statistics.median(numpy_s),
        "import.scipy_linalg_ms": 1e3 * statistics.median(scipy_s),
        "import.polyslope_ms": 1e3 * statistics.median(program_s),
    }


# ---------------------------------------------------------------------------
# cli: one fresh process per operation.
# ---------------------------------------------------------------------------


def _cli_input(op) -> dict:
    if op["kind"] == "slopes":
        return {"angles_deg": op["angles_deg"]}
    if op["kind"] == "cyclic":
        return {"radius": op["radius"], "phis_deg": op["phis_deg"], "center": op["center"]}
    return {"start_angles_deg": op["start"], "end_angles_deg": op["end"]}


def _cli_args(op, path, svg) -> list[str]:
    if op["command"] == "render":
        return ["render", path, "-o", svg]
    if op["command"] == "family":
        return ["family", path, "--steps", str(op["steps"]), "--json"]
    return [op["command"], "analyze", path, "--json"]


def _check_cli(op, stdout: str, svg: str, svg_text: str | None) -> list[str]:
    if op["command"] == "render":
        if stdout.strip() != f"wrote {svg}":
            return [f"render printed {stdout!r}"]
        n = len(op["angles_deg"] if op["kind"] == "slopes" else op["phis_deg"])
        return checks.check_svg(svg_text, n)
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    if op["kind"] == "slopes":
        return checks.check_slopes(report, op["angles_deg"])
    if op["kind"] == "cyclic":
        return checks.check_cyclic(report, op["radius"], op["phis_deg"])
    return checks.check_family(report, op["start"], op["end"], op["steps"])


def cli_pass(ops, scratch, launcher=None):
    """Run every operation as a fresh process, once.

    ``launcher`` is None for ``python -m polyslope.cli``, else "plain" or
    "traced" for perfbench/cli_launcher.py, which times cli.main and, when
    traced, records spans.  Returns latencies, peak RSS, exit codes and the
    launcher's record files.
    """
    latencies, rss, codes, records, outputs = [], [], [], [], []
    for index, op in enumerate(ops):
        path = os.path.join(scratch, f"op{index}.json")
        svg = os.path.join(scratch, f"op{index}.svg")
        stdout_path = os.path.join(scratch, f"op{index}.out")
        args = _cli_args(op, path, svg)
        if launcher is None:
            argv = [sys.executable, "-m", "polyslope.cli"] + args
        else:
            record = os.path.join(scratch, f"op{index}.record.json")
            spans = os.path.join(scratch, f"op{index}.spans.json") if launcher == "traced" else "-"
            argv = [sys.executable, os.path.join(HERE, "cli_launcher.py"), record, spans] + args
            records.append((record, spans))
        code, elapsed, peak = spawn(argv, stdout_path, stdout_path + ".err", CLI_TIMEOUT_S)
        latencies.append(elapsed)
        rss.append(peak)
        codes.append(code)
        outputs.append(_read_outputs(op, stdout_path, svg) if code == 0 else None)
    return {"latencies": latencies, "rss": rss, "codes": codes, "records": records,
            "outputs": outputs}


def _read_outputs(op, stdout_path, svg):
    """What the operation printed and, for render, the SVG it wrote."""
    with open(stdout_path, "r", encoding="utf-8") as handle:
        stdout = handle.read()
    if op["command"] != "render":
        return stdout, None
    with open(svg, "r", encoding="utf-8") as handle:
        return stdout, handle.read()


def _check_cli_passes(ops, passes, scratch):
    """Failures of every pass, and problems of the outputs against the oracles."""
    failures, problems = [], []
    for one in passes:
        for index, (op, code) in enumerate(zip(ops, one["codes"])):
            if code != 0:
                with open(os.path.join(scratch, f"op{index}.out.err"), "r",
                          encoding="utf-8") as handle:
                    last = handle.read().strip().splitlines()[-1:]
                failures.append(f"{op['label']}: exit {code} {last}")
    for index, op in enumerate(ops):
        outputs = [one["outputs"][index] for one in passes]
        if outputs[0] is not None:
            stdout, svg_text = outputs[0]
            svg = os.path.join(scratch, f"op{index}.svg")
            problems += [f"{op['label']}: {p}" for p in _check_cli(op, stdout, svg, svg_text)]
        if any(out != outputs[0] for out in outputs[1:]):
            problems.append(f"{op['label']}: passes print different outputs")
    return failures, problems


def run_cli(args, scratch, spans_path) -> dict:
    ops = workloads.ops_for("cli", args.seed, args.seconds)
    for index, op in enumerate(ops):
        with open(os.path.join(scratch, f"op{index}.json"), "w", encoding="utf-8") as handle:
            json.dump(_cli_input(op), handle)
    # A traced run makes one plain and one traced pass, to stay well within
    # the time a run may take; its figures have no bound.
    count = 1 if args.trace else workloads.PASSES["cli"]
    launcher = "plain" if args.trace else None
    passes = [cli_pass(ops, scratch, launcher) for _ in range(count)]
    failures, problems = _check_cli_passes(ops, passes, scratch)
    result = {
        "attempted": count * len(ops),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "latencies": workloads.fastest([p["latencies"] for p in passes]),
        "peak_rss_mb": max(max(p["rss"]) for p in passes),
    }
    if not args.trace:
        return result
    main_s = []
    for one in passes:
        times = []
        for record, _ in one["records"]:
            with open(record, "r", encoding="utf-8") as handle:
                times.append(json.load(handle)["main_s"])
        main_s.append(times)
    traced = cli_pass(ops, scratch, "traced")
    spans = []
    for op_index, (_, path) in enumerate(traced["records"]):
        offset = len(spans)
        for span in tracer.load(path):
            if span[tracer.PARENT] >= 0:
                span[tracer.PARENT] += offset
            span[tracer.OP] = op_index
            spans.append(span)
    tracer.write(spans, spans_path)
    result["problems"] += _check_cli_passes(ops, [traced], scratch)[1]
    result["layers"] = tracer.layer_metrics(spans, len(ops))
    result["layers"]["cli.main_ms"] = 1e3 * statistics.mean(workloads.fastest(main_s))
    result["overhead_ratio"] = sum(result["latencies"]) / sum(traced["latencies"])
    return result


# ---------------------------------------------------------------------------
# sweep and analyze: one warm worker process.
# ---------------------------------------------------------------------------


def run_worker(args, scratch, spans_path) -> dict:
    out = os.path.join(scratch, "worker.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", out, "--spans", spans_path]
    code, _, peak = spawn(argv, os.path.join(scratch, "worker.out"),
                          os.path.join(scratch, "worker.err"), WORKER_TIMEOUT_S)
    if code != 0:
        with open(os.path.join(scratch, "worker.err"), "r", encoding="utf-8") as handle:
            sys.stderr.write(handle.read())
        raise BenchmarkError(f"worker exited {code}")
    with open(out, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    result["peak_rss_mb"] = peak
    if args.trace:
        result["layers"]["cli.main_ms"] = 0.0
    return result


# ---------------------------------------------------------------------------


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


def end_to_end(result, setup_s) -> dict:
    latencies = result["latencies"]
    return {
        "setup_s": setup_s,
        "throughput_ops_per_s": len(latencies) / sum(latencies),
        "latency_ms.p50": 1e3 * statistics.median(latencies),
        "latency_ms.tail": 1e3 * tail(latencies),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "polyslope", "__init__.py")):
        print("error: no program at src/polyslope", file=sys.stderr)
        return 2
    with open(spec_path, "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(HERE, "out")
    scratch = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    spans_path = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
    try:
        if args.trace:
            setup_s = None
            imports = import_layers(scratch)
        else:
            setup_s = setup_seconds(scratch)
        if args.workload == "cli":
            result = run_cli(args, scratch, spans_path)
        else:
            result = run_worker(args, scratch, spans_path)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = dict(result["layers"])
        metrics.update(imports)
        metrics["trace.overhead_ratio"] = result["overhead_ratio"]
    else:
        metrics = end_to_end(result, setup_s)
    shutil.rmtree(scratch, ignore_errors=True)

    names = {m["name"] for m in declared}
    if set(metrics) != names:
        print(f"error: metrics {sorted(set(metrics) ^ names)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    for message in result["failures"]:
        print(f"failed: {message}", file=sys.stderr)
    for message in result["problems"]:
        print(f"wrong: {message}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {result['attempted']} operations, "
          f"{result['failed']} failed, {len(result['problems'])} wrong outputs")
    for m in declared:
        print(f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
