"""Steadiness of the benchmark: repeat each workload and compare spreads with bounds.

    python3 perfbench/steady.py --runs 10 --first-seed 1 --save steady-a.json
    python3 perfbench/steady.py --runs 10 --first-seed 101 --compare steady-a.json

Runs ``run.py --trace 0`` once per seed for each workload and prints, for
each end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median and
the metric's bound from BENCHMARK.json.  ``--compare`` adds the change of
each median against an earlier saved set, in the worse direction, which
must also stay within the bound.  The share of failed operations must be
the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--save", help="write the raw results to this file")
    parser.add_argument("--compare", help="an earlier --save file")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    previous = {}
    if args.compare:
        with open(args.compare, "r", encoding="utf-8") as handle:
            previous = json.load(handle)
    raw = {}
    steady = True
    for workload in names:
        runs = []
        for i in range(args.runs):
            begin = time.perf_counter()
            result = run_once(workload, args.first_seed + i, spec["run_seconds"])
            runs.append(result)
            print(f"{workload} seed {args.first_seed + i} ({time.perf_counter() - begin:.0f} s): "
                  + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        raw[workload] = runs
        shares = {(r["failed"], r["attempted"]) for r in runs}
        ratios = {f / a for f, a in shares}
        correct = all(r["correct"] for r in runs)
        print(f"{workload}: failed/attempted {sorted(shares)}, correct {correct}")
        steady &= correct and len(ratios) == 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            line = (f"  {name:<22} median {stats['median']:12.5g}  Q1 {stats['q1']:12.5g}  "
                    f"Q3 {stats['q3']:12.5g}  spread {stats['spread']:7.2%}  "
                    f"bound {metric['bound']:.0%}")
            if name != "setup_s":
                steady &= stats["spread"] <= metric["bound"]
            if workload in previous:
                old = statistics.median(r["metrics"][name]["value"] for r in previous[workload])
                worse = (stats["median"] - old) / old
                if metric["better"] == "higher":
                    worse = -worse
                line += f"  worse than before by {worse:7.2%}"
                steady &= worse <= metric["bound"]
            print(line, flush=True)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(raw, handle)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
