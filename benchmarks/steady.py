"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 benchmarks/steady.py --workload census3d --runs 10
    python3 benchmarks/steady.py --workload verify --compare-trace

Runs the command of BENCHMARK.json from the repository root, once per seed,
and prints each end-to-end metric's median, quartiles and interquartile
spread as a share of the median, next to the metric's bound.  Every run
must be correct and fail the same share of its operations.  With
``--compare-trace`` it makes one untraced and one traced run on the same
seed, requires their per-operation results to be equal, and prints the
tracing overhead.  Run records go to benchmarks/results/.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def run_once(bench, workload, seed, trace, results=None):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    if results is not None:
        cmd += ["--results", str(results)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        sys.exit(f"incorrect results:\n{proc.stderr}")
    return out, elapsed


def spread_table(bench, runs):
    rows = []
    for m in bench["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        rows.append({"name": m["name"], "median": med, "q1": q1, "q3": q3,
                     "spread": share, "bound": m["bound"],
                     "steady": share < m["bound"] / 3})
    return rows


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--compare-trace", action="store_true")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")

    if args.compare_trace:
        files = [RESULTS / f"{args.workload}-{stamp}-trace{t}.json"
                 for t in (0, 1)]
        plain, t_plain = run_once(bench, args.workload, 1, 0, files[0])
        traced, t_traced = run_once(bench, args.workload, 1, 1, files[1])
        same = json.loads(files[0].read_text()) == \
            json.loads(files[1].read_text())
        print(f"per-op results equal: {same}")
        print(f"untraced run {t_plain:.2f} s, traced run {t_traced:.2f} s, "
              f"overhead {t_traced - t_plain:.2f} s "
              f"({(t_traced - t_plain) / plain['metrics']['wall_s']['value']:.1%}"
              " of wall_s)")
        for k, m in traced["metrics"].items():
            print(f"  {k:34s} {m['value']:.6g} {m['unit']}")
        return 0 if same else 1

    runs = []
    for seed in range(1, args.runs + 1):
        out, elapsed = run_once(bench, args.workload, seed, 0)
        runs.append(out)
        print(f"seed {seed}: {elapsed:.1f} s "
              + " ".join(f"{k}={m['value']:.4g}"
                         for k, m in out["metrics"].items()), flush=True)
    shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
    rows = spread_table(bench, runs)
    for r in rows:
        print(f"{r['name']:12s} median {r['median']:.4f} q1 {r['q1']:.4f} "
              f"q3 {r['q3']:.4f} spread {r['spread']:.2%} bound "
              f"{r['bound']:.0%} {'steady' if r['steady'] else 'NOT STEADY'}")
    print(f"failed share: {sorted(str(s) for s in shares)}")
    (RESULTS / f"{args.workload}-{stamp}.json").write_text(
        json.dumps({"runs": runs, "spread": rows}, indent=1))
    return 0 if len(shares) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
