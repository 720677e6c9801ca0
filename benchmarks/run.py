"""Run one benchmark workload of vfindex and print its metrics as JSON.

    python3 benchmarks/run.py --workload census3d --seed 1 --seconds 20 --trace 0

The workload's operations run in rounds, in an order drawn from ``--seed``,
until ``--seconds`` have passed; a round once started is finished, so every
run attempts whole rounds.  An operation's time is the median of its calls
(the short verify operations are called several times per round), and
``op_p50_s`` is the median of these over the operations.  With
``--trace 0`` the last line of output holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of ``layers.LayerTrace`` (per round).
Results are checked against the independent oracle after the timed rounds;
``--results FILE`` also writes each operation's result, so that traced and
untraced runs can be compared.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def _use_checkout_sources():
    """Import vfindex from the checkout this script sits in, never from an
    installed copy."""
    if not (SRC / "vfindex" / "__init__.py").is_file():
        sys.exit(f"run.py: no vfindex sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import vfindex
    if Path(vfindex.__file__).resolve().parent != (SRC / "vfindex").resolve():
        sys.exit(f"run.py: imported vfindex from {vfindex.__file__}")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("census3d", "census2d", "verify"))
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=None,
                   help="write each operation's result to this JSON file")
    return p.parse_args(argv)


def _heap_trimmer():
    """glibc's malloc_trim, or a no-op where there is none.  Called between
    operations, it hands freed heap pages back to the OS, so that the peak
    RSS is that of the largest operation whatever the order."""
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return lambda: None
    return lambda: trim(0)


def run_rounds(ops, seed, seconds, on_round_end=None):
    """Time whole rounds of ops, starting another round only while it is
    expected to end within ``seconds``.  Return each op name's call times,
    per-round times (the sum of the round's op times), the number of calls
    made and failed, and each op name's first outcome as (result, error)."""
    from vfindex.errors import VfError
    rng = random.Random(seed)
    op_times, round_times, outcomes = defaultdict(list), [], {}
    attempted = failed = 0
    release_free_heap = _heap_trimmer()
    start = time.perf_counter()
    while not round_times or (time.perf_counter() - start
                              + statistics.mean(round_times) <= seconds):
        order = list(ops)
        rng.shuffle(order)
        round_time = 0.0
        for op in order:
            t = time.perf_counter()
            try:
                outcome = (op.run(), None)
            except VfError as exc:
                outcome = (None, exc)
                failed += 1
            elapsed = time.perf_counter() - t
            op_times[op.name].append(elapsed)
            round_time += elapsed
            attempted += 1
            outcomes.setdefault(op.name, outcome)
            release_free_heap()
        round_times.append(round_time)
        if on_round_end is not None:
            on_round_end()
    return op_times, round_times, attempted, failed, outcomes


def check_outcomes(ops, outcomes):
    """Problems with the results, and each op's result in JSON form."""
    from workloads import is_known_fault_error
    problems, described = [], {}
    for op in {op.name: op for op in ops}.values():
        result, exc = outcomes[op.name]
        if exc is not None:
            described[op.name] = {"error": type(exc).__name__}
            if not is_known_fault_error(op, exc):
                print(f"run.py: {op.name} failed unexpectedly: "
                      f"{type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        described[op.name] = op.describe(result)
        problems += [f"{op.name}: {p}" for p in op.check(result)]
    return problems, described


def _pin_to_one_cpu():
    """Keep the single-threaded run on one CPU: on a shared machine the CPUs
    differ in speed, and migrating between them spreads the timings."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None):
    args = _parse(argv)
    _pin_to_one_cpu()
    _use_checkout_sources()
    import workloads
    wl = workloads.build(args.workload)
    setup_s = time.perf_counter() - _T0

    if args.trace:
        from layers import LayerTrace
        with LayerTrace() as trace:
            op_times, round_times, attempted, failed, outcomes = \
                run_rounds(wl.ops, args.seed, args.seconds, trace.end_round)
        layer_metrics = trace.metrics(len(round_times))
    else:
        op_times, round_times, attempted, failed, outcomes = run_rounds(
            wl.ops, args.seed, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, described = check_outcomes(wl.ops, outcomes)
    for p in problems:
        print(f"run.py: WRONG {p}", file=sys.stderr)
    if args.results:
        with open(args.results, "w") as f:
            json.dump(described, f, indent=1, sort_keys=True)

    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in layer_metrics.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(round_times), "unit": "s"},
            "op_p50_s": {"value": statistics.median(
                [statistics.median(ts) for ts in op_times.values()]),
                "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems,
                      "attempted": attempted,
                      "failed": failed,
                      "metrics": metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
