"""Benchmark runner for the sutured CLI.

    python3 bench/run.py --workload closed-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, both runs

With ``--workload`` it runs one workload in this process: set-up (import,
input building, plan generation, document writing; repeated, median
reported), set-up checks, then passes over the workload's operations
while another pass is expected to end within ``--seconds`` (at least
one).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each call and
each set-up step is timed by ``clock.Sampled``: a timer interrupts it to
time a small fixed calibration chunk, and its time is scaled by a
reference chunk time over the mean chunk time during it.  On a core
shared with other tenants a call runs up to twice as slow while a
neighbour is busy, and the scaled time does not move with that.  ``wall_s`` is one pass at the operations'
median scaled times (their sum), ``largest_op_s`` the median of those
times over the inputs with the most faces.  The unscaled time per pass
is printed beside them.
A traced run makes traced and untraced passes in turn; every
operation's stdout must match the first pass's.

Without ``--workload`` it runs every workload untraced and traced, each
in a fresh process, and prints the end-to-end and per-layer tables.

An operation fails on a nonzero exit, a wrong known rank or a failed
route check.  ``correct`` is false when an output breaks the CLI's
contract or an invariant (anything but a wrong known rank or an exit-1
refusal), when stdout differs between passes or between the traced and
untraced run, or when a set-up diagram fails its checks.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5

# The metrics in the JSON line.  op_p50_s, op_tail_s and fail_ratio are
# printed too: the first two are over every timed call, slow repeats
# included, so their spread across runs on a shared machine is too wide
# for a bound; op_tail_s needs 20 operations, and fail_ratio (failed /
# attempted in the JSON) can be 0.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("largest_op_s", "s"), ("peak_rss_mb", "MB"))


def _tail(times):
    """The highest percentile with at least 10 samples beyond it, once
    that percentile is at least the median (20 samples or more)."""
    n = len(times)
    if n < 20:
        return None
    k = n - 11
    return sorted(times)[k], 100.0 * (k + 1) / n


def run_passes(ops, seconds, reference=None):
    """Passes over ``ops`` while another is expected to end within
    ``seconds`` (at least one).

    Returns a list of passes, each a list of ``(op, outcome, status,
    detail)``.  With ``reference`` (digests by op index), a differing
    stdout is recorded as broken.
    """
    import workloads as wl

    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        rows = []
        for i, op in enumerate(ops):
            res = wl.run_op(op)
            status, detail = wl.classify(op.instance, res)
            if reference is not None and reference[i] != res.digest():
                status, detail = wl.BROKEN, "stdout differs from the reference pass"
            rows.append((op, res, status, detail))
        if reference is None:
            reference = [res.digest() for (_op, res, _s, _d) in rows]
        passes.append(rows)
    return passes


def run_workload(name, seed, seconds, trace):
    """Run one workload; returns (summary lines, result dict)."""
    sys.path[:0] = [SRC, HERE]
    with clock.Sampled() as imported:
        import workloads as wl  # imports the library

    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            with clock.Sampled() as built:
                instances = wl.build(name, seed)
                ops = wl.write(instances, workdir)
            builds.append(built.scaled)
        problems = wl.setup_problems(instances)
        if trace:
            untraced, traced, per_pass = run_traced(ops, seconds)
            passes = untraced + traced
        else:
            passes = run_passes(ops, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setup_s = imported.scaled + statistics.median(builds)
    rows = [r for p in passes for r in p]
    failed = [r for r in rows if r[2] != wl.OK]
    by_status = {s: sum(r[2] == s for r in rows) for s in (wl.RANK_MISMATCH, wl.REFUSED, wl.BROKEN)}
    lines = [f"{name} seed {seed} trace {int(trace)}: {len(passes)} passes, {len(rows)} operations"]
    if trace:
        untraced_wall = sum(calibrated(untraced))
        for rows_t, m in zip(traced, per_pass):
            m["check.rank_mismatch"] = sum(r[2] == wl.RANK_MISMATCH for r in rows_t)
            m["check.refused"] = sum(r[2] == wl.REFUSED for r in rows_t)
            m["trace.overhead_ratio"] = sum(calibrated([rows_t])) / untraced_wall
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    else:
        times = [r[1].seconds for r in rows]
        per_op = calibrated(passes)
        size = max(op.instance.size() for op in ops)
        largest = [i for i, op in enumerate(ops) if op.instance.size() == size]
        metrics = {
            "setup_s": setup_s,
            "wall_s": sum(per_op),
            "largest_op_s": statistics.median(per_op[i] for i in largest),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        for key, unit in END_TO_END:
            lines.append(f"  {key:<14} {metrics[key]:.6g} {unit}")
        lines.append(f"  {'':<14} (largest: {len(largest)} inputs of {size} faces)")
        raw_wall = statistics.median(sum(r[1].seconds for r in p) for p in passes)
        slowdown = statistics.median(r[1].chunk for r in rows) / clock.REFERENCE_CHUNK_S
        lines.append(f"  {'raw wall':<14} {raw_wall:.6g} s per pass, as timed (core {slowdown:.2f}x "
                     "slower than the reference, median)")
        lines.append(f"  {'op_p50_s':<14} {statistics.median(times):.6g} s")
        tail = _tail(times)
        lines.append(
            f"  {'op_tail_s':<14} "
            + (f"{tail[0]:.6g} s (p{tail[1]:.0f} of {len(times)} operations)" if tail
               else f"n/a ({len(times)} operations, needs 20)")
        )
    lines.append(f"  {'fail_ratio':<14} {len(failed) / len(rows):.4f} ({len(failed)} of {len(rows)}: "
                 + ", ".join(f"{k} {v}" for k, v in by_status.items()) + ")")
    seen = set()
    for op, _res, status, detail in failed:
        if (op.instance.label, detail) not in seen:
            seen.add((op.instance.label, detail))
            lines.append(f"  {status}: {op.instance.label}: {detail[:160]}")
    lines += [f"  set-up check failed: {p}" for p in problems]
    result = {
        "correct": not by_status[wl.BROKEN] and not problems,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return lines, result


def calibrated(passes):
    """Each operation's median time over passes, every time scaled to the
    reference chunk time: a call during which the chunks took 1.5x the
    reference counts two thirds of its time."""
    return [statistics.median(p[i][1].seconds * clock.REFERENCE_CHUNK_S / p[i][1].chunk
                              for p in passes)
            for i in range(len(passes[0]))]


def run_traced(ops, seconds):
    """Traced and untraced passes in turn, a traced one first, so the
    overhead ratio compares neighbouring passes; every pass's stdout must
    match the first's.  Returns (untraced passes, traced passes,
    per-layer metrics per traced pass).
    """
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced, per_pass, reference = [], [], [], None
    t0 = time.perf_counter()
    while not untraced or (time.perf_counter() - t0) * (len(untraced) + 1) / len(untraced) <= seconds:
        tracer.reset()
        tracer.install()
        try:
            traced += run_passes(ops, 0, reference)
        finally:
            tracer.uninstall()
        per_pass.append(tracer.metrics())
        reference = reference or [res.digest() for (_op, res, _s, _d) in traced[0]]
        untraced += run_passes(ops, 0, reference)
    return untraced, traced, per_pass


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(seed, seconds):
    """Every workload untraced and traced, each in a fresh process."""
    results = {}
    for name in _workload_names():
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900, cwd=ROOT,
            )
            out = proc.stdout.splitlines()
            if proc.returncode != 0 or not out:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} (trace {trace}) exited {proc.returncode}")
            print("\n".join(out[:-1]), flush=True)
            results[name, trace] = json.loads(out[-1])
    names = _workload_names()
    width = max(len(n) for n in names) + 2
    for title, trace in (("end-to-end (untraced runs)", 0), ("per-layer (traced runs)", 1)):
        print(f"\n{title}")
        print(f"{'metric':<44}{'unit':<7}" + "".join(f"{n:>{width}}" for n in names))
        for key in results[names[0], trace]["metrics"]:
            vals = [results[n, trace]["metrics"][key]["value"] for n in names]
            unit = results[names[0], trace]["metrics"][key]["unit"]
            print(f"{key:<44}{unit:<7}" + "".join(f"{v:>{width}.4g}" for v in vals))
        print(f"{'fail_ratio':<44}{'ratio':<7}" + "".join(
            f"{results[n, trace]['failed'] / results[n, trace]['attempted']:>{width}.4g}"
            for n in names))
        print(f"{'correct':<51}" + "".join(f"{str(results[n, trace]['correct']):>{width}}"
                                           for n in names))


def _workload_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sutured", "cli.py")):
        print(f"no sutured sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        run_all(args.seed, args.seconds)
        return 0
    if args.workload not in _workload_names():
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    lines, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
