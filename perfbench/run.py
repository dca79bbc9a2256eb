"""Run one workload of the omegadec benchmark and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload exact_free --seed 1 --seconds 20 --trace 0

One process runs a closed loop with one client: each operation starts when
the previous one has finished. The loop runs whole rounds (see workloads.py)
until `--seconds` have passed, so every run holds the same mix of operations.

Operation times are rescaled to a reference machine speed. On a shared 2-core
VM the machine's speed changed by up to 2x from one second to the next, which
spread raw wall times of one revision by 15-50% across runs. So every few
tenths of a second, between operations, the loop times a fixed piece of work
that never calls the library (calibration.py), and multiplies each operation's
wall time by the work's reference time over the mean of its times just before
and just after the operation. The work is interpreter work in this process, or
a bare child interpreter where the operations run in child interpreters. A
change to omegadec moves rescaled and raw times alike; the raw ones are in the
metadata line.

With `--trace 0` the last line of standard output is the end-to-end result;
with `--trace 1` it holds the per-layer metrics of a traced run instead. The
line before it holds the run's metadata.
"""

import os

# The load model allows no more threads than cores; one BLAS thread per process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import workloads
from calibration import (CALIBRATION_REF_S, CHILD_START_REF_S, calibrate, calibration_work,
                         child_start_work)
from workloads import ROOT, SRC, child_env

BENCH = os.path.dirname(os.path.abspath(__file__))

SETUP_REPEATS = 5      # fresh interpreters whose set-up time gives setup_s's median
PROBE_REPEATS = 3      # fresh interpreters per cli.interp_s / cli.import_s sample
# calibration (work, its reference time, seconds between two), by whether the
# operations run in this process
CALIBRATIONS = {True: (calibration_work, CALIBRATION_REF_S, 0.25),
                False: (child_start_work, CHILD_START_REF_S, 0.5)}

# Tail percentile per workload: fixed, so that a faster program (more samples
# per run) does not move it. Each is the highest percentile with at least ten
# samples beyond it in a run of the seed revision, and falls inside one kind
# of operation rather than on the edge between two (see workloads.py).
TAIL_PERCENTILE = {"exact_free": 75, "exact_blending": 75, "cli_fixtures": 75,
                   "numeric_certify": 90}

# Times one set-up in a fresh interpreter, which calibrates itself just before
# and just after it: it may run on a core of another speed than the
# benchmark's own process.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
    "import calibration\n"
    "before = calibration.calibration_seconds()\n"
    "t0 = time.perf_counter()\n"
    "import workloads\n"
    "wl = workloads.setup(sys.argv[3], int(sys.argv[4]))\n"
    "seconds = time.perf_counter() - t0\n"
    "wl.close()\n"
    "print(seconds, (before + calibration.calibration_seconds()) / 2)\n"
)


def timed_child(code: str, *argv: str) -> tuple[float, str]:
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=170, check=True)
    return time.perf_counter() - t0, done.stdout


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time (import, action closure, input generation) in fresh
    interpreters: raw, and rescaled by each interpreter's own calibration."""
    probes = []
    for _ in range(SETUP_REPEATS):
        out = timed_child(SETUP_PROBE, BENCH, SRC, workload, str(seed))[1]
        probes.append([float(x) for x in out.split()])
    return (statistics.median(t for t, _ in probes),
            statistics.median(t * CALIBRATION_REF_S / cal for t, cal in probes))


def startup_seconds() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of `import omegadec.cli` on top of it."""
    bare = statistics.median(timed_child("pass")[0] for _ in range(PROBE_REPEATS))
    cli = statistics.median(timed_child("import omegadec.cli")[0] for _ in range(PROBE_REPEATS))
    return bare, cli - bare


def run_rounds(wl, seconds: float, factors: list[float] | None = None):
    """Closed loop over whole rounds until `seconds` have passed (at least one round).

    With `factors`, the workload's calibration work (CALIBRATIONS) is timed
    between operations every few tenths of a second and once after the last
    one, outside every operation's time. Each operation then gets the factor
    reference time over the mean of the calibration times just before and
    just after it, which rescales it to the reference machine speed.
    """
    work, ref_s, every_s = CALIBRATIONS[wl.in_process]
    gc.collect()
    gc.freeze()        # the generated inputs are not garbage; keep collections off them
    samples, failures, round_times = [], [], []
    cal_times, cal_before = [], []     # cal_before[k]: calibrations done before operation k
    start = time.perf_counter()
    last_cal = -every_s
    while True:
        round_start = time.perf_counter()
        for op in wl.rounds[len(round_times) % len(wl.rounds)]:
            if factors is not None and time.perf_counter() - last_cal >= every_s:
                calibrate(cal_times, work)
                last_cal = time.perf_counter()
            cal_before.append(len(cal_times))
            t0 = time.perf_counter()
            try:
                reason = op.run()
            except Exception as exc:     # a raising operation is a failed operation
                reason = f"{type(exc).__name__}: {exc}"
            samples.append(time.perf_counter() - t0)
            if reason:
                failures.append((op.name, str(reason)[:200], op.known_defect))
        round_times.append(time.perf_counter() - round_start)
        if time.perf_counter() - start >= seconds:
            break
    elapsed = time.perf_counter() - start
    if factors is not None:
        calibrate(cal_times, work)
        factors.extend(2 * ref_s / (cal_times[k - 1] + cal_times[k]) for k in cal_before)
    return samples, failures, round_times, elapsed


def percentile(samples: list[float], p: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def metadata(args) -> dict:
    import numpy
    # stop git at the checkout: a checkout that is not a repository reads "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=10).stdout.strip()
        commit = commit or "unknown"
    except OSError:
        commit = "unknown"
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": 1, "src_lines": src_lines}


def summarize(failures) -> dict:
    counts = Counter(name for name, _, _ in failures)
    reasons = {name: reason for name, reason, _ in failures}
    return {name: {"count": n, "reason": reasons[name]} for name, n in sorted(counts.items())}


def untraced(args, meta: dict) -> dict:
    raw_setup_s, setup_s = setup_seconds(args.workload, args.seed)
    wl = workloads.setup(args.workload, args.seed)
    if not wl.in_process:
        # The cores of a shared VM change speed independently of each other, and
        # a calibration only tracks the core it runs on. So the interpreters
        # that calibrate and those that run operations all get one core.
        meta["cpu"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {meta["cpu"]})
    factors: list[float] = []
    try:
        samples, failures, round_times, elapsed = run_rounds(wl, args.seconds, factors)
    finally:
        wl.close()
    p = TAIL_PERCENTILE[args.workload]
    meta["raw"] = {"setup_s": raw_setup_s, "op_p50_s": statistics.median(samples),
                   "op_tail_s": percentile(samples, p), "ops_per_s": len(samples) / elapsed}
    meta.update(measured_s=elapsed, speed_factor=statistics.median(factors))
    samples = [x * f for x, f in zip(samples, factors)]
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss if wl.in_process
              else wl.counters["child_maxrss_kb"])
    tail = percentile(samples, p)
    attempted, failed = len(samples), len(failures)
    meta.update(rounds=len(round_times), op_tail_percentile=p,
                samples_beyond_tail=sum(s > tail for s in samples),
                fail_ratio=failed / attempted, failures=summarize(failures))
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(samples), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (attempted / sum(samples), "1/s"),
        "ok_ratio": ((attempted - failed) / attempted, "ok/attempted"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return result_line(failures, attempted, metrics)


def traced(args, meta: dict) -> dict:
    """Untraced half, then a traced set-up and traced half with the call wrappers on."""
    import tracing
    inprocess = args.workload == "cli_fixtures"   # trace the handler, not a subprocess
    wl = workloads.setup(args.workload, args.seed, inprocess=inprocess)
    try:
        samples_a, failures_a, rounds_a, _ = run_rounds(wl, args.seconds / 2)
    finally:
        wl.close()
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        wl = workloads.setup(args.workload, args.seed, inprocess=inprocess)
        at_setup = dict(rec.sums)
        try:
            samples_b, failures_b, rounds_b, _ = run_rounds(wl, args.seconds / 2)
        finally:
            wl.close()
    finally:
        tracing.uninstall(undo)
    bare, cli_import = startup_seconds()
    n = len(rounds_b)
    values = {key: 0.0 for key in tracing.METRICS}
    for key, total in rec.sums.items():
        once = at_setup.get(key, 0.0)
        values[key] = once + (total - once) / n       # one set-up plus the mean round
    values.update(rec.maxima)
    values["cli.stdout_bytes"] = wl.counters["stdout_bytes"] / n
    values["cli.error_ops"] = wl.counters["error_ops"] / n
    values["cli.interp_s"] = bare
    values["cli.import_s"] = cli_import
    values["trace.overhead_ratio"] = rounds_b[0] / rounds_a[0]
    failures = failures_a + failures_b
    meta.update(rounds_untraced=len(rounds_a), rounds_traced=n, failures=summarize(failures))
    metrics = {key: (values[key], unit) for key, unit in tracing.METRICS.items()}
    return result_line(failures, len(samples_a) + len(samples_b), metrics)


def result_line(failures, attempted: int, metrics: dict) -> dict:
    return {"correct": all(known for _, _, known in failures),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "omegadec", "__init__.py")):
        print(f"perfbench: no omegadec sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    meta = metadata(args)
    result = (traced if args.trace else untraced)(args, meta)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
