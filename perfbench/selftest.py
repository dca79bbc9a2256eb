"""The benchmark's own test: its correctness checks are not vacuous.

From the root of a checkout:

    python3 perfbench/selftest.py

For every workload, one round at a tiny size must pass with only the known CLI
defects failing, and the same round with every reference answer corrupted (a
perturbed coefficient, a wrong expected exit code, a shifted minimum or rank)
must fail every operation, so that fail_ratio > 0. It also checks that the
trace wrappers count work and come off again, and that the benchmark refuses
to run without the library's sources. Exits 1 if any check fails.
"""

import os
import shutil
import subprocess
import sys

import run
import tracing
import workloads

os.chdir(run.ROOT)
sys.path.insert(0, run.SRC)
SEED = 7


def one_round(name: str, **kwargs):
    wl = workloads.setup(name, SEED, tiny=True, **kwargs)
    try:
        samples, failures, _, _ = run.run_rounds(wl, 0)
    finally:
        wl.close()
    ops = wl.rounds[0]
    return ops, {op_name for op_name, _, _ in failures}, len(failures) / len(samples)


def check_workload(name: str, **kwargs) -> list[str]:
    problems = []
    ops, failed, _ = one_round(name, **kwargs)
    known = {op.name for op in ops if op.known_defect}
    if failed != known:
        problems.append(f"clean round failed {sorted(failed)}, expected {sorted(known)}")
    ops, failed, ratio = one_round(name, plant=True, **kwargs)
    if not ratio > 0 or failed != {op.name for op in ops}:
        missed = sorted({op.name for op in ops} - failed)
        problems.append(f"planted wrong answers not caught by {missed}")
    return problems


def check_tracing() -> list[str]:
    from omegadec import BlockPolynomial
    original = BlockPolynomial.__dict__["__init__"]
    rec = tracing.Recorder()
    undo = tracing.install(rec)
    try:
        wl = workloads.setup("exact_free", SEED, tiny=True)
        run.run_rounds(wl, 0)
    finally:
        tracing.uninstall(undo)
    problems = []
    for key in ("blockpoly.init_calls", "radpoly.eq_calls", "decomposition.contract_s"):
        if not rec.sums[key] > 0:
            problems.append(f"{key} recorded nothing")
    if BlockPolynomial.__dict__["__init__"] is not original:
        problems.append("uninstall left a wrapper in place")
    return problems


def check_refuses_without_sources() -> list[str]:
    bare = os.path.join("perfbench", "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree("perfbench", os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy("BENCHMARK.json", bare)
        done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact_free",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:
            pass
    if done.returncode == 0 or done.stdout.strip():
        return [f"ran without sources: exit {done.returncode}, stdout {done.stdout[:80]!r}"]
    return []


def main() -> int:
    checks = [(f"{name}", lambda name=name: check_workload(name)) for name in workloads.WORKLOADS]
    checks += [("cli_fixtures in-process", lambda: check_workload("cli_fixtures", inprocess=True)),
               ("tracing", check_tracing),
               ("no sources", check_refuses_without_sources)]
    ok = True
    for label, fn in checks:
        problems = fn()
        ok = ok and not problems
        print(f"[{'PASS' if not problems else 'FAIL'}] {label}" +
              "".join(f"\n    {p}" for p in problems), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
