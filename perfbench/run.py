#!/usr/bin/env python3
"""Wall-clock benchmark for cpsflow: build, run one workload, report.

Run from the root of a source tree:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Builds the `perfbench` driver and the `cpsflow` CLI from the tree's
sources (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs the workload. The last line
of standard output is the JSON report; the exit status is 0 only when
every answer was right. `--check-answers` instead builds and runs the
test that re-derives the expected-answer file from the seed reference
analyzers. README.md in this directory describes the workloads and
metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("corpus", "scaling", "serve")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
PARITY_COUNTERS = ("goals", "cuts", "summaryHits", "summaryMisses",
                   "summaryEntries")
LEGS = ("direct", "semantic", "syntactic", "dup", "pushdown")


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log, timeout):
    with open(log, "ab") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=timeout).returncode


def build(root, build_dir, targets):
    """Configures (once) and builds the benchmark package."""
    log = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", os.path.join(root, "perfbench"),
                       "-B", build_dir], log, 300) != 0:
            fail("cmake configure failed; see " + log)
    jobs = str(min(4, os.cpu_count() or 1))
    if run_logged(["cmake", "--build", build_dir, "-j", jobs, "--target"] +
                  targets, log, 850) != 0:
        fail("build failed; see " + log)


def parity_failures(cpsflow, root, parity):
    """Per-leg counters of the traced corpus run against
    `cpsflow batch examples/corpus --no-timing` from the same tree."""
    out = subprocess.run(
        [cpsflow, "batch", os.path.join(root, "examples", "corpus"),
         "--no-timing"], capture_output=True, timeout=120)
    if out.returncode != 0:
        return ["cpsflow batch exited %d" % out.returncode]
    report = json.loads(out.stdout)
    problems = []
    batch = {p["name"]: p for p in report["programs"]}
    if set(batch) != set(parity):
        problems.append("program sets differ: batch %s, traced %s" %
                        (sorted(batch), sorted(parity)))
    for name in sorted(set(batch) & set(parity)):
        for leg in LEGS:
            for counter in PARITY_COUNTERS:
                want = batch[name].get(leg, {}).get(counter)
                got = parity[name][leg][counter]
                if want != got:
                    problems.append("%s %s %s: batch %s, traced %s" %
                                    (name, leg, counter, want, got))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check-answers", action="store_true")
    args = ap.parse_args()

    root = os.getcwd()
    for needed in ("src/CMakeLists.txt", "tools/cpsflow.cpp",
                   "examples/corpus", "perfbench/expected_answers.tsv",
                   "perfbench/scaling_pool.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("run from the root of a cpsflow source tree (no %s)" %
                 needed, 2)
    if shutil.which("cmake") is None:
        fail("cmake is not on PATH", 2)
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 ".bench_build")
    build_dir = os.path.join(target_dir, "perfbench")
    expected = os.path.join(root, "perfbench", "expected_answers.tsv")
    pool = os.path.join(root, "perfbench", "scaling_pool.txt")

    if args.check_answers:
        build(root, build_dir, ["perfbench_answers_test"])
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "perfbench_answers_test"), expected,
             pool, root]).returncode)
    if args.workload is None:
        fail("--workload is required", 2)
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    build(root, build_dir, ["perfbench", "cpsflow_cli"])
    cpsflow = os.path.join(build_dir, "cpsflow", "tools", "cpsflow")
    work = os.path.join(target_dir, "perfbench-work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    traces = os.path.join(target_dir, "perfbench-traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", root, "--cpsflow", cpsflow, "--expected", expected,
           "--pool", pool, "--work", work,
           "--trace-out", os.path.join(
               traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # Flush the build's dirty pages now rather than during the timed loop.
    os.sync()
    # Its own session, so a timeout also takes down any daemon it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=args.seconds * 3 + 60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("the benchmark timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = stdout.decode().strip().splitlines()
    if not lines:
        fail("the benchmark printed no report (exit %d)" % proc.returncode)
    report = json.loads(lines[-1])

    parity = report.pop("parity", None)
    if parity is not None:
        problems = parity_failures(cpsflow, root, parity)
        for p in problems[:20]:
            print("perfbench: FAILED parity " + p, file=sys.stderr)
        report["attempted"] += 1
        if problems:
            report["failed"] += 1
            report["correct"] = False
    if proc.returncode != 0:
        report["correct"] = False
    print(json.dumps(report))
    sys.exit(0 if report["correct"] else 1)


if __name__ == "__main__":
    main()
