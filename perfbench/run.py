#!/usr/bin/env python3
"""Builds the mrsc benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is compiled from ../src with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); the
first run builds, later runs only check that the build is current. Build
output goes to stderr, so the last line of stdout is the result object.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "mrsc_perfbench"
WORKLOADS = ("ssa_ensemble", "clocked_ode", "fleet_campaign")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def jobs():
    return str(max(1, min(os.cpu_count() or 1, 4)))


def run_quiet(command, timeout):
    """Runs a build step with its output on stderr; fails the run on error."""
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(command))
    sys.stderr.write(done.stdout.decode(errors="replace"))
    if done.returncode != 0:
        fail("failed: " + " ".join(command))


def configured_source(directory):
    """The source directory a build tree was configured from, or None."""
    try:
        with open(os.path.join(directory, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("mrsc sources not found under " + os.path.join(ROOT, "src"), 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    directory = build_dir()
    if configured_source(directory) not in (None, os.path.realpath(HERE)):
        shutil.rmtree(directory)  # configured from another checkout
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        command = ["cmake", "-S", HERE, "-B", directory,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        run_quiet(command, BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", directory, "--target", TARGET,
               "-j", jobs()], BUILD_TIMEOUT_S)
    return os.path.join(directory, TARGET)


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if top.returncode != 0 or \
                os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        return head.stdout.strip() if head.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_binary(binary, arguments):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        done = subprocess.run([binary] + arguments, cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(done.stderr.decode(errors="replace"))
    return done.returncode, done.stdout.decode(errors="replace").splitlines()


def result_of(lines):
    """The result object on the last line, checked for its required keys."""
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected result keys %s" % sorted(result))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        raise ValueError("failed must be a whole number")
    return result


def self_test(binary):
    """Checks the output checks trip on wrong references, then that every
    metric of BENCHMARK.json appears with its unit on a tiny run."""
    code, lines = run_binary(binary, ["--self-test"])
    print("\n".join(lines))
    if code != 0:
        fail("output-check self-test failed")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            code, lines = run_binary(binary, [
                "--workload", workload["name"], "--seed", "1",
                "--seconds", "1", "--trace", trace, "--tiny"])
            try:
                metrics = result_of(lines)["metrics"] if code == 0 else {}
            except ValueError as error:
                problems.append("%s trace %s: %s" %
                                (workload["name"], trace, error))
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in metrics.items()}
            if got != want:
                problems.append("%s trace %s: metrics %s, expected %s" %
                                (workload["name"], trace, got, want))
            print("ok    %s --trace %s: %d metrics with units" %
                  (workload["name"], trace, len(got)) if got == want else
                  "FAIL  %s --trace %s" % (workload["name"], trace))
    if problems:
        fail("; ".join(problems))
    print("self-test: passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.self_test:
        self_test(binary)
        return
    trace_out = os.path.join(build_dir(), "trace-%s-%d.json" %
                             (args.workload, args.seed))
    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--git-sha", git_sha(), "--trace-out", trace_out])
    if code != 0:
        fail("benchmark exited with code %d" % code, code)
    try:
        result_of(lines)
    except ValueError as error:
        fail("bad result line: %s" % error)
    print("\n".join(lines))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
