#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports median and quartiles.

    python3 perfbench/summarize.py --workloads ssa_ensemble,clocked_ode \\
        --seeds 1-10 [--seconds 15] [--trace 0] [--out FILE]

Each run is one `perfbench/run.py` invocation. For every metric the summary
gives the median, the first and third quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median, stamped with the host context of the
first run (nproc, compiler, build type, git sha, workers). Counts that must
repeat exactly (attempted, failed, correct) are listed per run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d exited %d" %
                           (workload, seed, done.returncode))
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("{")]
    context = next(line["context"] for line in lines if "context" in line)
    report = next(line for line in lines if "report" in line)
    return context, report, lines[-1]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {"median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / middle if middle else None,
            "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default="ssa_ensemble,clocked_ode,fleet_campaign")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            context, report, result = run_once(workload, seed, args.seconds,
                                               args.trace)
            summary.setdefault("context", context)
            runs.append({"seed": seed, "result": result,
                         "report": report["report"],
                         "notes": report["notes"]})
            print("%s seed %d: correct=%s attempted=%d failed=%d" %
                  (workload, seed, result["correct"], result["attempted"],
                   result["failed"]), file=sys.stderr)
        names = list(runs[0]["result"]["metrics"])
        metrics = {}
        for name in names:
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            metrics[name] = summarize(values)
            metrics[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}

        print("== %s (%d runs)" % (workload, len(runs)))
        print("%-28s %14s %14s %14s %8s  %s" %
              ("metric", "median", "q1", "q3", "spread", "unit"))
        for name, row in metrics.items():
            spread = "-" if row["spread"] is None else "%.4f" % row["spread"]
            print("%-28s %14.6g %14.6g %14.6g %8s  %s" %
                  (name, row["median"], row["q1"], row["q3"], spread,
                   row["unit"]))
    context = summary.get("context", {})
    print("host: nproc=%s workers=%s compiler=%s build=%s git=%s" %
          (context.get("nproc"), context.get("workers"),
           context.get("compiler"), context.get("build_type"),
           context.get("git_sha")))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)


if __name__ == "__main__":
    main()
