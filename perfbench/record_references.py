#!/usr/bin/env python3
"""Records the loss-table reference digests of the deterministic workloads.

    python3 perfbench/record_references.py --seeds 0-99 [--jobs 2]

Run from the repository root after `python3 perfbench/run.py` has built
the tree. For each workload with a loss table (sim_infocom, mf_million) it
runs one sweep per seed in record mode and rewrites
perfbench/reference/<workload>.txt: a "# <parameters>" header, then one
"<seed> <fnv1a-64 digest>" line per seed. Re-record only when a change is
meant to alter the tables; an unexplained digest change is a regression.
"""
import argparse
import concurrent.futures
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = os.path.join(ROOT, ".bench_build", "perfbench", "perfbench")
WORKLOADS = ["sim_infocom", "mf_million"]


def record(workload, seed):
    out = subprocess.run(
        [BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0.001", "--trace", "0",
         "--out-dir", os.path.join(".bench_build", "record"),
         "--reference-dir", os.path.join("perfbench", "reference"),
         "--record", "1"],
        capture_output=True, text=True, check=True, cwd=ROOT)
    params = line = None
    for text in out.stdout.splitlines():
        if text.startswith("reference-params "):
            params = text[len("reference-params "):]
        elif text.startswith("reference "):
            line = text[len("reference "):]
    if params is None or line is None:
        raise RuntimeError("%s seed %d: no reference line" % (workload, seed))
    return params, line


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99", help="inclusive range A-B")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    for workload in args.workload or WORKLOADS:
        with concurrent.futures.ThreadPoolExecutor(args.jobs) as pool:
            results = list(pool.map(lambda s: record(workload, s),
                                    range(first, last + 1)))
        params = {p for p, _ in results}
        if len(params) != 1:
            sys.exit("inconsistent parameters across seeds: %s" % params)
        path = os.path.join(HERE, "reference", workload + ".txt")
        with open(path, "w") as out:
            out.write("# %s\n" % params.pop())
            for _, line in results:
                out.write(line + "\n")
        print("wrote %s (%d seeds)" % (path, len(results)))


if __name__ == "__main__":
    main()
