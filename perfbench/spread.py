#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread, from the checkout root.

    python3 perfbench/spread.py --workloads fastpath,campaign --runs 10 --out set1.jsonl
    python3 perfbench/spread.py --compare set1.jsonl set2.jsonl

The first form runs perfbench/run.py once per seed on each workload and
prints, for every end-to-end metric, the median and the interquartile
range as a share of the median (statistics.quantiles, n=4), against the
metric's bound in BENCHMARK.json. A spread above a third of its bound
is flagged. The second form reads two such sets and also flags every
metric whose second median is worse than the first by more than its
bound. Either form exits 1 when anything is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def run_set(spec, workloads, runs, first_seed, out):
    """Returns {workload: {metric: [values]}} and whether every run passed."""
    sets, ok = {}, True
    for wl in workloads:
        values = sets.setdefault(wl, {})
        for seed in range(first_seed, first_seed + runs):
            res = subprocess.run(
                ["python3", "perfbench/run.py", "--workload", wl, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print("%s seed %d: exit %d\n%s" % (wl, seed, res.returncode, res.stderr[-2000:]))
                ok = False
                continue
            result = json.loads(lines[-1])
            stamp = next((json.loads(l[len("stamp "):]) for l in lines
                          if l.startswith("stamp {")), {})
            if out:
                with open(out, "a") as f:
                    f.write(json.dumps({"workload": wl, "seed": seed, "result": result,
                                        "stamp": stamp}) + "\n")
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    return sets, ok


def read_set(path):
    sets = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            values = sets.setdefault(rec["workload"], {})
            for name, m in rec["result"]["metrics"].items():
                values.setdefault(name, []).append(m["value"])
    return sets


def spread(vs):
    med = statistics.median(vs)
    q = statistics.quantiles(vs, n=4) if len(vs) >= 2 else [med, med, med]
    return med, (q[2] - q[0]) / med if med else float("inf")


def report(metrics, sets, base=None):
    """Prints each workload's spreads (and drift from base); True when
    nothing is flagged."""
    ok = True
    for wl, values in sets.items():
        for name, vs in sorted(values.items()):
            med, spr = spread(vs)
            m = metrics.get(name)
            flags = []
            if m and spr > m["bound"] / 3:
                flags.append("spread above bound/3")
            drift = ""
            if m and base and name in base.get(wl, {}):
                med0 = statistics.median(base[wl][name])
                worse = (med - med0) / med0 if m["better"] == "lower" else (med0 - med) / med0
                drift = "  worse by %+.3f" % worse
                if worse > m["bound"]:
                    flags.append("median worse than the first set by more than the bound")
            ok = ok and not flags
            print("%-10s %-28s median %12.4f  spread %6.3f  bound %s%s%s"
                  % (wl, name, med, spr, m and m["bound"], drift,
                     "".join("  <-- " + f for f in flags)))
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="fastpath,campaign,bulk-json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="append each run's result line to this file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare two sets written by --out instead of running")
    args = ap.parse_args()
    spec, metrics = load_spec()
    if args.compare:
        first, second = (read_set(p) for p in args.compare)
        ok = report(metrics, first)
        print()
        ok = report(metrics, second, base=first) and ok
    else:
        sets, ok = run_set(spec, args.workloads.split(","), args.runs, args.first_seed, args.out)
        ok = report(metrics, sets) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
