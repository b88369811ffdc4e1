#!/usr/bin/env python3
"""Steadiness report: run each workload in interleaved sets and summarise.

Usage (from the repository root):

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads frame-atfim,serve-dist]
                                [--seconds 22] [--out runs.jsonl]

For each workload it makes --runs rounds; a round runs once per set, set
after set, so host speed drift over the minutes a report takes falls on
every set alike. Set k's run i uses seed 1000*k + i + 1. Around every run
it records the host facts (nproc, GOMAXPROCS, Go version, load average
and spin_ms, a fixed CPU-bound loop that shows host speed drift).

For each set and metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4), and the interquartile range and
(max - min) as shares of the median. For every set after the first it
prints how far its medians moved from the first set's, in the metric's
"worse" direction. It flags an end-to-end metric whose IQR/median is above
its BENCHMARK.json bound (setup_s excepted) or whose median moved worse
than the bound. Every run's JSON line is appended to --out when given.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
EXE = os.path.join(ROOT, ".bench_build", "bin", "perfbench")


def bench(args):
    proc = subprocess.run([sys.executable, RUN] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("perfbench %s failed with exit code %d" % (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def host_facts():
    # run.py has built the program already; call it directly.
    out = subprocess.run([EXE, "-host-facts"], stdout=subprocess.PIPE, text=True,
                         cwd=ROOT, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="append every run's result line to this file")
    a = ap.parse_args()
    e2e = {m["name"]: m for m in spec["end_to_end"]}

    bench(["--host-facts"])  # builds the program
    print("host:", json.dumps(host_facts()), flush=True)
    for wl in a.workloads.split(","):
        values = [{} for _ in range(a.sets)]
        units = {}
        spin = [[] for _ in range(a.sets)]
        failed = 0
        for i in range(a.runs):
            for k in range(a.sets):
                seed = 1000 * k + i + 1
                before = host_facts()
                t0 = time.monotonic()
                res = bench(["--workload", wl, "--seed", str(seed), "--seconds", str(a.seconds),
                             "--trace", "0"])
                took = time.monotonic() - t0
                after = host_facts()
                spin[k] += [before["spin_ms"], after["spin_ms"]]
                failed += res["failed"]
                if a.out:
                    with open(a.out, "a") as f:
                        f.write(json.dumps({"workload": wl, "set": k, "seed": seed, "host_before": before,
                                            "host_after": after, "seconds": took, "result": res}) + "\n")
                for name, m in res["metrics"].items():
                    values[k].setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                print("  %s set %d seed %d %.0f s, spin %.1f/%.1f ms, load %s: %s" % (
                    wl, k, seed, took, before["spin_ms"], after["spin_ms"], after["loadavg"], " ".join(
                        "%s=%.4g" % (n, v["value"]) for n, v in sorted(res["metrics"].items()))), flush=True)
        print("%s: %d sets of %d runs, %d failed operations" % (wl, a.sets, a.runs, failed))
        print("  %-20s %3s %-8s %12s %12s %12s %8s %8s %8s" % (
            "metric", "set", "unit", "median", "q1", "q3", "iqr/med", "rng/med", "worse"))
        rows = [("spin_ms", "ms", [{"spin_ms": s} for s in spin], "lower", None)]
        rows += [(n, units[n], values, e2e.get(n, {}).get("better", "lower"), e2e.get(n, {}).get("bound"))
                 for n in sorted(units)]
        for name, unit, per_set, better, bound in rows:
            med0 = statistics.median(per_set[0][name])
            for k in range(a.sets):
                v = per_set[k][name]
                med = statistics.median(v)
                q1, q3 = quartiles(v)
                iqr = (q3 - q1) / med if med else 0.0
                rng = (max(v) - min(v)) / med if med else 0.0
                worse = ((med - med0) if better == "lower" else (med0 - med)) / med0 if med0 else 0.0
                flags = []
                if bound is not None and name != "setup_s" and iqr > bound:
                    flags.append("SPREAD>%.2f" % bound)
                if bound is not None and k > 0 and worse > bound:
                    flags.append("MOVED>%.2f" % bound)
                print("  %-20s %3d %-8s %12.4f %12.4f %12.4f %8.3f %8.3f %8s %s" % (
                    name, k, unit, med, q1, q3, iqr, rng, "%+.3f" % worse if k else "", " ".join(flags)))
        print(flush=True)
    print("host:", json.dumps(host_facts()))


if __name__ == "__main__":
    main()
