#!/usr/bin/env python3
"""Capacity probe for serve-dist: step the offered rate until the mix saturates.

Usage (from the repository root):

    python3 perfbench/capacity.py [--rates 16,24,32,40] [--seeds 1,2] [--seconds 18]

Every step offers the requests of a normal --seconds run (the same
multiset of specs, warmed the same way) at a higher rate, so the window
shrinks and the mix stays fixed. For each rate it prints the medians over
the seeds of frames_per_s, frame_ms_p50, frame_ms_p90, cpu_ms_per_frame
and success_frac, and the drain: how long after the last arrival the last
job finished. A rate saturates the cluster when a request fails, the p90
is more than twice the lowest rate's, or the drain exceeds 2 s (a backlog
that a cold job's 0.3-0.7 s cannot explain). serve-dist's serveRate is
meant to be about half the lowest saturating rate.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
DRAIN = re.compile(r"last finished (-?[0-9.]+) s after the window")


def run(rate, seed, seconds):
    proc = subprocess.run([sys.executable, RUN, "--workload", "serve-dist", "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0", "--rate", str(rate)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("serve-dist at %g/s failed with exit code %d" % (rate, proc.returncode))
    res = json.loads(lines[-1])
    m = DRAIN.search(proc.stderr)
    return res, float(m.group(1)) if m else float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rates", default="16,24,32,40")
    ap.add_argument("--seeds", default="1,2")
    ap.add_argument("--seconds", type=int, default=18)
    a = ap.parse_args()
    cols = ["frames_per_s", "frame_ms_p50", "frame_ms_p90", "cpu_ms_per_frame", "success_frac"]
    print("%8s %12s %12s %12s %12s %12s %9s  %s" % (("rate",) + tuple(cols) + ("drain_s", "verdict")))
    base_p90 = None
    for rate in [float(r) for r in a.rates.split(",")]:
        vals = {c: [] for c in cols}
        drains = []
        for seed in a.seeds.split(","):
            res, drain = run(rate, int(seed), a.seconds)
            for c in cols:
                vals[c].append(res["metrics"][c]["value"])
            drains.append(drain)
        med = {c: statistics.median(v) for c, v in vals.items()}
        drain = max(drains)
        if base_p90 is None:
            base_p90 = med["frame_ms_p90"]
        saturated = (min(vals["success_frac"]) < 1 or med["frame_ms_p90"] > 2 * base_p90 or drain > 2)
        print("%8.1f %12.3f %12.3f %12.3f %12.3f %12.4f %9.2f  %s" % (
            (rate,) + tuple(med[c] for c in cols) + (drain, "SATURATED" if saturated else "ok")), flush=True)


if __name__ == "__main__":
    main()
