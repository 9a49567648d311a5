"""Steadiness check: run each workload many times on one commit and compare
the spread of every end-to-end metric with the bound in BENCHMARK.json.

    python3 perfbench/steadiness.py

For each workload of BENCHMARK.json it makes ten untraced runs of
``run_seconds``, with seeds 1..10, and prints, per metric, the median, the
spread between the quartiles as a share of the median, and the bound.  Then
it makes two traced runs with seed 1 and requires their counts to be
identical, and reports the tracing overhead on ``ops_per_s``.

It exits 1 when a spread exceeds its bound, when the share of failed
operations differs between runs, when two traced runs disagree on a count,
or when any run reports a wrong answer.  Raw samples go to
``perfbench/out/``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload, seed, seconds, trace, out):
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", out,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


SEEDS = range(1, 11)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    outdir = os.path.join(HERE, "out", time.strftime("%Y%m%d-%H%M%S"))
    os.makedirs(outdir, exist_ok=True)
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [_run(workload, s, seconds, 0, os.path.join(outdir, f"{workload}-{s}.json")) for s in SEEDS]
        print(f"{workload}: {len(runs)} runs of {seconds} s, seeds {SEEDS.start}..{SEEDS.stop - 1}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            s = spread(values)
            ok &= s <= m["bound"]
            print(
                f"  {m['name']:<12} median {statistics.median(values):12.5g} {m['unit']:<4}"
                f" spread {s:7.2%}  bound {m['bound']:5.0%}  {'ok' if s <= m['bound'] else 'OVER'}"
            )
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        attempted = [r["attempted"] for r in runs]
        print(f"  failed share {sorted(shares)}; attempted {min(attempted)}..{max(attempted)} a run")
        if len(shares) != 1:
            print("  FAILED SHARE DIFFERS between runs")
            ok = False
        wrong = [s for s, r in zip(SEEDS, runs) if not r["correct"]]
        if wrong:
            print(f"  WRONG ANSWERS with seeds {wrong}")
            ok = False
        traced = [
            _run(workload, SEEDS.start, seconds, 1, os.path.join(outdir, f"{workload}-traced-{i}.json"))
            for i in (1, 2)
        ]
        counts = [
            {k: v["value"] for k, v in t["metrics"].items() if v["unit"] != "ms"} for t in traced
        ]
        differ = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
        if differ:
            print(f"  TRACED COUNTS DIFFER: {differ}")
            ok = False
        else:
            print(f"  traced counts identical in two runs ({len(counts[0])} figures)")
        untraced = runs[0]["metrics"]["ops_per_s"]["value"]
        with_trace = statistics.median(t["end_to_end"]["ops_per_s"]["value"] for t in traced)
        print(f"  tracing overhead on ops_per_s (seed {SEEDS.start}): {1 - with_trace / untraced:.1%}")
    print("steady" if ok else "NOT STEADY")
    print(f"raw samples: {os.path.relpath(outdir, ROOT)}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
