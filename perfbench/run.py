"""Run one workload of the cmc benchmark and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout (it imports ``cmc`` from ``src/``).  The run
starts ``SETUPS`` worker processes one after another; each sets the workload
up and then runs whole rounds for its share of ``--seconds``.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics untraced, the per-layer metrics traced).
``--out <file>`` also writes every raw sample there.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5  # set-up is timed this many times a run; setup_s is their median
RUN_LIMIT_S = 170.0


def _worker(name, seed, seconds, trace, deadline):
    # Bytecode caches are written, so that in a fresh checkout every process
    # after the first loads compiled modules, as an installed package does.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), repr(seconds), str(trace)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_raw = perf_counter() - t0
        word, *fields = ready.split()
        if word != "ready" or len(fields) != 3:
            raise RuntimeError(f"worker did not get ready: {ready!r}")
        calibrating, cal_enter, cal_ready = map(float, fields)
        setup_raw -= calibrating
        setup_s = calibration.scaled(setup_raw, cal_enter, cal_ready)
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = setup_s
    record["setup_raw_s"] = setup_raw
    return record


def _end_to_end(records):
    durations = [d for r in records for d in r["durations"]]
    op_time = sum(r["op_time"] for r in records)
    return {
        "ops_per_s": {"value": len(durations) / op_time if op_time else 0.0, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(durations) * 1000.0 if durations else 0.0, "unit": "ms"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in records), "unit": "MB"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in records), "unit": "s"},
    }


def _per_layer(records):
    """Mean over all traced rounds of every worker; the hit ratio is taken
    from the mean counts."""
    rounds = [layer for r in records for layer in r["layers"]]
    out = {}
    for name in tracing.PER_LAYER:
        value = statistics.fmean(layer.get(name, 0) for layer in rounds)
        out[name] = {"value": value, "unit": tracing.unit(name)}
    calls = out["measures.mass_calls"]["value"]
    misses = out["measures.mass_misses"]["value"]
    out["measures.memo_hit_ratio"]["value"] = (calls - misses) / calls if calls else 0.0
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the raw samples of this run to this file")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "cmc", "__init__.py")):
        sys.exit(f"error: no cmc sources under {os.path.join(ROOT, 'src')}; run from a checkout")
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")

    # One CPU for the run and its children, so each calibration runs
    # where the operations it brackets run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = perf_counter() + RUN_LIMIT_S
    records = []
    try:
        for _ in range(SETUPS):
            records.append(_worker(args.workload, args.seed, args.seconds / SETUPS, args.trace, deadline))
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as err:
        sys.exit(f"error: {err}")

    problems = [p for r in records for p in r["problems"]]
    for p in problems[:20]:
        print(f"wrong: {p}", file=sys.stderr)
    failures = {}
    for r in records:
        for kind, n in r["failures"].items():
            failures[kind] = failures.get(kind, 0) + n
    for kind, n in sorted(failures.items()):
        print(f"failed: {kind} x{n}", file=sys.stderr)

    e2e = _end_to_end(records)
    result = {
        "correct": sum(r["problem_count"] for r in records) == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": _per_layer(records) if args.trace else e2e,
    }
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(dict(result, args=vars(args), end_to_end=e2e, records=records), fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
