"""One worker process: set a workload up, then run whole rounds as a closed
loop with one caller until its share of the run's time is used.

    python3 perfbench/worker.py <workload> <seed> <seconds> <trace 0|1>

It prints ``ready <seconds spent calibrating> <slowness> <slowness>``
once set-up is done (just before the first timed operation), then one JSON
line with its samples.  The parent scales the set-up time by the two
slowness figures (see :mod:`calibration`), each the median of three
calibrations, taken at the start and the end of set-up.  ``run.py`` starts
it.

Answers are checked in a process of its own (:class:`Checker`), so the
reference answers and memos the checks build do not count in the worker's
peak RSS.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _checked(op, answer):
    try:
        return op.check(answer)
    except Exception as err:  # a malformed answer must not stop the run
        return [f"{op.name}: check raised {type(err).__name__}: {err}"]


class Checker:
    """A process of its own that checks answers, one at a time, on request.

    It is forked before set-up, while the worker is small, and builds its
    own copy of the operations (``make_ops``) when the first answer arrives.
    The worker sends ``(index of the operation, answer)`` down a pipe and
    waits for the list of problems, so a check never overlaps a timed
    operation.  The checker keeps its reference state between rounds."""

    def __init__(self, make_ops):
        down_r, down_w = os.pipe()
        up_r, up_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(down_w)
                os.close(up_r)
                _serve(make_ops, os.fdopen(down_r, "rb"), os.fdopen(up_w, "wb"))
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        os.close(down_r)
        os.close(up_w)
        self.to_child = os.fdopen(down_w, "wb")
        self.from_child = os.fdopen(up_r, "rb")

    def check(self, index, op, answer):
        try:
            message = pickle.dumps((index, answer))
        except Exception as err:  # an answer that cannot be sent is a wrong one
            return [f"{op.name}: answer cannot be pickled: {type(err).__name__}: {err}"]
        self.to_child.write(message)
        self.to_child.flush()
        return pickle.load(self.from_child)

    def close(self):
        self.to_child.close()  # the checker reads end of file and exits
        os.waitpid(self.pid, 0)
        self.from_child.close()


def _serve(make_ops, requests, replies):
    ops = None
    while True:
        try:
            index, answer = pickle.load(requests)
        except EOFError:
            return
        ops = ops or make_ops()
        pickle.dump(_checked(ops[index], answer), replies)
        replies.flush()


def main(argv):
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    checker = Checker(lambda: workloads.build(name, ROOT, random.Random(seed), trace).ops())
    t_enter = perf_counter()
    calibrate = calibration.spawn if name == "cli-examples" else calibration.loop
    calibrate()  # the first call runs cold and is not used
    cal_enter = statistics.median(calibrate() for _ in range(3))
    t_setup = perf_counter()
    tracer = None
    if trace and name != "cli-examples":
        import cmc

        tracer = tracing.Tracer()
        tracer.install(cmc)
    workload = workloads.build(name, ROOT, random.Random(seed), trace)
    ops = workload.ops()
    if workload.warm:  # fill the memos the timed rounds will read
        for op in ops:
            try:
                op.run()
            except Exception:  # the same operation fails again, and is counted, when timed
                pass
    t_ready = perf_counter()
    cal_ready = statistics.median(calibrate() for _ in range(3))
    calibrating = (t_setup - t_enter) + (perf_counter() - t_ready)
    print(f"ready {calibrating!r} {cal_enter!r} {cal_ready!r}", flush=True)

    raw, completed, cals, failures, problems, layers = [], [], [], Counter(), [], []
    attempted = failed = 0
    start = perf_counter()
    cals.append(calibrate())
    while True:
        if tracer:
            tracer.active = True
        for index, op in enumerate(ops):
            t0 = perf_counter()
            try:
                answer = op.run()
                ok = True
            except Exception as err:  # a failed operation is counted, not fatal
                ok = False
                failed += 1
                failures[f"{op.name}: {type(err).__name__}"] += 1
            raw.append(perf_counter() - t0)
            if tracer:
                tracer.active = False
            cals.append(calibrate())
            completed.append(ok)
            if ok:
                problems += checker.check(index, op, answer)
                answer = None  # so memo_entries counts only what the workload keeps
            if tracer:
                tracer.active = True
            attempted += 1
        if tracer:
            tracer.active = False
            round_layers = tracer.take()
            round_layers["measures.memo_entries"] = tracer.memo_entries()
            layers.append(round_layers)
        elif trace:  # cli-examples: the children traced themselves
            layers.append(sum((Counter(t) for t in workload.traces), Counter()))
            workload.traces.clear()
        # Cycles left by one round are freed before the next, so peak RSS
        # does not grow with the number of rounds that fit in a run.
        gc.collect()
        if perf_counter() - start >= seconds:
            break

    scaled = [calibration.scaled(r, a, b) for r, a, b in zip(raw, cals, cals[1:])]

    checker.close()
    if name == "cli-examples":  # the largest CLI process
        peak_rss_mb = workload.peak_rss_mb
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(
        json.dumps(
            {
                "attempted": attempted,
                "failed": failed,
                "failures": dict(failures),
                "problems": problems[:20],
                "problem_count": len(problems),
                "durations": [s for s, ok in zip(scaled, completed) if ok],
                "raw_durations": [r for r, ok in zip(raw, completed) if ok],
                "calibrations": cals,
                "op_time": sum(scaled),
                "peak_rss_mb": peak_rss_mb,
                "layers": layers,
            }
        ),
        flush=True,
    )


if __name__ == "__main__":
    main(sys.argv[1:])
