"""Scaling measured times to a nominal machine speed.

The machines this benchmark runs on are shared: over tens of seconds the
same pure-Python work can take anywhere from 1x to nearly 3x its best time,
as other tenants come and go.  Raw wall times then spread far more between runs
than any change worth detecting.  So every timed operation is bracketed by a
short fixed calibration, and its wall time is divided by the mean slowness
(calibration time over its nominal time) of the two neighbouring
calibrations: the time the operation would have taken had the machine run
the calibration in its nominal time.  Set-up, process start included, is
scaled by calibrations at its two ends; process start follows the
machine's phases too.

Two calibrations, for two kinds of work:

- :func:`loop`, a 1 ms loop of ``Fraction`` and big-integer arithmetic and a
  recursive memoized walk over strings (the mix ``cmc`` does), for work done
  inside the worker;
- :func:`spawn`, the start of a bare ``python -c pass`` process, for the
  cli-examples workload, whose operations are mostly process start.  It
  follows the machine's phases as a CLI process does; the loop does not
  (see README).

Neither uses ``cmc``, so a change to the program moves the scaled times
exactly as it moves the raw ones.
"""

import subprocess
import sys
from fractions import Fraction
from time import perf_counter

LOOP_NOMINAL_S = 0.0012  # about the loop's best time on the 2-vCPU reference machine
SPAWN_NOMINAL_S = 0.030  # about a bare interpreter start there, in a fast phase


def _walk(memo, s, depth):
    """Recursive dict-backed walk over strings, like a memoized cell walk."""
    v = memo.get(s)
    if v is None:
        v = memo[s] = len(s) + 1
    if depth == 0:
        return v
    return v + _walk(memo, s + "0", depth - 1) + _walk(memo, s + "1", depth - 1)


def loop():
    """Slowness of the machine now, from the fixed calibration loop."""
    t0 = perf_counter()
    x = Fraction(1, 3)
    for i in range(150):
        x = x * Fraction(7, 11) + Fraction(i, 13)
        x = Fraction(x.numerator % (1 << 120), x.denominator % (1 << 120) + 1)
    memo = {}
    _walk(memo, "", 9)
    _walk(memo, "", 9)
    y = 3**400
    for _ in range(100):
        y = (y * 12345678901234567) % (7**300)
    return (perf_counter() - t0) / LOOP_NOMINAL_S


def spawn():
    """Slowness of the machine now, from starting a bare interpreter."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", "pass"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True,
    )
    return (perf_counter() - t0) / SPAWN_NOMINAL_S


def scaled(seconds, slowness_before, slowness_after):
    return seconds * 2.0 / (slowness_before + slowness_after)
