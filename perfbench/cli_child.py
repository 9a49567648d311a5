"""``python -m cmc.cli`` for the cli-examples workload, reporting the
process's own peak memory.

    python3 perfbench/cli_child.py <trace 0|1> <cmc arguments...>

Runs the CLI as ``python -m cmc.cli`` would (stdout and exit code
unchanged) and writes a JSON object on the last line of stderr.  It holds
``peak_rss_mb``, the high-water mark of this process's own resident memory
(``VmHWM``).  ``ru_maxrss`` would not do: a process started by ``exec``
inherits the peak of the process that started it.  With trace 1 the object
also holds the per-layer figures of this process.
"""

import json
import sys
from time import perf_counter

traced = sys.argv[1] == "1"
t0 = perf_counter()
import cmc.cli  # noqa: E402

import_ms = (perf_counter() - t0) * 1000.0

if traced:
    import cmc
    import tracing

    tracer = tracing.Tracer()
    tracer.install(cmc)
    tracer.active = True
code = cmc.cli.main(sys.argv[2:])
report = {}
if traced:
    tracer.active = False
    report = tracer.take()
    report["cli.import_ms"] = import_ms
    report["measures.memo_entries"] = tracer.memo_entries()
with open("/proc/self/status", encoding="ascii") as fh:
    report["peak_rss_mb"] = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) / 1024.0
sys.stdout.flush()
print(json.dumps(report), file=sys.stderr)
sys.exit(code)
