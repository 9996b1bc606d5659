"""Time one set-up in a fresh process: import, input generation and warm-up.

    python3 perfbench/setup_probe.py <workload> <seed> <tiny: 0|1>

Prints {"setup_s": ..., "scale": ...} as its last line: the set-up time, and
the speed scale measured right after it (see ``speed.py``).  run.py starts it
to sample set-up time in processes that have done nothing else.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import run  # noqa: E402

run.load_program()
run.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1")
setup_s = time.perf_counter() - STARTED
print(json.dumps({"setup_s": setup_s, "scale": run.setup_scale()}))
