"""Time one fresh-process set-up: ``import hyperfast`` plus ``harness.make_problem``.

Usage: python3 perfbench/setup_probe.py <src dir> '<config mapping as JSON>'

Prints one JSON line with ``import_s``, ``make_problem_s``, the imported
package's path (so the caller can check the checkout's own code was timed) and
``calib_s``, the mean time of a fixed interpreter kernel run just before and
just after, in this process. The caller uses it to rescale the set-up time to
reference machine speed.
"""

import json
import sys
import time


def calibrate() -> float:
    """Time a fixed pure-Python kernel; it needs no import that set-up times."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(60000):
        table[i & 255] = acc
        acc = (acc * 31 + i) % 1000003
    return time.perf_counter() - t0


sys.path.insert(0, sys.argv[1])
mapping = json.loads(sys.argv[2])

before = calibrate()
t0 = time.perf_counter()
import hyperfast  # noqa: E402
t1 = time.perf_counter()
from hyperfast import harness  # noqa: E402

harness.make_problem(harness.build_run_config(mapping))
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "make_problem_s": t2 - t1,
                  "package": hyperfast.__file__,
                  "calib_s": (before + calibrate()) / 2}))
