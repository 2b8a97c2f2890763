"""Child launcher: starts the benchmark's children from a process that stays small.

    python perfbench/spawner.py

Reads one JSON request a line on stdin, {"argv", "cwd", "stdout", "stderr",
"timeout"}, runs that child to completion (killed after "timeout" seconds)
and answers one JSON line, {"t0", "wall", "status", "maxrss_kib"}: the
monotonic start, the wall time from spawn to exit, the wait status and the
child's ru_maxrss from os.wait4. It exits when stdin closes.

Linux carries the high-water RSS of the process a child was started from
over the exec into the child's ru_maxrss. perfbench/run.py builds inputs and
parses outputs of hundreds of megabytes, so children started from it would
report its peak instead of their own whenever that is larger. This process
never holds more than its own few megabytes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as so, open(request["stderr"], "wb") as se:
            t0 = time.monotonic()
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=so, stderr=se)
            watchdog = threading.Timer(request["timeout"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped above
        print(json.dumps({"t0": t0, "wall": wall, "status": status,
                          "maxrss_kib": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
