"""Run one workload of the entpower benchmark and print its result line.

    python3 perfbench/run.py --workload ep-cue --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The measuring process (measure.py)
runs in a session of its own; once it exits, this process waits,
bounded, until every process of that session has ended, reaping the
orphans it adopts as a child subreaper.  A process still alive after
REAP_LIMIT_S is killed and the run is reported as not correct.  The
last line on standard output is one JSON object with the keys
correct, attempted, failed and metrics; no result is printed when the
measuring process fails.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_LIMIT_S = 170.0
REAP_LIMIT_S = 30.0
_PR_SET_CHILD_SUBREAPER = 36


def process_start() -> float:
    """Start of this process on the time.monotonic() clock, to one clock tick."""
    now = time.monotonic()
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        since_start = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return now
    return now - since_start


def become_subreaper() -> bool:
    """Adopt orphaned descendants, so that they can be waited for."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(_PR_SET_CHILD_SUBREAPER, ctypes.c_ulong(1), ctypes.c_ulong(0),
                          ctypes.c_ulong(0), ctypes.c_ulong(0)) == 0
    except (OSError, AttributeError):
        return False


def still_running(pgid: int) -> bool:
    """Reap exited children; True while a child or a member of the group is alive."""
    try:
        while True:
            pid, _ = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                return True
    except ChildProcessError:
        pass
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return True


def wait_until_gone(pgid: int, limit: float) -> bool:
    """Wait for the group and adopted orphans to end; kill the group after limit seconds."""
    deadline = time.monotonic() + limit
    while still_running(pgid):
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            end = time.monotonic() + 5.0
            while still_running(pgid) and time.monotonic() < end:
                time.sleep(0.01)
            return False
        time.sleep(0.01)
    return True


def main(argv=None) -> int:
    started = process_start()
    p = argparse.ArgumentParser(description="Run one entpower benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    become_subreaper()
    out_dir = os.path.join(HERE, "out")
    tmp_dir = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--started", repr(started)]
    result_path = os.path.join(out_dir, f"result-{os.getpid()}.txt")
    try:
        # the result goes to a file: descendants inherit stdout, and a pipe
        # would stay open for as long as any of them lives
        with open(result_path, "w+", encoding="utf-8") as result_file:
            child = subprocess.Popen(cmd, stdout=result_file, start_new_session=True,
                                     env=dict(os.environ, TMPDIR=tmp_dir))
            try:
                child.wait(timeout=max(1.0, RUN_LIMIT_S - (time.monotonic() - started)))
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
                wait_until_gone(child.pid, 5.0)
                print(f"error: workload {args.workload} did not finish within {RUN_LIMIT_S:.0f} s",
                      file=sys.stderr)
                return 1
            ended = wait_until_gone(child.pid, REAP_LIMIT_S)
            result_file.seek(0)
            lines = result_file.read().strip().splitlines()
    finally:
        os.remove(result_path)
    if child.returncode != 0 or not lines:
        print(f"error: measuring process exited with {child.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if not ended:
        print(f"error: processes of the run were still alive {REAP_LIMIT_S:.0f} s after it "
              "ended and were killed", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
