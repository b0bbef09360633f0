"""Start one command, wait for it, and report its exit code, wall time and
peak RSS.

    python3 -S bench/launch.py FD PROGRAM ARGS...

Writes "EXIT WALL_S MAXRSS_KB" to file descriptor FD once PROGRAM ends.
The benchmark starts every op through this small process because a child's
ru_maxrss also counts the memory of the process that spawned it, and the
benchmark itself holds parsed netlists.  The clock runs from just before
the spawn until the child is reaped.
"""

import os
import sys
import time


def main() -> None:
    fd = int(sys.argv[1])
    cmd = sys.argv[2:]
    os.set_inheritable(fd, False)
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    os.write(fd, f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}".encode())


if __name__ == "__main__":
    main()
