"""End-to-end runs: CLI invocations in child processes, on a shared machine.

On the shared 2-core box this benchmark was written on, the speed of one
core changed by up to 3x within seconds, because other tenants used the
same hardware.  CPU time moved with it, so raw seconds from two runs
minutes apart are not comparable.  Measured there: the medians of 25-second
runs spread by 11 to 26 % between runs, and a reference loop timed just
after each invocation did not track the change either.

So the benchmark measures each child against a reference loop that runs at
the same time on the same core.  A worker process, pinned to the measured
core, repeats a fixed pure-Python miniature of the field code: objects
holding coefficient tuples, modular multiply and add, set inserts.  The
child is pinned to the same core, so the two share it in scheduler slices
of a few ms and see the same hardware speed.  The worker's steps per CPU
second during the child's life give that speed.  Times are then reported
in nominal seconds: measured seconds x (steps per CPU second / ``NOMINAL_RATE``).
Per invocation of certify-solve, the spread of CPU seconds was 5 to 24 %
raw and 1 to 2 % nominal on that box.

The child's own wall time is its wall time minus the time it waited for
the core, read from ``/proc/<pid>/schedstat`` before it is reaped.  This is
what it would take alone on that core.  The benchmark process itself runs
on the other cores, when there are any.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

# Reference steps per CPU second that count as one nominal second.  The box
# the benchmark was written on did 0.4 to 0.85 million.
NOMINAL_RATE = 750_000

INVOCATION_TIMEOUT_S = 120

# A miniature of the field code: elements of F_31^2 as objects holding a
# coefficient tuple, one multiply, one add and one set insert per step.
# SIGUSR1 makes it print "steps done, its CPU ns" at one instant.
REFERENCE_WORKER = """\
import os, signal, sys, time
os.sched_setaffinity(0, {int(sys.argv[1])})

class E:
    __slots__ = ("c",)
    def __init__(self, c):
        self.c = c
    def __add__(self, o):
        return E(tuple((a + b) % 31 for a, b in zip(self.c, o.c)))
    def __mul__(self, o):
        a0, a1 = self.c
        b0, b1 = o.c
        return E(((a0 * b0 + 3 * a1 * b1) % 31, (a0 * b1 + a1 * b0) % 31))

ELEMS = [E((i % 31, i // 31)) for i in range(961)]

def batch():
    seen = set()
    acc = ELEMS[1]
    for x in ELEMS:
        acc = acc * x + x
        seen.add(acc.c)

done = 0
def report(*_):
    os.write(1, f"{done} {time.thread_time_ns()}\\n".encode())
signal.signal(signal.SIGUSR1, report)
signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
os.write(1, b"ready\\n")
while True:
    batch()
    done += len(ELEMS)
"""

# Starts one child on core argv[3] and waits for it.  Writes "wall_s cpu_s
# maxrss_kib exitcode runqueue_wait_ns" to the file descriptor argv[1].  A
# launcher of under 10 MiB starts the child, not the benchmark process: a
# spawned child runs in its parent's memory until it execs, and Linux counts
# that memory in the child's ru_maxrss.  The alarm kills a child that hangs.
LAUNCHER = """\
import os, signal, sys, time
fd, timeout, cpu = map(int, sys.argv[1:4])
os.set_inheritable(fd, False)
os.sched_setaffinity(0, {cpu})
start = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[4:]], os.environ)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.alarm(timeout)
os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
wall = time.perf_counter() - start
signal.alarm(0)
with open(f"/proc/{pid}/schedstat") as fh:
    waited = int(fh.read().split()[1])
_, status, usage = os.wait4(pid, 0)
os.write(fd, f"{wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss} "
             f"{os.waitstatus_to_exitcode(status)} {waited}".encode())
"""


class Core:
    """The measured core: a reference worker pinned to it, and the means to
    run children next to that worker.  Use as a context manager; leaving it
    stops the worker and restores this process's CPU affinity."""

    def __init__(self, root: Path, env: dict):
        self.root, self.env = root, env
        self.cpus = sorted(os.sched_getaffinity(0))
        self.cpu = self.cpus[-1]

    def __enter__(self):
        os.sched_setaffinity(0, self.cpus[:-1] or self.cpus)
        self.worker = subprocess.Popen(
            [sys.executable, "-S", "-E", "-c", REFERENCE_WORKER, str(self.cpu)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        if self.worker.stdout.readline() != b"ready\n":
            raise RuntimeError("reference worker did not start")
        return self

    def __exit__(self, *exc):
        self.worker.terminate()
        self.worker.wait()
        self.worker.stdout.close()
        os.sched_setaffinity(0, self.cpus)
        return False

    def _reference(self) -> tuple[int, int]:
        """(steps done, worker CPU ns), sampled at the same instant."""
        self.worker.send_signal(signal.SIGUSR1)
        done, cpu_ns = self.worker.stdout.readline().split()
        return int(done), int(cpu_ns)

    def run(self, args: list[str]) -> dict:
        """Run ``python *args`` on the measured core to completion.

        Returns stdout, stderr, exit code, peak RSS of the child alone, and
        its own wall time and CPU time, raw and in nominal seconds."""
        report_r, report_w = os.pipe()
        before = self._reference()
        proc = subprocess.Popen(
            [sys.executable, "-S", "-E", "-c", LAUNCHER, str(report_w),
             str(INVOCATION_TIMEOUT_S), str(self.cpu), *args],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, pass_fds=(report_w,))
        os.close(report_w)
        out, err = proc.communicate()
        after = self._reference()
        with os.fdopen(report_r, "rb") as report:
            fields = report.read().split()
        if proc.returncode != 0 or len(fields) != 5:
            raise RuntimeError(f"launcher failed: {err[-300:]!r}")
        wall, cpu, rss_kib, code, waited_ns = fields
        worker_s = (after[1] - before[1]) / 1e9
        if worker_s <= 0:
            raise RuntimeError("the reference loop did not run beside the child")
        speed = (after[0] - before[0]) / worker_s / NOMINAL_RATE
        own_wall = float(wall) - int(waited_ns) / 1e9
        return {"stdout": out, "stderr": err, "code": int(code),
                "peak_rss_mb": int(rss_kib) / 1024, "speed": speed,
                "wall_raw_s": own_wall, "cpu_raw_s": float(cpu),
                "wall_s": own_wall * speed, "cpu_s": float(cpu) * speed}
