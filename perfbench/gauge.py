"""Host-speed gauge: rescales a child's CPU time to a nominal host speed.

On the 2-vCPU host this benchmark was written on, CPU-bound Python runs at
speeds up to 2x apart.  The speed changes within a second, a slow spell can
last tens of seconds, and a child's CPU time rises as much as its wall time,
so the cause lies below the guest.  Probes timed just before and after a
command do not track it.  The gauge therefore measures the speed *while*
the child runs: a low-priority thread pinned to the child's CPU repeats a
fixed pure-Python ``Fraction`` unit, so the scheduler interleaves it with the
child in slices of a few milliseconds.  Its CPU time per unit is the current
cost of Python arithmetic on that CPU, and the child's CPU time is
multiplied by ``UNIT_NOMINAL_S / (gauge CPU time per unit)``.  Over ten runs
of each workload there, the spread (interquartile range over median) of a
command's per-run median time was 6-14% in wall time and 1-7% rescaled.

Using CPU time instead of wall time also drops the time the child waits for
its CPU; for this single-threaded program both agree within 0.1% when the
core is otherwise idle.
"""

from __future__ import annotations

import os
import subprocess
import threading
import time
from fractions import Fraction

#: Gauge CPU time per unit at the nominal host speed: a reported second is
#: a second on a core where one unit takes this long.
UNIT_NOMINAL_S = 350e-6
#: Nice value of the gauge thread; at 10 it takes about a tenth of the CPU.
NICE = 10
#: Units the gauge completes at least, so a short child still gets a rate.
MIN_UNITS = 50

_SMALL_A = [Fraction(k + 1, 3 ** k) for k in range(6)]
_SMALL_B = [Fraction(2 * k + 1, 5 ** k) for k in range(6)]
_BIG = [Fraction(3 ** (200 + k) + 1, 7 ** (150 + k)) for k in range(4)]


def _unit() -> None:
    """Small-height Fraction products, as in the Poly kernel, then products
    of 300-digit Fractions, as in the Bernoulli numbers and long series; a
    unit of either kind alone tracks the other kind of command worse."""
    out = [Fraction(0)] * 11
    for i, a in enumerate(_SMALL_A):
        for j, b in enumerate(_SMALL_B):
            out[i + j] += a * b
    acc = Fraction(0)
    for a in _BIG:
        for b in _BIG:
            acc += a * b
    str(acc.numerator)


class Gauge:
    """Runs the gauge thread on ``cpu`` for the duration of a ``with``."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.units = 0
        self.cpu_s = 0.0
        self.error: OSError | None = None
        self._stop = threading.Event()
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        try:
            os.sched_setaffinity(0, {self.cpu})
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), NICE)
        except OSError as exc:
            self.error = exc
            return
        finally:
            self._ready.set()
        t0 = time.thread_time()
        n = 0
        while n < MIN_UNITS or not self._stop.is_set():
            _unit()
            n += 1
        self.units, self.cpu_s = n, time.thread_time() - t0

    def __enter__(self) -> "Gauge":
        self._thread.start()
        self._ready.wait()
        if self.error is not None:
            self._thread.join()
            raise self.error
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def scale(self) -> float:
        """Factor from CPU seconds now to CPU seconds at nominal speed."""
        return UNIT_NOMINAL_S * self.units / self.cpu_s


def run_gauged(args: list[str], cpu: int, **popen) -> tuple[float, float, float, int, int]:
    """Run ``args`` pinned to ``cpu`` beside a gauge.

    Returns (rescaled CPU s, child CPU s, spawn-to-exit wall s, exit code,
    max RSS KiB).  The calling thread is pinned to ``cpu`` only while the
    child is forked, so that the child inherits the affinity.
    """
    allowed = os.sched_getaffinity(0)
    with Gauge(cpu) as gauge:
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        try:
            proc = subprocess.Popen(args, **popen)
        finally:
            os.sched_setaffinity(0, allowed)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_s = usage.ru_utime + usage.ru_stime
    return cpu_s * gauge.scale, cpu_s, wall, proc.returncode, usage.ru_maxrss
