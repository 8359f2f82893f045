"""Host time in reference seconds: CPU time scaled by the host's speed.

The benchmark's host is a vCPU of a shared machine.  Its speed per CPU
second swings by up to 1.6x within seconds and over minutes with the
load of other tenants, so wall or CPU time alone moves more between
runs than any change worth catching.

:class:`ReferenceClock` starts a calibration process (this file run as
a script) pinned to the same CPU as the benchmark.  The kernel time-
slices the two every few milliseconds, so both see the same host
speed.  The calibrator runs a fixed interpreter loop and publishes its
cumulative iterations and CPU seconds through a shared page.  A span of
the benchmark's CPU time is converted to reference seconds by the
calibrator's speed over the same interval: a reference second is the
CPU second of a host that runs the loop :data:`REFERENCE_RATE` times.
A faster simulator needs fewer CPU seconds for the same work, so it
reads faster in reference seconds too.

:class:`WallClock` has the same interface and reads plain wall seconds
(the traced pass, whose spans are wall clock).

Run as a script only by :class:`ReferenceClock`::

    python3 perfbench/refclock.py <shared-memory-fd> <parent-pid>
"""

from __future__ import annotations

import contextlib
import ctypes
import mmap
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

#: Calibration-loop iterations per CPU second of the reference host.
#: It is near this loop's fastest rate on a 2.0 GHz Xeon vCPU of a
#: shared host, so reference seconds are close to CPU seconds there.
REFERENCE_RATE = 6.0e6

#: Iterations between two publications of the calibrator's counters.
CHUNK = 200

#: Shared page layout: sequence number (odd while a write is under way),
#: cumulative iterations, cumulative calibrator CPU seconds.
_LAYOUT = struct.Struct("<QQd")
_SEQ = struct.Struct("<Q")

#: A speed interval must hold at least this many calibrator chunks.
MIN_CHUNKS = 4

#: How long the calibrator runs alone on either side of a train of
#: short spans (see :meth:`ReferenceClock.bracketed`).
PAUSE_S = 0.005

#: How long the calibrator may take to publish its first counters.
START_TIMEOUT_S = 30.0


class ClockError(Exception):
    """The calibrator did not start or made no progress."""


def pin_to_one_cpu() -> None:
    """Pin this process (and threads and children started later) to the
    lowest CPU it may run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class WallClock:
    """Wall seconds; the speed factor is always 1."""

    now = staticmethod(time.perf_counter)
    unit = "s"

    def speed_mark(self) -> None:
        return None

    def speed_since(self, mark: None) -> float:
        return 1.0

    def bracketed(self):
        return contextlib.nullcontext()

    def close(self) -> None:
        pass


class ReferenceClock:
    """CPU seconds of this process, scaled to reference seconds by a
    calibrator sharing its CPU.

    ``now()`` reads this process's CPU seconds.  ``speed_since(mark)``
    is the host's speed over the interval since ``speed_mark()``,
    relative to the reference host, so ``cpu_seconds * speed`` are
    reference seconds.  Call :func:`pin_to_one_cpu` first; the
    calibrator inherits the pin.
    """

    now = staticmethod(time.process_time)
    unit = "reference s"

    def __init__(self) -> None:
        # An anonymous memory file: no path, no writeback to a disk.
        self._fd = os.memfd_create("refclock")
        os.ftruncate(self._fd, mmap.PAGESIZE)
        self._page = mmap.mmap(self._fd, mmap.PAGESIZE)
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self._fd),
             str(os.getpid())], stdin=subprocess.DEVNULL,
            pass_fds=(self._fd,))
        deadline = time.monotonic() + START_TIMEOUT_S
        try:
            while self._read()[0] < MIN_CHUNKS * CHUNK:
                if self._proc.poll() is not None:
                    raise ClockError("the calibrator exited with code "
                                     f"{self._proc.returncode}")
                if time.monotonic() > deadline:
                    raise ClockError("the calibrator did not start")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def _read(self) -> tuple[int, float]:
        while True:
            seq, iterations, cpu = _LAYOUT.unpack_from(self._page)
            if not seq & 1 and _SEQ.unpack_from(self._page)[0] == seq:
                return iterations, cpu
            os.sched_yield()  # the calibrator was preempted mid-write

    def speed_mark(self) -> tuple[int, float]:
        return self._read()

    def speed_since(self, mark: tuple[int, float]) -> float:
        iterations, cpu = self._read()
        if iterations - mark[0] < MIN_CHUNKS * CHUNK or cpu <= mark[1]:
            if self._proc.poll() is not None:
                raise ClockError("the calibrator exited with code "
                                 f"{self._proc.returncode}")
            raise ClockError("interval too short to measure host speed: "
                             f"{iterations - mark[0]} calibrator iterations")
        return (iterations - mark[0]) / (cpu - mark[1]) / REFERENCE_RATE

    @contextlib.contextmanager
    def bracketed(self):
        """Run a train of spans much shorter than a scheduler slice with
        the calibrator stopped, and let it run alone for ``PAUSE_S`` on
        either side.  Sharing the CPU would preempt such a train at
        random points and resume it with caches the calibrator has just
        used; threads that wake each other often can also keep the
        calibrator off the CPU.  Take the speed mark before entering."""
        time.sleep(PAUSE_S)
        self._proc.send_signal(signal.SIGSTOP)
        try:
            yield
        finally:
            self._proc.send_signal(signal.SIGCONT)
            time.sleep(PAUSE_S)

    def close(self) -> None:
        if self._proc is not None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc = None
        self._page.close()
        os.close(self._fd)


def calibrate(fd: int, parent: int) -> None:
    """The calibrator: run the fixed loop, publish after every chunk,
    and exit when the parent process is gone.  The kernel kills it if
    the parent dies while it is stopped."""
    pr_set_pdeathsig = 1
    if ctypes.CDLL(None, use_errno=True).prctl(pr_set_pdeathsig,
                                               signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG)")
    with mmap.mmap(fd, mmap.PAGESIZE) as page:
        table: dict[int, int] = {}
        acc = seq = iterations = 0
        cpu_time = time.process_time
        while os.getppid() == parent:
            for i in range(CHUNK):
                table[i & 1023] = acc
                acc = (acc * 31 + i) & 0xFFFF
                if acc & 1:
                    acc ^= table.get((i >> 3) & 1023, 0)
            iterations += CHUNK
            # Read the clock before the write begins: the kernel tends
            # to preempt on return from that call, and a reader would
            # then find the page mid-write for a whole time slice.
            cpu = cpu_time()
            seq += 1
            _SEQ.pack_into(page, 0, seq)
            _LAYOUT.pack_into(page, 0, seq, iterations, cpu)
            seq += 1
            _SEQ.pack_into(page, 0, seq)


if __name__ == "__main__":
    calibrate(int(sys.argv[1]), int(sys.argv[2]))
