"""Host-speed sampling, so timings can be read at a reference speed.

The vCPUs this benchmark was built on change speed on their own: a
fixed loop runs at one of two speeds ~1.4x apart, switching every few
hundred milliseconds, independently on each vCPU.  Raw op times
therefore swing by a quarter from run to run, far more than a
regression worth catching.

A sampler process (``python -m perfbench.speed``) is pinned to the
same vCPU as the program it watches.  Every ``INTERVAL`` seconds it
wakes, runs a fixed unit of work (a pure-Python loop and a small numpy
sort) a few times, and appends ``(wake_ns, timed_ns, end_ns)`` to a
file: it ran from ``wake_ns``, and its timed part from ``timed_ns``.
The program keeps that vCPU the rest of the time, so the samples
inside a timed window show how fast the vCPU ran during it.
:meth:`SpeedProbe.normalize` turns a window's wall time into
*reference time*: the wall time minus the sampler's own share of it,
scaled by ``REFERENCE_NS`` over the mean timed part.  A program change
moves reference time just as it moves wall time, because the sampler's
work does not depend on the program; a host speed swing moves it much
less.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

#: Seconds between two samples.
INTERVAL = 0.05
#: The timed part's duration that defines reference speed: reference
#: time equals wall time on a vCPU where it takes this long (0.8-1.4 ms
#: under load on the 2-vCPU x86_64 VM the benchmark was built on).
REFERENCE_NS = 1_000_000
#: A sample longer than this multiple of its window's median was cut
#: by a preemption, not slowed by the vCPU, and is left out of the mean.
OUTLIER = 3.0
#: Fewest samples a window's speed is taken from; shorter windows
#: borrow samples from around them.
MIN_SAMPLES = 5
#: Unit repetitions per sample: the first ones refill the caches the
#: program evicted and are not timed; the rest give the speed.  Timing
#: the refill too hid much of the slow state: a bare 0.25 ms unit ran
#: 1.2-1.3x slower in it where the program ran 1.5-1.8x slower.
WARM_UNITS, TIMED_UNITS = 2, 6
RECORD = struct.Struct("qqq")


def _work_unit(data) -> None:
    total = 0
    for value in range(1500):
        total += value * value % 7
    (data * 7 % 1009).sort()


def cpus() -> tuple[int, int]:
    """``(program_cpu, harness_cpu)``: distinct when the host has two.

    The program and its sampler share the last usable vCPU; the
    benchmark's own process (client, oracle, input generation) runs on
    the first, so it never takes the program's vCPU.
    """
    usable = sorted(os.sched_getaffinity(0))
    return usable[-1], usable[0]


_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def pin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})


def pinned(cpu: int, death_signal: int = signal.SIGKILL):
    """A ``preexec_fn``: pin the child to ``cpu``, and have the kernel
    send it ``death_signal`` if the benchmark dies without stopping it."""
    def setup() -> None:
        pin(cpu)
        _LIBC.prctl(_PR_SET_PDEATHSIG, death_signal)
    return setup


def group_members(group: int) -> list[tuple[int, str]]:
    """``(pid, state)`` of every process in process group ``group``."""
    members = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[-1].split()
        if int(fields[2]) == group:
            members.append((int(entry.name), fields[0]))
    return members


def sweep(workdir: Path) -> None:
    """Clean up after a benchmark process that was killed outright.

    In every process group named by a ``*.pgid`` file in ``workdir`` (a
    server and the pool worker it forked, which no death signal
    reaches), kill all but the multiprocessing resource tracker: it
    unlinks the group's leftover shared memory once the others are
    gone, then exits.  Then remove ``workdir``.
    """
    for marker in workdir.glob("*.pgid"):
        try:
            members = group_members(int(marker.read_text()))
        except ValueError:
            continue
        for pid, _ in members:
            try:
                if b"resource_tracker" in Path(
                        f"/proc/{pid}/cmdline").read_bytes():
                    continue
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    shutil.rmtree(workdir, ignore_errors=True)


class SpeedProbe:
    """Runs the sampler on ``cpu`` and reads its samples back.

    The sampler also stands guard: if the benchmark dies without
    stopping it, it calls :func:`sweep` on the run's work directory.
    """

    def __init__(self, cpu: int, workdir: Path):
        self.cpu = cpu
        self.path = workdir / f"speed-{cpu}.bin"
        self.path.write_bytes(b"")
        self.samples: list[tuple[int, int, int]] = []
        self._offset = 0
        self.process = subprocess.Popen(
            [sys.executable, "-m", "perfbench.speed", str(self.path)],
            cwd=Path(__file__).resolve().parent.parent,
            stdin=subprocess.DEVNULL,
            preexec_fn=pinned(cpu, signal.SIGTERM),
        )

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()

    def _refresh(self) -> None:
        with open(self.path, "rb") as handle:
            handle.seek(self._offset)
            data = handle.read()
        whole = len(data) - len(data) % RECORD.size
        self.samples.extend(RECORD.iter_unpack(data[:whole]))
        self._offset += whole

    def wait_for(self, end_ns: int, timeout: float = 2.0) -> None:
        """Block until a sample that starts after ``end_ns`` arrived."""
        deadline = time.monotonic() + timeout
        while True:
            self._refresh()
            if self.samples and self.samples[-1][0] > end_ns:
                return
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("the speed sampler stopped sampling")
            time.sleep(INTERVAL)

    def normalize(self, start_ns: int, end_ns: int) -> float:
        """Reference seconds of the window ``[start_ns, end_ns)``."""
        self.wait_for(end_ns)
        return reference_seconds(self.samples, start_ns, end_ns)

    def mean_sample_us(self) -> float:
        self._refresh()
        return statistics.fmean(end - timed
                                for _, timed, end in self.samples) / 1e3


def reference_seconds(samples, start_ns: int, end_ns: int) -> float:
    """Reference seconds of a window, given the samples around it.

    A sample is ``(wake_ns, timed_ns, end_ns)``: the sampler ran from
    ``wake_ns`` and its timed part from ``timed_ns``.  The sampler's
    whole time inside the window is taken out of the wall time; the
    rest is scaled by ``REFERENCE_NS`` over the mean timed part of the
    samples inside the window (or of the ``MIN_SAMPLES`` nearest to
    its middle, for a short window), leaving out samples a preemption
    cut.
    """
    stolen = sum(min(end, end_ns) - max(wake, start_ns)
                 for wake, _, end in samples if wake < end_ns and end > start_ns)
    chosen = [end - timed for wake, timed, end in samples
              if start_ns <= wake and end <= end_ns]
    if len(chosen) < MIN_SAMPLES:
        middle = (start_ns + end_ns) // 2
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
        chosen = [end - timed for _, timed, end in nearest[:MIN_SAMPLES]]
    typical = statistics.median(chosen)
    mean_ns = statistics.fmean(
        length for length in chosen if length <= OUTLIER * typical
    )
    return (end_ns - start_ns - stolen) / 1e9 * REFERENCE_NS / mean_ns


def _sample_forever(out: Path) -> None:
    import numpy

    parent = os.getppid()
    data = numpy.arange(4096, dtype=numpy.int64)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    descriptor = os.open(out, os.O_WRONLY | os.O_APPEND)
    try:
        while os.getppid() == parent:  # never outlive the benchmark
            time.sleep(INTERVAL)
            wake = time.perf_counter_ns()
            for _ in range(WARM_UNITS):
                _work_unit(data)
            timed = time.perf_counter_ns()
            for _ in range(TIMED_UNITS):
                _work_unit(data)
            os.write(descriptor,
                     RECORD.pack(wake, timed, time.perf_counter_ns()))
    finally:
        os.close(descriptor)
        if os.getppid() != parent:
            sweep(out.parent)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="file the samples go to")
    _sample_forever(parser.parse_args().out)
