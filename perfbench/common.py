"""Paths, host facts, the calibration loop, digests and summaries."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from perfbench.speed import pinned

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, catalogs and traces.  Every run
#: works in its own subdirectory and removes it when it ends.
WORK = ROOT / ".perfbench"


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def program_env() -> dict:
    """Environment for child interpreters: the program and this package."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class Interrupted(Exception):
    """SIGTERM arrived: unwind so every ``finally`` cleans up."""


def raise_on_sigterm() -> None:
    def handler(signum, frame):
        raise Interrupted(f"signal {signum}")

    signal.signal(signal.SIGTERM, handler)


def calibrate() -> float:
    """Median ms of a fixed pure-Python + numpy loop (machine drift mark)."""
    import numpy

    samples = []
    data = numpy.arange(200_000, dtype=numpy.int64)[::-1].copy()
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for value in range(150_000):
            total += value * value % 7
        numpy.sort(data * 3 % 1009, kind="stable")
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the program's Python sources (names and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_facts() -> dict:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cpus": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
    }


def digest(cover, weight, dual_total, iterations, rounds) -> str:
    """Digest of the fields two exact solvers must agree on.

    Weights and dual totals are normalised through ``Fraction`` so an
    in-process ``CoverResult`` and its JSON wire form (ints and
    ``"num/den"`` strings) digest alike.
    """
    text = "|".join((
        ",".join(str(vertex) for vertex in sorted(cover)),
        str(Fraction(str(weight))),
        str(Fraction(str(dual_total))),
        str(int(iterations)),
        str(int(rounds)),
    ))
    return hashlib.sha256(text.encode()).hexdigest()


def result_digest(result) -> str:
    return digest(result.cover, result.weight, result.dual_total,
                  result.iterations, result.rounds)


def corrupt_digest(result) -> str:
    """The digest of ``result`` with its smallest cover vertex dropped.

    Used by ``--inject-wrong-answer`` to prove the gate catches an
    answer that differs from the oracle's.
    """
    cover = sorted(result.cover)[1:]
    return digest(cover, result.weight, result.dual_total,
                  result.iterations, result.rounds)


def p50(values) -> float:
    return statistics.median(values)


def _deciles(values) -> list[float]:
    values = list(values)
    if len(values) == 1:
        return values * 9
    return statistics.quantiles(values, n=10, method="inclusive")


def p90(values) -> float:
    return _deciles(values)[8]


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` maps a metric name to ``(value, unit, samples)``; the
    runner prints them all and emits the ones ``BENCHMARK.json`` lists
    for the requested mode.
    """

    attempted: int
    failed: int
    metrics: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def add_latencies(self, wall, reference) -> None:
        """p50 and p90, in ms, of per-op wall and reference seconds."""
        for suffix, seconds in (("", wall), ("_norm", reference)):
            self.add(f"p50{suffix}_ms", p50(seconds) * 1e3, "ms", len(seconds))
            self.add(f"p90{suffix}_ms", p90(seconds) * 1e3, "ms", len(seconds))

    def add_throughput(self, nnz: int, wall: float, reference: float,
                       samples: int) -> None:
        """Incidences of correctly solved instances per wall/reference s."""
        self.add("nnz_per_s", nnz / wall, "1/s", samples)
        self.add("nnz_per_norm_s", nnz / reference, "1/s", samples)


def import_window(cpu: int) -> tuple[int, int]:
    """``perf_counter_ns`` window of ``import repro`` in a fresh interpreter.

    The interpreter is pinned to ``cpu``, so a :class:`SpeedProbe` on
    that vCPU can turn the window into reference time.
    """
    code = ("import time; t = time.perf_counter_ns(); import repro; "
            "print(t, time.perf_counter_ns())")
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=program_env(),
        capture_output=True, text=True, timeout=120, check=True,
        preexec_fn=pinned(cpu),
    )
    start, end = out.stdout.strip().splitlines()[-1].split()
    return int(start), int(end)


def import_profile() -> dict[str, float]:
    """``import repro`` ms, and the ms spent in ``scipy`` modules within it.

    ``repro`` is the package's cumulative time under ``-X importtime``;
    ``scipy`` sums the self time of every ``scipy`` module it pulled in.
    """
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro"],
        cwd=ROOT, env=program_env(), capture_output=True, text=True,
        timeout=120, check=True,
    )
    found = {"repro": 0.0, "scipy": 0.0}
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name == "repro":
            found["repro"] = int(parts[1]) / 1e3
        elif name.split(".")[0] == "scipy":
            found["scipy"] += int(parts[0].rsplit(":", 1)[1]) / 1e3
    return found


class Child:
    """A fresh interpreter, pinned to ``cpu``, that runs timed ops on request.

    The parent sends one JSON line per op and reads one JSON line back,
    so it can check answers and take setup samples *between* timed ops.
    The timed ops then spread over the whole run, which evens out the
    host's speed swings, and the child's peak RSS stays the program's
    own.  The child is killed if it outlives the ``with`` block.
    """

    def __init__(self, module: str, cpu: int, timeout: float = 170):
        self.timeout = timeout
        self.process = subprocess.Popen(
            [sys.executable, "-m", module], cwd=ROOT, env=program_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=pinned(cpu),
        )

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        """End of input stops the child; an error or a hang kills it."""
        try:
            if exc_type is None:
                self.process.stdin.close()
                self.process.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait()
            for stream in (self.process.stdin, self.process.stdout):
                try:
                    stream.close()
                except OSError:
                    pass

    def call(self, request: dict) -> dict:
        self.process.stdin.write(json.dumps(request) + "\n")
        self.process.stdin.flush()
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    self.timeout)
        line = self.process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"benchmark child gave no answer to {request}")
        return json.loads(line)


def child_loop(handle) -> None:
    """The child's side of :class:`Child`: one reply line per request."""
    for line in sys.stdin:
        sys.stdout.write(json.dumps(handle(json.loads(line))) + "\n")
        sys.stdout.flush()
