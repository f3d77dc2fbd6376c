"""``serve``: a TCP server under a closed loop of solves and updates.

``repro-cover serve --tcp 127.0.0.1:0 --jobs 1 --epsilon 1/10`` runs as
a subprocess; this process drives it over 2 connections, each sending
its next request only after the previous answer arrived.  Each
connection repeats one cycle: ``solve`` a fresh 8-component instance
(1,152 incidences), then 3 chained ``update``s that each reweight one
vertex of a different component.  The request count is fixed from
``--seconds`` alone, so the server's memory is compared at equal work.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from perfbench.common import (
    ROOT,
    Outcome,
    digest,
    import_profile,
    p50,
    program_env,
)
from perfbench.inputs import serve_instance, serve_script, solve_line
from perfbench.oracle import Oracle
from perfbench.speed import SpeedProbe, group_members, pinned
from perfbench.spans import Tracer, layer_ms

EPSILON = Fraction(1, 10)
SERVER_ARGS = ("serve", "--tcp", "127.0.0.1:0", "--jobs", "1",
               "--epsilon", "1/10")
CONNECTIONS = 2
#: Cycles (4 requests each) per connection per second of ``--seconds``:
#: ~40 requests/s in total, about what the closed loop sustains.
CYCLES_PER_SECOND = 5
SETUP_REPEATS = 5
STATS_LINE = b'{"op":"stats","id":"stats"}\n'


def cycle_count(seconds: int) -> int:
    return max(1, seconds * CYCLES_PER_SECOND)


class Server:
    """One server subprocess in its own process group, pinned to ``cpu``.

    Its pool worker inherits the pinning, so the whole request path
    shares one vCPU with the speed sampler.
    """

    def __init__(self, workdir: Path, cpu: int):
        self._log = open(workdir / "server.log", "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *SERVER_ARGS],
            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True,
            preexec_fn=pinned(cpu),
        )
        # Names the process group for the sampler's sweep, should this
        # process be killed before it stops the server.
        self._marker = workdir / f"server-{self.process.pid}.pgid"
        self._marker.write_text(str(self.process.pid))
        try:
            self.port = self._read_port(timeout=60)
        except BaseException:
            self.stop()
            raise

    def _read_port(self, timeout: float) -> int:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline().decode() if ready else ""
        if not line.startswith("serving on "):
            raise RuntimeError(f"server did not report its address: {line!r}")
        return int(line.rsplit(":", 1)[1])

    def status_kb(self, field: str) -> int:
        for line in Path(f"/proc/{self.process.pid}/status").read_text(
        ).splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
        raise RuntimeError(f"/proc status has no {field}")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then sweep the whole process group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        # The pool worker is not ours to wait for: poll until every
        # process of the group has ended (a zombie has), so none
        # outlives the run.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(
            state != "Z" for _, state in group_members(self.process.pid)
        ):
            time.sleep(0.05)
        self._marker.unlink(missing_ok=True)
        self.process.stdout.close()
        self._log.close()


class Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 24
        )
        return cls(reader, writer)

    async def roundtrip(self, line: bytes) -> bytes:
        self.writer.write(line)
        await self.writer.drain()
        answer = await self.reader.readline()
        if not answer:
            raise ConnectionError("server closed the connection")
        return answer

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _start(seed: int, workdir: Path, cpu: int, servers: list):
    """Spawn a server; setup ends at the first OK on each connection.

    Returns the server, its connections and the setup window in
    ``perf_counter_ns``.  The server joins ``servers`` until
    :func:`_stop` ends it, so the caller can stop it whatever
    interrupts the run.
    """
    warm = [solve_line(f"warm{index}", serve_instance(seed, f"warm{index}")[0])
            for index in range(CONNECTIONS)]
    start = time.perf_counter_ns()
    server = Server(workdir, cpu)
    servers.append(server)
    connections = []
    try:
        for _ in range(CONNECTIONS):
            connections.append(await Connection.open(server.port))
        answers = await asyncio.gather(*(
            connection.roundtrip(line)
            for connection, line in zip(connections, warm)
        ))
        window = (start, time.perf_counter_ns())
        if not all(json.loads(answer).get("ok") for answer in answers):
            raise RuntimeError("warm-up solve failed")
    except BaseException:
        await _stop(server, connections, servers)
        raise
    return server, connections, window


async def _stop(server: Server, connections, servers: list) -> None:
    for connection in connections:
        await connection.close()
    server.stop()
    servers.remove(server)


async def _drive(connection, script, records, tracer: Tracer) -> None:
    for position, (key, line, _) in enumerate(script):
        traced = tracer.enabled and (position // 4) % 2 == 0
        with tracer.span("serve.request", key) if traced else nullcontext():
            start = time.perf_counter_ns()
            answer = await connection.roundtrip(line)
            end = time.perf_counter_ns()
        records.append((key, (end - start) / 1e6, answer, traced,
                        (start, end)))


async def _measure(seed, seconds, workdir, cpu, tracer, servers):
    cycles = cycle_count(seconds)
    scripts = [list(serve_script(seed, index, cycles))
               for index in range(CONNECTIONS)]
    setup = []
    for _ in range(SETUP_REPEATS - 1):
        server, connections, window = await _start(seed, workdir, cpu, servers)
        setup.append(window)
        await _stop(server, connections, servers)
    server, connections, window = await _start(seed, workdir, cpu, servers)
    setup.append(window)
    try:
        rss_before = server.status_kb("VmRSS")
        records = [[] for _ in connections]
        start = time.perf_counter_ns()
        await asyncio.gather(*(
            _drive(connection, script, rows, tracer)
            for connection, script, rows in zip(connections, scripts, records)
        ))
        wall = (start, time.perf_counter_ns())
        memory = {
            "peak_kb": server.status_kb("VmHWM"),
            "rss_growth_kb": server.status_kb("VmRSS") - rss_before,
        }
        stats = json.loads(await connections[0].roundtrip(STATS_LINE))
    finally:
        await _stop(server, connections, servers)
    return scripts, setup, [row for rows in records for row in rows], wall, \
        memory, stats


def run(seed: int, seconds: int, trace: bool, inject: bool,
        workdir: Path, probe: SpeedProbe) -> Outcome:
    tracer = Tracer(trace)
    servers: list[Server] = []
    try:
        scripts, setup, records, wall, memory, stats = asyncio.run(
            _measure(seed, seconds, workdir, probe.cpu, tracer, servers)
        )
    finally:
        for server in servers:
            server.stop()
    requests = {key: (line, instance)
                for script in scripts for key, line, instance in script}

    oracle = Oracle("serve", seed)
    failed = set()
    correct_nnz = 0
    latency = {}
    for key, _, answer, _, _ in records:
        message = json.loads(answer)
        instance = requests[key][1]
        result = message.get("result") if message.get("ok") else None
        if result is None or result.get("certified_ratio") is None or (
            Fraction(result["certified_ratio"]) > Fraction(result["guarantee"])
        ):
            failed.add(key)
            continue
        cover = result["cover"]
        if inject and not latency:
            cover = sorted(cover)[1:]
        got = digest(cover, result["weight"], result["dual_total"],
                     result["iterations"], result["rounds"])
        latency[key] = message["latency_ms"]
        if got != oracle.expected(key, instance, EPSILON):
            failed.add(key)
        else:
            correct_nnz += sum(len(edge) for edge in instance.edges)

    outcome = Outcome(attempted=len(records), failed=0)
    outcome.add("setup_s", p50([probe.normalize(*window) for window in setup]),
                "s", len(setup))
    outcome.add_latencies(
        [row[1] / 1e3 for row in records],
        [probe.normalize(*row[4]) for row in records],
    )
    outcome.add_throughput(correct_nnz, (wall[1] - wall[0]) / 1e9,
                           probe.normalize(*wall), len(records))
    outcome.add("peak_rss_mb", memory["peak_kb"] / 1024, "MB", 1)
    if trace:
        _replay(tracer, records, requests, oracle, failed)
        _traced_metrics(outcome, tracer, records, latency, memory, stats)
    outcome.failed = len(failed)
    return outcome


def _replay(tracer, records, requests, oracle, failed) -> None:
    """Re-run each traced request through each layer's public function."""
    from repro import AlgorithmConfig, resolve_incremental, solve_state
    from repro.core.fastpath import run_fastpath
    from repro.core.server import parse_instance
    from repro.hypergraph import GraphDelta
    from repro.lp.duality import ApproximationCertificate

    config = AlgorithmConfig(epsilon=EPSILON)
    state = None
    for key, _, _, traced, _ in records:
        if not traced:
            continue
        line, instance = requests[key]
        with tracer.span("serve.replay", key):
            if "-u" not in key:
                with tracer.span("server.parse", key):
                    hypergraph = parse_instance(json.loads(line))
                with tracer.span("fastpath.solve", key):
                    result = run_fastpath(hypergraph, config, verify=False)
                with tracer.span("duality.verify", key):
                    ApproximationCertificate.verify(
                        hypergraph, result.cover, result.dual,
                        max(1, hypergraph.rank), EPSILON,
                    )
            elif key.endswith("-u1"):
                with tracer.span("incremental.resolve", key):
                    state = solve_state(instance, config)
                result = state.result
            else:
                vertex, weight = json.loads(line)["set_weights"][0]
                with tracer.span("incremental.resolve", key):
                    state = resolve_incremental(
                        state, GraphDelta(reweighted=((vertex, weight),))
                    )
                result = state.result
            with tracer.span("server.encode", key):
                json.dumps(result.as_dict())
        if digest(result.cover, result.weight, result.dual_total,
                  result.iterations, result.rounds) != oracle.expected(
                      key, instance, EPSILON):
            failed.add(key)


def _traced_metrics(outcome, tracer, records, latency, memory, stats) -> None:
    layers = layer_ms(tracer.spans)
    traced = [row for row in records if row[3]]
    solves = sum(1 for row in traced if "-u" not in row[0])
    outcome.add("server.latency_ms", p50(latency.values()), "ms",
                len(latency))
    outcome.add("serve.wire_ms",
                p50([rt - latency[key] for key, rt, *_ in records
                     if key in latency]), "ms", len(latency))
    for name, samples in (("server.parse", solves),
                          ("fastpath.solve", solves),
                          ("duality.verify", solves),
                          ("incremental.resolve", len(traced) - solves),
                          ("server.encode", len(traced))):
        outcome.add(f"{name}_ms", layers[name], "ms", samples)
    work: dict[str, float] = {}
    for span in tracer.spans:
        if span.name in ("fastpath.solve", "duality.verify",
                         "incremental.resolve"):
            work[span.op] = work.get(span.op, 0.0) + span.duration_ns / 1e6
    outcome.add("session.overhead_ms",
                p50([latency[key] - spent for key, spent in work.items()
                     if key in latency]), "ms", len(work))
    server = stats.get("server", {})
    session = stats.get("session", {}).get("stats", {})
    outcome.add("incremental.warm_share",
                server.get("warm_updates", 0) / max(1, server.get("updates", 0)),
                "share", server.get("updates", 0))
    outcome.add("session.retries", session.get("retries", 0), "count", 1)
    outcome.add("session.degraded", session.get("degraded", 0), "count", 1)
    outcome.add("server.shed", server.get("shed", 0), "count", 1)
    outcome.add("server.errors", server.get("errors", 0), "count", 1)
    outcome.add("server.rss_kb_per_request",
                memory["rss_growth_kb"] / len(records), "kB", len(records))
    traced_times = [row[1] for row in traced]
    plain_times = [row[1] for row in records if not row[3]]
    outcome.add("trace.overhead_pct",
                (p50(traced_times) / p50(plain_times) - 1) * 100, "%",
                len(records))
    profile = import_profile()
    outcome.add("import.repro_ms", profile["repro"], "ms", 1)
    outcome.add("import.scipy_ms", profile["scipy"], "ms", 1)
    outcome.spans = [span.as_dict() for span in tracer.spans]
