"""``large``: one ``.hg`` file to a verified f-approximation, per op.

Each op reads a distinct rank-3 instance (20k vertices, 20k edges, 60k
incidences) with ``io.load`` and solves it with
``solve_mwhvc(executor="fastpath")`` at the Corollary 10 epsilon, with
the certificate checked.  The kernel lanes do most of the work; the
run spills from machine lanes to the big-int loop mid-run.

The timed ops run in a child interpreter (``python -m
perfbench.large``), one op per request.  Between two ops the parent
writes the next input, computes the oracle's answer for the last one
and takes two ``setup_s`` samples: a fresh interpreter's ``import
repro``, pinned to the child's vCPU while the child is idle, in
reference time.
"""

from __future__ import annotations

import resource
import time
from pathlib import Path

from repro import AlgorithmConfig, solve_mwhvc
from repro.core.fastpath import prepare_scaled_state, run_fastpath
from repro.core.solver import f_approx_epsilon
from repro.exceptions import ReproError
from repro.hypergraph import io as hg_io
from repro.lp.duality import ApproximationCertificate

from perfbench.common import (
    Child,
    Outcome,
    child_loop,
    corrupt_digest,
    import_profile,
    import_window,
    p50,
    result_digest,
)
from perfbench.inputs import LARGE_EDGES, RANK, large_instance
from perfbench.oracle import Oracle
from perfbench.speed import SpeedProbe
from perfbench.spans import Tracer, layer_ms, spans_from_dicts

#: Nominal seconds per op; the op count is fixed from ``--seconds``
#: alone so two commits always measure the same work.
OP_SECONDS = 2.5
#: ``import repro`` samples taken after each op.
SETUPS_PER_OP = 2
NNZ = LARGE_EDGES * RANK
LANES = ("int64", "two-limb", "three-limb", "bigint")


def op_count(seconds: int) -> int:
    return max(2, round(seconds / OP_SECONDS))


def run(seed: int, seconds: int, trace: bool, inject: bool,
        workdir: Path, probe: SpeedProbe) -> Outcome:
    count = op_count(seconds)
    oracle = Oracle("large", seed)
    setup = []
    replies = []
    failed = 0
    with Child("perfbench.large", probe.cpu) as child:
        for index in range(count):
            instance = large_instance(seed, index)
            path = workdir / f"large-{index}.hg"
            hg_io.save(instance, path)
            reply = child.call({"index": index, "path": str(path),
                                "trace": trace, "inject": inject})
            path.unlink()
            replies.append(reply)
            want = oracle.expected(f"op{index}", instance,
                                   f_approx_epsilon(instance))
            if reply["digest"] != want or (
                trace and reply["traced_digest"] != want
            ):
                failed += 1
            for _ in range(SETUPS_PER_OP):
                setup.append(import_window(probe.cpu))
        final = child.call({"finish": True})

    times = [reply["time"] for reply in replies]
    reference = [probe.normalize(*reply["window"]) for reply in replies]
    outcome = Outcome(attempted=count, failed=failed)
    outcome.add("setup_s", p50([probe.normalize(*window) for window in setup]),
                "s", len(setup))
    outcome.add_latencies(times, reference)
    outcome.add_throughput(NNZ * (count - failed), sum(times),
                           sum(reference), count)
    outcome.add("peak_rss_mb", final["maxrss_kb"] / 1024, "MB", 1)
    if trace:
        _traced_metrics(outcome, replies, final["spans"], times)
    return outcome


def _traced_metrics(outcome: Outcome, replies, rows, times) -> None:
    spans = spans_from_dicts(rows)
    outcome.spans = rows
    layers = layer_ms(spans)
    for name in ("io.load", "fastpath.prepare", "fastpath.sweeps",
                 "duality.verify"):
        outcome.add(f"{name}_ms", layers[name], "ms", len(times))
    outcome.add("fastpath.iterations",
                sum(reply["iterations"] for reply in replies), "count",
                len(times))
    lanes = [reply["lane"] for reply in replies]
    for lane in LANES:
        outcome.add(f"fastpath.lane.{lane}", lanes.count(lane), "count",
                    len(times))
    traced = [span.duration_ns / 1e9 for span in spans
              if span.name == "large.op"]
    outcome.add("trace.overhead_pct", (p50(traced) / p50(times) - 1) * 100,
                "%", len(times))
    profile = import_profile()
    outcome.add("import.repro_ms", profile["repro"], "ms", 1)
    outcome.add("import.scipy_ms", profile["scipy"], "ms", 1)


class _Ops:
    """The child's side: one timed op per request."""

    def __init__(self):
        self.tracer = Tracer(False)

    def __call__(self, request: dict) -> dict:
        if request.get("finish"):
            return {
                "spans": [span.as_dict() for span in self.tracer.spans],
                "maxrss_kb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss,
            }
        self.tracer.enabled = request["trace"]
        steps = [self._plain, self._traced] if request["trace"] else \
            [self._plain]
        # Alternate which variant reads the file first, so neither
        # always gets the warm page cache.
        if request["index"] % 2:
            steps.reverse()
        reply = {}
        for step in steps:
            step(request, reply)
        return reply

    def _plain(self, request: dict, reply: dict) -> None:
        start = time.perf_counter_ns()
        try:
            hypergraph = hg_io.load(request["path"])
            result = solve_mwhvc(
                hypergraph, f_approx_epsilon(hypergraph), executor="fastpath"
            )
        except ReproError as error:
            result = None
            reply.update(digest=f"error: {error}", lane=None, iterations=0)
        end = time.perf_counter_ns()
        reply.update(time=(end - start) / 1e9, window=(start, end))
        if result is None:
            return
        if result.certificate is None:
            reply["digest"] = "uncertified"
        elif request["inject"] and request["index"] == 0:
            reply["digest"] = corrupt_digest(result)
        else:
            reply["digest"] = result_digest(result)
        reply.update(lane=result.lane, iterations=result.iterations)

    def _traced(self, request: dict, reply: dict) -> None:
        op = f"op{request['index']}"
        span = self.tracer.span
        try:
            with span("large.op", op):
                with span("io.load", op):
                    hypergraph = hg_io.load(request["path"])
                epsilon = f_approx_epsilon(hypergraph)
                config = AlgorithmConfig(epsilon=epsilon)
                with span("fastpath.prepare", op):
                    state = prepare_scaled_state(hypergraph, config)
                with span("fastpath.sweeps", op):
                    result = run_fastpath(
                        hypergraph, config, state=state, verify=False
                    )
                with span("duality.verify", op):
                    ApproximationCertificate.verify(
                        hypergraph, result.cover, result.dual,
                        max(1, hypergraph.rank), epsilon,
                    )
        except ReproError as error:
            reply["traced_digest"] = f"error: {error}"
            return
        reply["traced_digest"] = result_digest(result)


if __name__ == "__main__":
    child_loop(_Ops())
