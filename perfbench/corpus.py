"""``corpus``: solve packed catalogs of 512 small instances in-process.

Setup packs each catalog with ``pack_corpus`` (the store's write path);
the timed part runs ``solve_corpus`` over it (mmap load, batch arena,
certificate check) one segment at a time.  Each catalog holds its own
distinct instances, so no pass can reuse another's answers.  An op is
one catalog segment (64 instances).

The packs and the timed passes run in a child interpreter (``python
-m perfbench.corpus``), one pack or pass per request, so both run on
the sampled vCPU and read in reference time.  Between two passes the
parent checks the last pass's answers.
"""

from __future__ import annotations

import resource
import shutil
import time
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

from repro import AlgorithmConfig
from repro.core.batch import run_fastpath_batch
from repro.core.corpus import ArenaCatalog, pack_corpus, solve_corpus
from repro.exceptions import ReproError
from repro.hypergraph.csr import arena_hypergraphs
from repro.hypergraph.store import load_arena
from repro.lp.duality import ApproximationCertificate

from perfbench.common import (
    Child,
    Outcome,
    child_loop,
    corrupt_digest,
    import_profile,
    p50,
    result_digest,
)
from perfbench.inputs import corpus_instances
from perfbench.oracle import Oracle
from perfbench.speed import SpeedProbe
from perfbench.spans import Tracer, layer_ms, spans_from_dicts

EPSILON = Fraction(1, 10)
#: Nominal seconds per catalog pass; the catalog count is fixed from
#: ``--seconds`` alone so two commits always measure the same work.
PASS_SECONDS = 5.0
#: Each catalog is packed this many times into an empty directory (the
#: first copy is solved): pack time swings with disk writes, so
#: ``setup_s`` is the median of several packs.
PACKS_PER_CATALOG = 3
LANES = ("int64", "two-limb", "three-limb", "bigint")


def catalog_count(seconds: int) -> int:
    return max(2, round(seconds / PASS_SECONDS))


@contextmanager
def pack_spans(tracer: Tracer, op: str):
    """Span the calls ``pack_corpus`` makes into the CSR, store and io layers."""
    import repro.core.corpus as corpus_module
    import repro.hypergraph.io as io_module

    targets = [
        (corpus_module, "pack_arena", "csr.pack_arena"),
        (corpus_module, "save_arena", "store.save_arena"),
        (io_module, "dumps", "io.dumps"),
    ]
    originals = [getattr(module, attr) for module, attr, _ in targets]

    def wrap(name, function):
        def traced(*args, **kwargs):
            with tracer.span(name, op):
                return function(*args, **kwargs)
        return traced

    for (module, attr, name), function in zip(targets, originals):
        setattr(module, attr, wrap(name, function))
    try:
        yield
    finally:
        for (module, attr, _), function in zip(targets, originals):
            setattr(module, attr, function)


def run(seed: int, seconds: int, trace: bool, inject: bool,
        workdir: Path, probe: SpeedProbe) -> Outcome:
    oracle = Oracle("corpus", seed)
    setup = []
    replies = []
    attempted = failed = correct_nnz = 0
    with Child("perfbench.corpus", probe.cpu) as child:
        for catalog in range(catalog_count(seconds)):
            for repeat in range(PACKS_PER_CATALOG):
                directory = workdir / f"catalog-{catalog}-{repeat}"
                setup.append(child.call({
                    "pack": catalog, "seed": seed, "repeat": repeat,
                    "directory": str(directory), "trace": trace,
                })["window"])
                if repeat:
                    shutil.rmtree(directory)
            directory = workdir / f"catalog-{catalog}-0"
            reply = child.call({"catalog": catalog,
                                "directory": str(directory),
                                "trace": trace, "inject": inject})
            shutil.rmtree(directory)
            replies.append(reply)
            for instance_id, instance in corpus_instances(seed, catalog):
                key = f"cat{catalog}/{instance_id}"
                want = oracle.expected(key, instance, EPSILON)
                attempted += 1
                if reply["digests"].get(key) != want or (
                    trace and reply["traced_digests"].get(key) != want
                ):
                    failed += 1
                else:
                    correct_nnz += sum(len(edge) for edge in instance.edges)
        final = child.call({"finish": True})

    passes = [reply["windows"] for reply in replies]
    # A pass's first window opens the catalog and its last finds no
    # further segment; the ones between each solve one segment.
    segments = [window for windows in passes for window in windows[1:-1]]
    every = [window for windows in passes for window in windows]
    wall = sum(end - start for start, end in every) / 1e9
    outcome = Outcome(attempted=attempted, failed=failed)
    outcome.add("setup_s", p50([probe.normalize(*window) for window in setup]),
                "s", len(setup))
    outcome.add_latencies(
        [(end - start) / 1e9 for start, end in segments],
        [probe.normalize(start, end) for start, end in segments],
    )
    outcome.add_throughput(
        correct_nnz, wall, sum(probe.normalize(start, end) for start, end in every), attempted,
    )
    outcome.add("peak_rss_mb", final["maxrss_kb"] / 1024, "MB", 1)
    if trace:
        outcome.spans = final["spans"]
        layers = layer_ms(spans_from_dicts(outcome.spans))
        for name in ("csr.pack_arena", "store.save_arena", "io.dumps"):
            outcome.add(f"{name}_ms", layers[name], "ms", len(setup))
        for name in ("corpus.open", "store.load", "csr.arena_hypergraphs",
                     "batch.solve", "duality.verify"):
            outcome.add(f"{name}_ms", layers[name], "ms", len(segments))
        lanes = [lane for reply in replies for lane in reply["lanes"]]
        for lane in LANES:
            outcome.add(f"batch.lane.{lane}", lanes.count(lane), "count",
                        attempted)
        traced = sum(row["end_ns"] - row["start_ns"] for row in outcome.spans
                     if row["name"] == "corpus.pass") / 1e9
        outcome.add("trace.overhead_pct", (traced / wall - 1) * 100,
                    "%", len(replies))
        profile = import_profile()
        outcome.add("import.repro_ms", profile["repro"], "ms", 1)
        outcome.add("import.scipy_ms", profile["scipy"], "ms", 1)
    return outcome


def _certificate_error(instance, result) -> str | None:
    try:
        ApproximationCertificate.verify(
            instance, result.cover, result.dual, max(1, instance.rank),
            EPSILON,
        )
    except ReproError as error:
        return f"error: {error}"
    return None


class _Passes:
    """The child's side: one timed pack or catalog pass per request."""

    def __init__(self):
        self.config = AlgorithmConfig(epsilon=EPSILON)
        self.tracer = Tracer(False)
        self.items = None

    def __call__(self, request: dict) -> dict:
        if request.get("finish"):
            return {
                "spans": [span.as_dict() for span in self.tracer.spans],
                "maxrss_kb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss,
            }
        self.tracer.enabled = request["trace"]
        if "pack" in request:
            return self._pack(request)
        steps = [self._plain, self._traced] if request["trace"] else \
            [self._plain]
        # Alternate which variant reads the catalog first, so neither
        # always gets the warm page cache.
        if request["catalog"] % 2:
            steps.reverse()
        reply = {"windows": [], "digests": {}, "lanes": [],
                 "traced_digests": {}}
        for step in steps:
            step(request, reply)
        return reply

    def _pack(self, request: dict) -> dict:
        """``pack_corpus`` of one catalog into an empty directory, timed.

        The catalog's instances are made once, untimed, and kept for
        its repeated packs.
        """
        catalog = request["pack"]
        if request["repeat"] == 0:
            self.items = None  # the last catalog's, freed before the next
            self.items = corpus_instances(request["seed"], catalog)
        op = f"pack{catalog}-{request['repeat']}"
        tracer = self.tracer
        with pack_spans(tracer, op) if tracer.enabled else nullcontext():
            start = time.perf_counter_ns()
            with tracer.span("corpus.pack", op):
                pack_corpus(self.items, request["directory"],
                            config=self.config)
            end = time.perf_counter_ns()
        return {"window": (start, end)}

    def _plain(self, request: dict, reply: dict) -> None:
        # The pass time sums the timed calls only: each segment's
        # answers are digested and dropped between them, so the harness
        # neither adds to the time nor keeps results alive.
        prefix = f"cat{request['catalog']}"
        windows = reply["windows"]
        start = time.perf_counter_ns()
        segments = solve_corpus(ArenaCatalog(request["directory"]),
                                config=self.config)
        windows.append((start, time.perf_counter_ns()))
        while True:
            start = time.perf_counter_ns()
            segment = next(segments, None)
            windows.append((start, time.perf_counter_ns()))
            if segment is None:
                break
            for instance_id, result in zip(segment.ids, segment.results):
                key = f"{prefix}/{instance_id}"
                if result.certificate is None:
                    reply["digests"][key] = "uncertified"
                elif request["inject"] and not reply["digests"]:
                    reply["digests"][key] = corrupt_digest(result)
                else:
                    reply["digests"][key] = result_digest(result)
                reply["lanes"].append(result.lane)

    def _traced(self, request: dict, reply: dict) -> None:
        op = f"cat{request['catalog']}"
        span = self.tracer.span
        with span("corpus.pass", op):
            with span("corpus.open", op):
                catalog = ArenaCatalog(request["directory"])
            for index, record in enumerate(catalog.segments):
                segment_op = f"{op}/s{index}"
                with span("corpus.segment", segment_op):
                    with span("store.load", segment_op):
                        arena = load_arena(
                            catalog.segment_path(index), mmap=True
                        )
                    with span("csr.arena_hypergraphs", segment_op):
                        instances = arena_hypergraphs(arena)
                    with span("batch.solve", segment_op):
                        results = run_fastpath_batch(
                            instances, self.config, verify=False, arena=arena
                        )
                    with span("duality.verify", segment_op):
                        errors = [_certificate_error(instance, result)
                                  for instance, result
                                  in zip(instances, results)]
                for entry, result, error in zip(record.instances, results,
                                                errors):
                    reply["traced_digests"][f"{op}/{entry.id}"] = (
                        error or result_digest(result)
                    )


if __name__ == "__main__":
    child_loop(_Passes())
