"""The benchmark's own tests: inputs, the digest gate, spans, cleanup.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The end-to-end cases drive ``perfbench/run.py`` with ``--seconds 1``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import inputs
from perfbench.common import WORK, corrupt_digest, result_digest
from perfbench.oracle import Oracle, bigint_digest, reference_digest
from perfbench.spans import Span, Tracer, covered_ns, layer_ms, self_times_ns
from perfbench.speed import REFERENCE_NS, reference_seconds

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, "perfbench/run.py"]


# ---------------------------------------------------------------- inputs


def test_same_seed_gives_byte_identical_inputs():
    from repro.hypergraph import io as hg_io

    assert hg_io.dumps(inputs.large_instance(7, 1)) == hg_io.dumps(
        inputs.large_instance(7, 1)
    )
    assert hg_io.dumps(inputs.corpus_instance(7, 2, 5)) == hg_io.dumps(
        inputs.corpus_instance(7, 2, 5)
    )
    first = [(key, line) for key, line, _ in inputs.serve_script(7, 1, 3)]
    again = [(key, line) for key, line, _ in inputs.serve_script(7, 1, 3)]
    assert first == again


def test_every_op_gets_a_distinct_instance():
    from repro.hypergraph import io as hg_io

    corpus = {hg_io.dumps(hypergraph)
              for _, hypergraph in inputs.corpus_instances(3, 0)[:64]}
    assert len(corpus) == 64
    assert hg_io.dumps(inputs.corpus_instance(3, 0, 0)) != hg_io.dumps(
        inputs.corpus_instance(4, 0, 0)
    )
    solves = [line for key, line, _ in inputs.serve_script(3, 0, 4)
              if "-u" not in key]
    assert len(set(solves)) == 4


def test_workload_shapes_match_their_specification():
    large = inputs.large_instance(1, 0)
    assert (large.num_vertices, large.num_edges, large.rank) == (
        20_000, 20_000, 3
    )
    hypergraph, updates = inputs.serve_instance(1, "c0-k0")
    assert sum(len(edge) for edge in hypergraph.edges) == 1152
    assert len({vertex // 24 for vertex, _ in updates}) == 3
    for index in range(16):
        instance = inputs.corpus_instance(1, 0, index)
        assert 39 <= instance.num_vertices <= 237
        assert 3 <= instance.max_degree <= 9 and instance.rank == 3


def test_update_script_chains_and_mutates_the_expected_instance():
    rows = list(inputs.serve_script(5, 0, 1))
    assert [key for key, _, _ in rows] == [
        "c0-k0", "c0-k0-u1", "c0-k0-u2", "c0-k0-u3"
    ]
    bases = [json.loads(line).get("base") for _, line, _ in rows]
    assert bases == [None, "c0-k0", "c0-k0-u1", "c0-k0-u2"]
    vertex, weight = json.loads(rows[3][1])["set_weights"][0]
    assert rows[3][2].weights[vertex] == weight


# ----------------------------------------------------------- digest gate


def _small_instance():
    hypergraph, _ = inputs.serve_instance(11, "gate")
    return hypergraph


def test_digest_gate_accepts_the_oracle_and_rejects_a_corrupted_result():
    from repro import solve_mwhvc

    hypergraph = _small_instance()
    epsilon = Fraction(1, 10)
    result = solve_mwhvc(hypergraph, epsilon, executor="fastpath")
    want = Oracle("serve", seed=11).expected("gate", hypergraph, epsilon)
    assert result_digest(result) == want
    assert reference_digest(hypergraph, epsilon) == want
    assert corrupt_digest(result) != want


def test_bigint_oracle_runs_unfused_and_agrees_with_lockstep():
    from repro.core import kernels

    hypergraph = _small_instance()
    epsilon = Fraction(1, 10)
    fused = kernels.FUSED_SWEEPS
    assert bigint_digest(hypergraph, epsilon) == reference_digest(
        hypergraph, epsilon
    )
    assert kernels.FUSED_SWEEPS == fused
    assert Oracle("corpus", seed=11).expected(
        "gate", hypergraph, epsilon
    ) == bigint_digest(hypergraph, epsilon)


def test_committed_digests_match_the_lockstep_reference():
    committed = Oracle("serve", seed=0).committed
    assert committed, "digests.json holds the default seed's answers"
    key, line, instance = next(inputs.serve_script(0, 0, 1))
    assert committed[key] == reference_digest(instance, Fraction(1, 10))


def _run(workload: str, *extra: str, seconds: int = 1) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*RUN, "--workload", workload, "--seed", "4", "--seconds",
         str(seconds), "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def test_command_fails_on_an_injected_wrong_answer():
    out = _run("serve", "--inject-wrong-answer")
    assert out.returncode == 1
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1


def test_command_without_the_program_exits_nonzero_and_prints_no_result(
    tmp_path,
):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (ROOT / "BENCHMARK.json").read_bytes()
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


# ------------------------------------------------------------------ spans


def test_covered_time_merges_overlaps_and_clips_to_the_span():
    assert covered_ns(0, 100, [(10, 30), (20, 50), (90, 120)]) == 50
    assert covered_ns(0, 100, []) == 0
    assert covered_ns(0, 100, [(-5, 200)]) == 100


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "op", 0, 100, None, "a"),
        Span(1, "load", 10, 30, 0, "a"),
        Span(2, "solve", 40, 90, 0, "a"),
        Span(3, "verify", 50, 70, 2, "a"),
    ]
    assert self_times_ns(spans) == {0: 30, 1: 20, 2: 30, 3: 20}


def test_layer_time_is_the_median_over_ops_of_summed_self_time():
    spans = [
        Span(0, "verify", 0, 2_000_000, None, "a"),
        Span(1, "verify", 5_000_000, 6_000_000, None, "a"),
        Span(2, "verify", 0, 1_000_000, None, "b"),
        Span(3, "verify", 0, 9_000_000, None, "c"),
        Span(4, "load", 0, 4_000_000, None, "c"),
    ]
    assert layer_ms(spans) == {"verify": 3.0, "load": 4.0}


def test_tracer_nests_spans_per_asyncio_task():
    tracer = Tracer()

    async def request(key):
        with tracer.span("request", key):
            await asyncio.sleep(0.01)
            with tracer.span("inner", key):
                await asyncio.sleep(0.01)

    async def main():
        await asyncio.gather(request("a"), request("b"))

    asyncio.run(main())
    by_id = {span.id: span for span in tracer.spans}
    for span in tracer.spans:
        if span.name == "inner":
            assert by_id[span.parent].op == span.op
        else:
            assert span.parent is None


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x", "a"):
        pass
    assert tracer.spans == []


# ------------------------------------------------------------ host speed


WARM = 100_000  # untimed cache refill at the start of each sample


def _samples(timed_ns: int, every_ns: int, since_ns: int, until_ns: int):
    return [(wake, wake + WARM, wake + WARM + timed_ns)
            for wake in range(since_ns, until_ns, every_ns)]


def test_reference_time_equals_wall_time_at_reference_speed():
    samples = _samples(REFERENCE_NS, 20_000_000, 0, 2_000_000_000)
    # 1 s window holding 50 samples: their whole run comes off first.
    got = reference_seconds(samples, 0, 1_000_000_000)
    assert got == pytest.approx(1.0 - 50 * (WARM + REFERENCE_NS) / 1e9)


def test_reference_time_scales_with_the_sampled_speed():
    wall = 1_000_000_000
    for factor in (2, 0.5):
        timed = int(REFERENCE_NS * factor)
        samples = _samples(timed, 20_000_000, 0, 2 * wall)
        assert reference_seconds(samples, 0, wall) == pytest.approx(
            (wall - 50 * (WARM + timed)) / 1e9 / factor)


def test_preempted_samples_do_not_count_as_slow_speed():
    samples = _samples(REFERENCE_NS, 20_000_000, 0, 1_000_000_000)
    wake, timed, end = samples[10]
    samples[10] = (wake, timed, end + 40 * REFERENCE_NS)
    stolen = 50 * (WARM + REFERENCE_NS) + 40 * REFERENCE_NS
    assert reference_seconds(samples, 0, 1_000_000_000) == pytest.approx(
        (1_000_000_000 - stolen) / 1e9)


def test_a_short_window_borrows_the_nearest_samples():
    samples = (_samples(REFERENCE_NS, 20_000_000, 0, 500_000_000)
               + _samples(2 * REFERENCE_NS, 20_000_000, 500_000_000,
                          1_000_000_000))
    # 5 ms in the slow half that no sample overlaps: the 5 nearest
    # samples are all slow ones.
    got = reference_seconds(samples, 705_000_000, 710_000_000)
    assert got == pytest.approx(0.005 / 2)


# ---------------------------------------------------------------- cleanup


def _leftovers() -> dict:
    """Processes, shared-memory segments and work dirs a run could leave."""
    processes = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
        except OSError:
            continue
        if int(entry.name) != os.getpid() and (
            b"repro.cli" in cmdline or b"perfbench" in cmdline
            or b"multiprocessing" in cmdline
        ):
            processes.add(int(entry.name))
    shm = {path.name for path in Path("/dev/shm").glob("psm_*")}
    work = {path.name for path in WORK.glob("*-*") if path.is_dir()} \
        if WORK.is_dir() else set()
    return {"processes": processes, "shm": shm, "work": work}


def _assert_nothing_new(before: dict) -> None:
    deadline = time.monotonic() + 15
    while True:
        after = _leftovers()
        new = {kind: after[kind] - before[kind] for kind in after}
        if not any(new.values()) or time.monotonic() > deadline:
            break
        time.sleep(0.5)
    assert not any(new.values()), new


def test_a_normal_run_leaves_nothing_behind():
    before = _leftovers()
    out = _run("serve")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is True
    _assert_nothing_new(before)


def test_a_run_removes_the_work_dirs_of_runs_killed_before_sampling():
    from perfbench.run import remove_dead_runs

    dead = subprocess.Popen(["true"])
    dead.wait()
    bare = WORK / f"large-{dead.pid}"
    guarded = WORK / f"serve-{dead.pid}"
    for directory in (bare, guarded):
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "speed-1.bin").write_bytes(b"")
    (guarded / "server-1.pgid").write_text("1")
    try:
        remove_dead_runs()
        assert not bare.exists()
        assert guarded.exists()  # its sampler sweeps the group first
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        shutil.rmtree(guarded, ignore_errors=True)


def _wait_for(predicate, timeout: float) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached")
        time.sleep(0.2)


def _with_marker(marker: bytes) -> set[int]:
    found = set()
    for entry in Path("/proc").iterdir():
        try:
            if marker in (entry / "cmdline").read_bytes():
                found.add(int(entry.name))
        except (OSError, ValueError):
            continue
    return found


@pytest.mark.parametrize("workload, marker, signum", [
    ("serve", b"repro.cli", signal.SIGTERM),
    ("corpus", b"perfbench.corpus", signal.SIGTERM),
    ("serve", b"repro.cli", signal.SIGKILL),
    ("large", b"perfbench.large", signal.SIGKILL),
])
def test_an_interrupted_run_leaves_nothing_behind(workload, marker, signum):
    before = _leftovers()
    # A process left by another test or program must not pass for this
    # run's: wait for a new one.
    earlier = _with_marker(marker)
    process = subprocess.Popen(
        [*RUN, "--workload", workload, "--seed", "2", "--seconds", "20",
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )

    def started() -> bool:
        return bool(_with_marker(marker) - earlier)

    try:
        _wait_for(started, timeout=90)
        time.sleep(1.0)
        process.send_signal(signum)
        assert process.wait(timeout=60) != 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    _assert_nothing_new(before)
