"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {large,corpus,serve} --seed N \\
        --seconds S --trace {0,1}

The inputs come from ``--seed`` alone.  Every answer is checked against
an independent exact solve (see ``oracle.py``); a wrong answer makes
``correct`` false and the exit code 1.  Human-readable lines (host,
calibration, every metric with its unit and sample count, and the
error rate) come first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0`` and its
``per_layer`` metrics with ``--trace 1``.  A traced run also writes its
spans to ``.perfbench/trace-<workload>-seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    ROOT,
    SRC,
    WORK,
    Interrupted,
    calibrate,
    host_facts,
    program_present,
    raise_on_sigterm,
)
from perfbench.speed import SpeedProbe, cpus, pin  # noqa: E402

WORKLOADS = ("large", "corpus", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-wrong-answer", action="store_true",
        help="corrupt one answer before the digest gate (self-test: the "
             "run must report it and exit 1)",
    )
    arguments = parser.parse_args(argv)
    if arguments.seconds < 1:
        parser.error("--seconds must be >= 1")
    return arguments


def remove_dead_runs() -> None:
    """Remove the work directory of any run killed before its sampler
    started.  A directory that names a server process group is left to
    that run's sampler, which sweeps the group first."""
    for stale in WORK.glob("*-*"):
        pid = stale.name.rsplit("-", 1)[1]
        if (stale.is_dir() and pid.isdigit()
                and not Path(f"/proc/{pid}").exists()
                and not any(stale.glob("*.pgid"))):
            shutil.rmtree(stale, ignore_errors=True)


def main(argv=None) -> int:
    arguments = parse_args(argv)
    if not program_present():
        print(f"perfbench: no program to measure ({SRC / 'repro'} is "
              "missing); run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import importlib

    workload = importlib.import_module(f"perfbench.{arguments.workload}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trace = bool(arguments.trace)

    raise_on_sigterm()
    remove_dead_runs()
    workdir = WORK / f"{arguments.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)  # a dead run's, same pid
    workdir.mkdir(parents=True)
    program_cpu, harness_cpu = cpus()
    host = dict(host_facts(), program_cpu=program_cpu,
                harness_cpu=harness_cpu)
    try:
        # The calibration loop runs on the program's vCPU, before the
        # sampler starts and after it stopped; the first call warms up.
        pin(program_cpu)
        calibrate()
        calibration = [calibrate()]
        pin(harness_cpu)
        with SpeedProbe(program_cpu, workdir) as probe:
            outcome = workload.run(arguments.seed, arguments.seconds, trace,
                                   arguments.inject_wrong_answer, workdir,
                                   probe)
            outcome.add("host.sample_us", probe.mean_sample_us(), "us",
                        len(probe.samples))
        pin(program_cpu)
        calibration.append(calibrate())
    except (Interrupted, KeyboardInterrupt) as error:
        print(f"perfbench: interrupted ({error or 'SIGINT'})", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcome.add("host.calibration_ms", sum(calibration) / 2, "ms", 2)
    outcome.add("host.calibration_drift_pct",
                (calibration[1] / calibration[0] - 1) * 100, "%", 2)
    error_rate = outcome.failed / outcome.attempted
    print("host: " + json.dumps(host, sort_keys=True))
    print(f"calibration_ms: start={calibration[0]:.3f} "
          f"end={calibration[1]:.3f}")
    for name, (value, unit, samples) in outcome.metrics.items():
        print(f"{arguments.workload} {name} = {value:.6g} {unit} "
              f"(n={samples})")
    print(f"{arguments.workload} error_rate = {error_rate:.6g} share "
          f"(n={outcome.attempted})")

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        if entry["name"] in outcome.metrics:
            value = outcome.metrics[entry["name"]][0]
        elif trace:
            value = 0.0  # a layer this workload never enters
        else:
            raise KeyError(f"workload did not measure {entry['name']}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if trace:
        trace_path = WORK / (f"trace-{arguments.workload}-seed"
                             f"{arguments.seed}.json")
        trace_path.write_text(json.dumps({
            "workload": arguments.workload,
            "seed": arguments.seed,
            "host": host,
            "calibration_ms": calibration,
            "metrics": {name: list(row)
                        for name, row in outcome.metrics.items()},
            "spans": outcome.spans,
        }))
        print(f"trace: {trace_path.relative_to(ROOT)} "
              f"({len(outcome.spans)} spans)")
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
