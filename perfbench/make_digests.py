"""Regenerate ``digests.json``: the lockstep answers for the default seed.

Usage (from the repository root)::

    python3 perfbench/make_digests.py

For every op a default-seed run at the ``run_seconds`` of
``BENCHMARK.json`` makes, this solves the input with the lockstep
executor, checks its certificate and stores the digest of (cover,
weight, dual_total, iterations, rounds).  It takes
several minutes (a lockstep solve of one ``large`` instance is ~36 s).
Rerun it whenever the inputs in ``inputs.py`` change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path[0:0] = [str(Path(__file__).resolve().parent.parent),
                 str(Path(__file__).resolve().parent.parent / "src")]

from perfbench import corpus, inputs, large, serve  # noqa: E402
from perfbench.common import ROOT  # noqa: E402
from perfbench.oracle import DEFAULT_SEED, DIGESTS, reference_digest  # noqa: E402


def main() -> int:
    from repro.core.solver import f_approx_epsilon

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    seed = DEFAULT_SEED
    answers: dict[str, dict[str, str]] = {"large": {}, "corpus": {},
                                          "serve": {}}
    for connection in range(serve.CONNECTIONS):
        for key, _, instance in inputs.serve_script(
            seed, connection, serve.cycle_count(seconds)
        ):
            answers["serve"][key] = reference_digest(instance, serve.EPSILON)
    print(f"serve: {len(answers['serve'])} answers", flush=True)
    for catalog in range(corpus.catalog_count(seconds)):
        for instance_id, instance in inputs.corpus_instances(seed, catalog):
            answers["corpus"][f"cat{catalog}/{instance_id}"] = (
                reference_digest(instance, corpus.EPSILON)
            )
    print(f"corpus: {len(answers['corpus'])} answers", flush=True)
    for index in range(large.op_count(seconds)):
        instance = inputs.large_instance(seed, index)
        answers["large"][f"op{index}"] = reference_digest(
            instance, f_approx_epsilon(instance)
        )
        print(f"large: op{index}", flush=True)
    DIGESTS.write_text(json.dumps(answers, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
