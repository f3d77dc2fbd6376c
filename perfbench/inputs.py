"""Seeded inputs for the three workloads.

Every instance is derived from ``(workload, seed, position)`` alone, so
one seed always yields byte-identical inputs and no two operations of
a run share an instance (no cache of earlier results can serve one).
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.hypergraph.generators import regular_hypergraph, uniform_hypergraph
from repro.hypergraph.hypergraph import Hypergraph

LARGE_VERTICES = 20_000
LARGE_EDGES = 20_000
LARGE_MAX_WEIGHT = 1_000

CORPUS_INSTANCES = 512
CORPUS_VERTICES = (39, 237)
CORPUS_DEGREES = (3, 9)
CORPUS_MAX_WEIGHT = 10_000

SERVE_COMPONENTS = 8
SERVE_COMPONENT_VERTICES = 24
SERVE_DEGREE = 6
SERVE_UPDATES = 3
SERVE_MAX_WEIGHT = 10_000

RANK = 3


def sub_seed(*parts) -> int:
    text = "|".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def large_instance(seed: int, index: int) -> Hypergraph:
    """Rank-3 uniform random hypergraph, 20k vertices and 20k edges."""
    rng = random.Random(sub_seed("large-weights", seed, index))
    weights = [rng.randint(1, LARGE_MAX_WEIGHT) for _ in range(LARGE_VERTICES)]
    return uniform_hypergraph(
        LARGE_VERTICES, LARGE_EDGES, RANK,
        seed=sub_seed("large-edges", seed, index), weights=weights,
    )


def corpus_instance(seed: int, catalog: int, index: int) -> Hypergraph:
    """Rank-3 regular instance: 39-237 vertices, degree 3-9."""
    rng = random.Random(sub_seed("corpus", seed, catalog, index))
    degree = rng.randint(*CORPUS_DEGREES)
    low, high = CORPUS_VERTICES
    num_vertices = rng.choice(
        [n for n in range(low, high + 1) if n * degree % RANK == 0]
    )
    weights = [rng.randint(1, CORPUS_MAX_WEIGHT) for _ in range(num_vertices)]
    return regular_hypergraph(
        num_vertices, RANK, degree, seed=rng.getrandbits(63), weights=weights
    )


def corpus_instances(seed: int, catalog: int) -> list[tuple[str, Hypergraph]]:
    return [
        (f"i{index:04d}", corpus_instance(seed, catalog, index))
        for index in range(CORPUS_INSTANCES)
    ]


def serve_instance(seed: int, key: str):
    """Disjoint union of 8 rank-3 6-regular 24-vertex components.

    Returns the instance and its 3 chained reweights ``(vertex,
    weight)``, each on a different component.
    """
    rng = random.Random(sub_seed("serve", seed, key))
    edges = []
    for component in range(SERVE_COMPONENTS):
        part = regular_hypergraph(
            SERVE_COMPONENT_VERTICES, RANK, SERVE_DEGREE,
            seed=rng.getrandbits(63),
        )
        offset = component * SERVE_COMPONENT_VERTICES
        edges.extend(tuple(vertex + offset for vertex in edge)
                     for edge in part.edges)
    num_vertices = SERVE_COMPONENTS * SERVE_COMPONENT_VERTICES
    weights = [rng.randint(1, SERVE_MAX_WEIGHT) for _ in range(num_vertices)]
    updates = [
        (component * SERVE_COMPONENT_VERTICES
         + rng.randrange(SERVE_COMPONENT_VERTICES),
         rng.randint(1, SERVE_MAX_WEIGHT))
        for component in rng.sample(range(SERVE_COMPONENTS), SERVE_UPDATES)
    ]
    return Hypergraph(num_vertices, edges, weights), updates


def reweighted(hypergraph: Hypergraph, changes) -> Hypergraph:
    weights = list(hypergraph.weights)
    for vertex, weight in changes:
        weights[vertex] = weight
    return Hypergraph(hypergraph.num_vertices, hypergraph.edges, weights)


def _line(message: dict) -> bytes:
    return json.dumps(message, separators=(",", ":")).encode() + b"\n"


def solve_line(key: str, hypergraph: Hypergraph) -> bytes:
    return _line({
        "op": "solve",
        "id": key,
        "n": hypergraph.num_vertices,
        "edges": [list(edge) for edge in hypergraph.edges],
        "weights": list(hypergraph.weights),
    })


def serve_script(seed: int, connection: int, cycles: int):
    """One connection's closed-loop script.

    Yields ``(key, line, instance)`` per request: a ``solve`` of a
    fresh instance, then its 3 chained ``update``s; ``instance`` is the
    hypergraph the answer must solve (the mutated one for updates).
    """
    for cycle in range(cycles):
        key = f"c{connection}-k{cycle}"
        hypergraph, updates = serve_instance(seed, key)
        yield key, solve_line(key, hypergraph), hypergraph
        base = key
        for step in range(1, len(updates) + 1):
            update_key = f"{key}-u{step}"
            vertex, weight = updates[step - 1]
            line = _line({
                "op": "update",
                "id": update_key,
                "base": base,
                "set_weights": [[vertex, weight]],
            })
            yield update_key, line, reweighted(hypergraph, updates[:step])
            base = update_key
