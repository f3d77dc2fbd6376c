"""Reference optima: fractional LP via scipy, exact ILP via branch and bound.

These are *measurement instruments*, not baselines: the benchmark
harness divides produced cover weights by these optima to report true
approximation ratios (experiments E1, E2, E6, E7).  The exact solver is
exponential and guarded by a size limit; the fractional solver scales to
every instance the benchmarks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib.util import find_spec

from repro.exceptions import InvalidInstanceError, ReproError
from repro.hypergraph.hypergraph import Hypergraph

__all__ = [
    "fractional_optimum",
    "ExactSolution",
    "exact_optimum",
    "HAS_LP_SOLVER",
]

#: Whether the scipy-backed fractional LP solver is importable.  The
#: exact branch-and-bound solver below is pure Python and always works;
#: only :func:`fractional_optimum` needs the numerical stack, and it
#: imports scipy on first call — ``import repro`` never pays for it.
HAS_LP_SOLVER = find_spec("numpy") is not None and find_spec("scipy") is not None


def fractional_optimum(hypergraph: Hypergraph) -> float:
    """Optimal value of the fractional covering LP (Appendix A, (P)).

    Solved with scipy's HiGHS backend.  Returns 0.0 for edgeless
    instances.  This value lower-bounds every integral cover, so
    ``cover_weight / fractional_optimum`` upper-bounds the integrality
    gap-adjusted ratio the paper's guarantee is stated against.
    """
    if not HAS_LP_SOLVER:
        raise ReproError(
            "fractional_optimum requires numpy and scipy; install the "
            "measurement extras (pip install numpy scipy)"
        )
    if hypergraph.num_edges == 0:
        return 0.0
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    rows: list[int] = []
    cols: list[int] = []
    for edge_id, edge in enumerate(hypergraph.edges):
        for vertex in edge:
            rows.append(edge_id)
            cols.append(vertex)
    constraint = csr_matrix(
        (np.ones(len(rows)), (rows, cols)),
        shape=(hypergraph.num_edges, hypergraph.num_vertices),
    )
    result = linprog(
        c=np.asarray(hypergraph.weights, dtype=float),
        A_ub=-constraint,
        b_ub=-np.ones(hypergraph.num_edges),
        bounds=(0, None),
        method="highs",
    )
    if not result.success:
        raise ReproError(
            f"LP solver failed on a feasible covering LP: {result.message}"
        )
    return float(result.fun)


@dataclass(frozen=True, slots=True)
class ExactSolution:
    """An optimal integral cover and its weight."""

    weight: int
    cover: frozenset[int]


def exact_optimum(
    hypergraph: Hypergraph, *, max_vertices: int = 40
) -> ExactSolution:
    """Minimum-weight vertex cover by branch and bound.

    Branches on the vertices of a currently uncovered hyperedge (one of
    them must be chosen — the standard bounded-search-tree argument, at
    most ``f`` children per node), pruning with the incumbent weight.
    A cheap greedy incumbent seeds the bound.

    Raises
    ------
    InvalidInstanceError
        If the instance exceeds ``max_vertices`` (exponential solver).
    """
    if hypergraph.num_vertices > max_vertices:
        raise InvalidInstanceError(
            f"exact solver limited to {max_vertices} vertices; "
            f"instance has {hypergraph.num_vertices}"
        )
    if hypergraph.num_edges == 0:
        return ExactSolution(weight=0, cover=frozenset())

    weights = hypergraph.weights
    edges = hypergraph.edges

    # Greedy incumbent: repeatedly take the cheapest vertex of the first
    # uncovered edge.  Valid (it is a cover) and usually a decent bound.
    incumbent: set[int] = set()
    for edge in edges:
        if not incumbent.intersection(edge):
            incumbent.add(min(edge, key=lambda vertex: weights[vertex]))
    best_weight = sum(weights[vertex] for vertex in incumbent)
    best_cover = frozenset(incumbent)

    def first_uncovered(chosen: set[int]) -> tuple[int, ...] | None:
        for edge in edges:
            if not chosen.intersection(edge):
                return edge
        return None

    def search(chosen: set[int], weight: int) -> None:
        nonlocal best_weight, best_cover
        if weight >= best_weight:
            return
        edge = first_uncovered(chosen)
        if edge is None:
            best_weight = weight
            best_cover = frozenset(chosen)
            return
        for vertex in edge:
            chosen.add(vertex)
            search(chosen, weight + weights[vertex])
            chosen.remove(vertex)

    search(set(), 0)
    return ExactSolution(weight=best_weight, cover=best_cover)
