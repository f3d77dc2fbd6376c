"""Primal covering LP and dual edge-packing representations (Appendix A).

The fractional relaxation of MWHVC is::

    minimize    sum_v w(v) x(v)
    subject to  sum_{v in e} x(v) >= 1   for every hyperedge e
                x(v) >= 0

and its dual is the Edge Packing problem::

    maximize    sum_e delta(e)
    subject to  sum_{e : v in e} delta(e) <= w(v)   for every vertex v
                delta(e) >= 0

The paper's entire approximation argument is weak duality on this pair
(Claim 20), so the library represents both explicitly and exactly
(:class:`fractions.Fraction` values), independent of any LP solver.

Dual feasibility — the check behind every certificate — runs on
integers: :func:`check_packing` brings the whole packing to one common
denominator and compares scaled vertex loads against scaled weights,
in one ``int64`` numpy pass when the largest product provably fits and
in unbounded Python ints otherwise.  Either way the verdict is exact.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from itertools import chain
from math import lcm
from numbers import Rational

from repro.exceptions import InvalidInstanceError
from repro.hypergraph.hypergraph import Hypergraph

try:  # pragma: no cover - exercised implicitly by either branch
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "primal_value",
    "primal_feasible",
    "dual_value",
    "dual_feasible",
    "dual_slack",
    "vertex_load",
    "check_packing",
]

Numeric = Rational | int | float

#: Largest value an ``int64`` cell holds; :func:`check_packing` takes
#: the vectorized pass only below it.
_INT64_MAX = (1 << 63) - 1


def _as_fraction(value: Numeric, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError) as error:
        raise InvalidInstanceError(f"{what} {value!r} is not numeric") from error


def primal_value(hypergraph: Hypergraph, assignment: Sequence[Numeric]) -> Fraction:
    """Objective ``sum w(v) x(v)`` of a fractional primal assignment."""
    if len(assignment) != hypergraph.num_vertices:
        raise InvalidInstanceError(
            f"assignment has {len(assignment)} entries for "
            f"{hypergraph.num_vertices} vertices"
        )
    return sum(
        (
            Fraction(hypergraph.weight(vertex))
            * _as_fraction(value, f"x({vertex})")
            for vertex, value in enumerate(assignment)
        ),
        Fraction(0),
    )


def primal_feasible(
    hypergraph: Hypergraph, assignment: Sequence[Numeric]
) -> bool:
    """Whether ``assignment`` is a feasible fractional cover."""
    if len(assignment) != hypergraph.num_vertices:
        return False
    values = [_as_fraction(value, "x") for value in assignment]
    if any(value < 0 for value in values):
        return False
    return all(
        sum((values[vertex] for vertex in edge), Fraction(0)) >= 1
        for edge in hypergraph.edges
    )


def dual_value(delta: Mapping[int, Numeric]) -> Fraction:
    """Objective ``sum_e delta(e)`` of a dual packing."""
    return sum(
        (_as_fraction(value, f"delta({edge})") for edge, value in delta.items()),
        Fraction(0),
    )


def vertex_load(
    hypergraph: Hypergraph, delta: Mapping[int, Numeric], vertex: int
) -> Fraction:
    """``sum_{e in E(v)} delta(e)``: total dual mass on ``vertex``.

    Missing edges contribute zero, so partial packings are accepted.
    """
    return sum(
        (
            _as_fraction(delta.get(edge_id, 0), f"delta({edge_id})")
            for edge_id in hypergraph.incident_edges(vertex)
        ),
        Fraction(0),
    )


def dual_slack(
    hypergraph: Hypergraph, delta: Mapping[int, Numeric], vertex: int
) -> Fraction:
    """``w(v) - sum_{e in E(v)} delta(e)``: remaining packing capacity."""
    return Fraction(hypergraph.weight(vertex)) - vertex_load(
        hypergraph, delta, vertex
    )


def dual_feasible(
    hypergraph: Hypergraph, delta: Mapping[int, Numeric]
) -> bool:
    """Whether ``delta`` is a feasible edge packing (exact arithmetic)."""
    return check_packing(hypergraph, delta)[0]


def _common_denominator(
    delta: Mapping[int, Numeric],
) -> tuple[list[int], int] | None:
    """``delta``'s values as numerators over one common ``scale``.

    Returns ``(numerators, scale)`` in ``delta``'s order, or ``None`` as
    soon as a negative value is met; values after it are not converted,
    so a non-numeric one there does not raise.
    """
    values = list(delta.values())
    if set(map(type, values)) <= {int, Fraction}:
        # Neither type can fail to convert, so where the first negative
        # sits does not matter.
        numerators = [value.numerator for value in values]
        if min(numerators, default=0) < 0:
            return None
        denominators = [value.denominator for value in values]
    else:
        numerators, denominators = [], []
        for edge_id, value in delta.items():
            if type(value) is not int:
                value = _as_fraction(value, f"delta({edge_id})")
            if value < 0:
                return None
            numerators.append(value.numerator)
            denominators.append(value.denominator)
    distinct = set(denominators)
    scale = lcm(*distinct)
    if scale == 1:
        return numerators, 1
    factor = {den: scale // den for den in distinct}
    return [
        num * factor[den] for num, den in zip(numerators, denominators)
    ], scale


def check_packing(
    hypergraph: Hypergraph, delta: Mapping[int, Numeric]
) -> tuple[bool, int, int]:
    """Exact edge-packing feasibility over one common denominator.

    Returns ``(feasible, total, scale)``.  ``scale`` is the lcm of every
    value's denominator and ``total / scale`` is ``sum_e delta(e)``; both
    are meaningful only when ``feasible``.  Each value is converted to
    a numerator over ``scale`` once, and every vertex constraint
    ``sum_{e in E(v)} delta(e) <= w(v)`` is checked as
    ``load(v) * den(w(v)) <= num(w(v)) * scale`` on those integers.

    Edge ids outside ``0..m-1`` raise :class:`InvalidInstanceError`, as
    does a value :class:`~fractions.Fraction` cannot read.  Missing
    edges count as zero, so partial packings are accepted.
    """
    num_edges = hypergraph.num_edges
    for edge_id in delta:
        if not 0 <= edge_id < num_edges:
            raise InvalidInstanceError(
                f"delta references unknown hyperedge {edge_id}"
            )
    scaled = _common_denominator(delta)
    if scaled is None:
        return False, 0, 1
    numerators, scale = scaled
    total = sum(numerators)
    keys = list(delta)
    if keys != list(range(num_edges)):
        # Keyed exactly as ``delta.get(edge_id, 0)`` would find them.
        by_key = dict(zip(keys, numerators)).get
        numerators = [by_key(edge_id, 0) for edge_id in range(num_edges)]
    return _loads_fit(hypergraph, numerators, scale, total), total, scale


def _loads_fit(
    hypergraph: Hypergraph, per_edge: list[int], scale: int, total: int
) -> bool:
    """Whether every scaled vertex load is within its scaled weight.

    ``per_edge[e]`` is ``delta(e) * scale`` (non-negative) and ``total``
    their sum, which bounds every load.  The ``int64`` pass runs only
    when ``total`` and ``w_max * scale`` are first proven, in Python
    ints, to fit — no intermediate can then wrap.
    """
    weights = hypergraph.weights
    if _np is not None and total <= _INT64_MAX:
        array = hypergraph.weights_int64()
        if array is not None and hypergraph.max_weight * scale <= _INT64_MAX:
            edges = hypergraph.edges
            lengths = _np.fromiter(map(len, edges), _np.int64, len(edges))
            cells = _np.fromiter(
                chain.from_iterable(edges), _np.int64, int(lengths.sum())
            )
            loads = _np.zeros(len(weights), dtype=_np.int64)
            _np.add.at(
                loads,
                cells,
                _np.repeat(_np.array(per_edge, dtype=_np.int64), lengths),
            )
            return bool((loads <= array * scale).all())
    loads = [0] * len(weights)
    for members, value in zip(hypergraph.edges, per_edge):
        if value:
            for vertex in members:
                loads[vertex] += value
    return all(
        load * weight.denominator <= weight.numerator * scale
        for load, weight in zip(loads, weights)
    )
