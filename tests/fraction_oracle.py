"""Reference Claim 20 verifier on per-incidence ``Fraction`` sums.

This is the straightforward reading of the certificate chain: every
vertex load is a ``Fraction`` sum over its incident edges, every
comparison a ``Fraction`` comparison.  The library's verifier
(:func:`repro.lp.covering_lp.check_packing` behind
:meth:`ApproximationCertificate.verify`) works on integers over one
common denominator instead; the differential tests hold the two to the
same verdict, the same exception type and an equal certificate.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

from repro.exceptions import CertificateError, InvalidInstanceError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.validation import require_cover
from repro.lp.duality import ApproximationCertificate


def _as_fraction(value, what: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError) as error:
        raise InvalidInstanceError(f"{what} {value!r} is not numeric") from error


def oracle_dual_value(delta: Mapping) -> Fraction:
    return sum(
        (_as_fraction(value, f"delta({edge})") for edge, value in delta.items()),
        Fraction(0),
    )


def oracle_vertex_load(hypergraph: Hypergraph, delta: Mapping, vertex: int) -> Fraction:
    return sum(
        (
            _as_fraction(delta.get(edge_id, 0), f"delta({edge_id})")
            for edge_id in hypergraph.incident_edges(vertex)
        ),
        Fraction(0),
    )


def oracle_dual_feasible(hypergraph: Hypergraph, delta: Mapping) -> bool:
    for edge_id in delta:
        if not 0 <= edge_id < hypergraph.num_edges:
            raise InvalidInstanceError(f"delta references unknown hyperedge {edge_id}")
    if any(_as_fraction(value, f"delta({edge})") < 0 for edge, value in delta.items()):
        return False
    return all(
        Fraction(hypergraph.weight(vertex)) - oracle_vertex_load(hypergraph, delta, vertex) >= 0
        for vertex in range(hypergraph.num_vertices)
    )


def oracle_verify(
    hypergraph: Hypergraph,
    cover: Iterable[int],
    delta: Mapping,
    rank: int,
    epsilon,
) -> ApproximationCertificate:
    epsilon = Fraction(epsilon)
    chosen = require_cover(hypergraph, cover)
    if not oracle_dual_feasible(hypergraph, delta):
        raise CertificateError("dual packing is infeasible")
    cover_weight = Fraction(hypergraph.cover_weight(chosen))
    total = oracle_dual_value(delta)
    bound = Fraction(rank) + epsilon
    if hypergraph.num_edges > 0 and cover_weight > bound * total:
        raise CertificateError("cover weight exceeds (f+eps) * dual")
    return ApproximationCertificate(cover_weight=cover_weight, dual_total=total, ratio_bound=bound)
