"""Weak-duality certificates for covering solutions (Claim 20).

The paper's approximation proof is: the produced cover ``C`` consists of
``beta``-tight vertices of a *feasible* dual packing, hence

    w(C) <= (1/(1-beta)) * sum_{v in C} sum_{e : v in e} delta(e)
         <= (f/(1-beta)) * sum_e delta(e)
         =  (f + eps) * dual value
         <= (f + eps) * OPT_fractional        (weak duality)

:class:`ApproximationCertificate` packages that chain so any caller can
verify the guarantee of a returned solution *exactly* — no LP solver and
no floating point involved.  This is the library's primary correctness
artifact; tests and benchmarks check certificates on every run.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from repro.exceptions import CertificateError
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.validation import require_cover
from repro.lp.covering_lp import Numeric, check_packing, vertex_load

__all__ = ["ApproximationCertificate", "beta_tight_vertices", "beta_for"]


def beta_for(rank: int, epsilon: Fraction) -> Fraction:
    """``beta = eps / (f + eps)`` as defined in Section 3.1."""
    epsilon = Fraction(epsilon)
    return epsilon / (rank + epsilon)


def beta_tight_vertices(
    hypergraph: Hypergraph,
    delta: Mapping[int, Numeric],
    beta: Fraction,
) -> set[int]:
    """Vertices with ``sum_{e in E(v)} delta(e) >= (1 - beta) w(v)``."""
    beta = Fraction(beta)
    tight: set[int] = set()
    for vertex in range(hypergraph.num_vertices):
        load = vertex_load(hypergraph, delta, vertex)
        if load >= (1 - beta) * hypergraph.weight(vertex):
            tight.add(vertex)
    return tight


@dataclass(frozen=True)
class ApproximationCertificate:
    """Exact evidence that a cover is within ``(f + eps)`` of optimal.

    Attributes
    ----------
    cover_weight:
        ``w(C)`` of the verified cover.
    dual_total:
        ``sum_e delta(e)`` of the verified feasible packing; a lower
        bound on the fractional optimum by weak duality.
    ratio_bound:
        ``f + eps`` — the guarantee being certified.
    """

    cover_weight: Fraction
    dual_total: Fraction
    ratio_bound: Fraction

    @property
    def certified_ratio(self) -> Fraction | None:
        """``w(C) / dual_total``: a proven upper bound on the true ratio.

        ``None`` when the dual is zero (possible only for empty covers
        on edgeless instances).
        """
        if self.dual_total == 0:
            return None
        return self.cover_weight / self.dual_total

    @staticmethod
    def verify(
        hypergraph: Hypergraph,
        cover: Iterable[int],
        delta: Mapping[int, Numeric],
        rank: int,
        epsilon: Fraction,
    ) -> "ApproximationCertificate":
        """Check every link of the Claim 20 chain; raise on any failure.

        Verifies: (1) ``cover`` is a vertex cover, (2) ``delta`` is a
        feasible edge packing — checked by
        :func:`~repro.lp.covering_lp.check_packing` on integers over one
        common denominator — (3) ``w(C) <= (f + eps) * sum delta``.
        Note (3) is implied by every cover vertex being beta-tight but
        is checked directly — it is the statement callers rely on.
        """
        epsilon = Fraction(epsilon)
        chosen = require_cover(hypergraph, cover)
        feasible, numerator, scale = check_packing(hypergraph, delta)
        if not feasible:
            raise CertificateError(
                "dual packing is infeasible: some vertex constraint "
                "sum_{e in E(v)} delta(e) <= w(v) is violated"
            )
        cover_weight = Fraction(hypergraph.cover_weight(chosen))
        total = Fraction(numerator, scale)
        bound = Fraction(rank) + epsilon
        if hypergraph.num_edges > 0 and cover_weight > bound * total:
            raise CertificateError(
                f"cover weight {cover_weight} exceeds (f+eps) * dual = "
                f"{bound} * {total} = {bound * total}"
            )
        return ApproximationCertificate(
            cover_weight=cover_weight, dual_total=total, ratio_bound=bound
        )
