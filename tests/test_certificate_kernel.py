"""Differential tests: the common-denominator certificate check vs the
per-incidence ``Fraction`` oracle.

:meth:`ApproximationCertificate.verify` and :func:`dual_feasible` run on
:func:`repro.lp.covering_lp.check_packing` — integers over one common
denominator, in an ``int64`` numpy pass when that provably fits and in
Python ints otherwise.  Every case here must give what the straight
``Fraction`` reading in ``tests/fraction_oracle.py`` gives: the same
verdict, the same exception type and an equal certificate.  A counting
proxy around numpy tells which of the two passes ran, so each strategy
also pins the path it was written for.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import CertificateError, InvalidInstanceError
from repro.hypergraph.hypergraph import Hypergraph
from repro.lp import covering_lp
from repro.lp.covering_lp import check_packing, dual_feasible
from repro.lp.duality import ApproximationCertificate
from tests.fraction_oracle import oracle_dual_feasible, oracle_verify

try:
    import numpy
except ImportError:  # pragma: no cover - the no-numpy CI leg
    numpy = None

needs_numpy = pytest.mark.skipif(numpy is None, reason="int64 pass needs numpy")

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: A denominator above 2**64: one such value makes ``w_max * scale``
#: overflow int64, which forces the Python-int loop.
HUGE = (1 << 64) + 13


class _CountingNumpy:
    """numpy, counting the ``int64`` load passes (one ``zeros`` each)."""

    def __init__(self):
        self.passes = 0

    def __getattr__(self, name):
        if name == "zeros":
            self.passes += 1
        return getattr(numpy, name)


@contextmanager
def counting_numpy():
    spy = _CountingNumpy()
    with mock.patch.object(covering_lp, "_np", spy):
        yield spy


def outcome(call):
    """``("ok", value)`` or ``("raise", exception type)``."""
    try:
        return ("ok", call())
    except Exception as error:  # the type is the verdict
        return ("raise", type(error))


def assert_agrees(hypergraph, cover, delta, epsilon=Fraction(1, 2)):
    """Both checks agree with the oracle; returns the verify outcome."""
    rank = max(1, hypergraph.rank)
    feasible = outcome(lambda: dual_feasible(hypergraph, delta))
    assert feasible == outcome(lambda: oracle_dual_feasible(hypergraph, delta))
    got = outcome(
        lambda: ApproximationCertificate.verify(hypergraph, cover, delta, rank, epsilon)
    )
    want = outcome(lambda: oracle_verify(hypergraph, cover, delta, rank, epsilon))
    assert got == want
    if got[0] == "ok":
        for field in ("cover_weight", "dual_total", "ratio_bound"):
            mine, theirs = getattr(got[1], field), getattr(want[1], field)
            assert type(mine) is Fraction
            assert (mine.numerator, mine.denominator) == (
                theirs.numerator,
                theirs.denominator,
            )
    return got


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------


@st.composite
def hypergraphs(draw, fractional_weights=False, allow_edgeless=True):
    n = draw(st.integers(min_value=1, max_value=8))
    m = draw(st.integers(min_value=0 if allow_edgeless else 1, max_value=10))
    edges = []
    for _ in range(m):
        size = draw(st.integers(min_value=1, max_value=min(3, n)))
        edges.append(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=size,
                    max_size=size,
                    unique=True,
                )
            )
        )
    weight = st.integers(min_value=1, max_value=1000)
    if fractional_weights:
        weight = st.one_of(
            weight,
            st.fractions(min_value=Fraction(1, 97), max_value=1000, max_denominator=97),
        )
    return Hypergraph(n, edges, draw(st.lists(weight, min_size=n, max_size=n)))


def greedy_packing(hypergraph, order):
    """A maximal packing: each edge takes its members' least slack, so
    at least one member of every edge ends exactly at ``w(v)``."""
    slack = [Fraction(weight) for weight in hypergraph.weights]
    delta = {}
    for edge_id in order:
        members = hypergraph.edge(edge_id)
        value = min(slack[vertex] for vertex in members)
        for vertex in members:
            slack[vertex] -= value
        delta[edge_id] = value
    tight = {vertex for vertex, left in enumerate(slack) if left == 0}
    return delta, tight


@st.composite
def tight_cases(draw, fractional_weights=False):
    """A maximal packing with its tight cover, then optionally pushed
    over one vertex's weight by ``1/D`` with ``D > 2**64``."""
    hypergraph = draw(hypergraphs(fractional_weights=fractional_weights))
    order = draw(st.permutations(range(hypergraph.num_edges)))
    delta, tight = greedy_packing(hypergraph, order)
    if delta and draw(st.booleans()):
        edge_id = draw(st.sampled_from(sorted(delta)))
        delta[edge_id] += Fraction(1, HUGE)
    return hypergraph, tight, delta


def _values():
    """A numeric dual value as every accepted input type, plus junk."""
    fraction = st.fractions(min_value=-2, max_value=50, max_denominator=64)
    return st.one_of(
        st.integers(min_value=-3, max_value=50),
        fraction,
        fraction.map(lambda value: f"{value.numerator}/{value.denominator}"),
        st.floats(min_value=-2, max_value=50, allow_nan=False, allow_infinity=False),
        st.just(Fraction(1, HUGE)),
        st.sampled_from(["junk", None, 1 + 2j]),
    )


@st.composite
def mixed_cases(draw):
    """Arbitrary value types and keys: shuffled, missing, unknown."""
    hypergraph = draw(hypergraphs(fractional_weights=draw(st.booleans())))
    m = hypergraph.num_edges
    keys = draw(st.lists(st.integers(min_value=0, max_value=max(m - 1, 0)), unique=True))
    keys = [key for key in keys if key < m]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        keys.append(draw(st.sampled_from([-1, m, m + 5])))
    delta = {key: draw(_values()) for key in keys}
    cover = draw(st.sets(st.integers(min_value=0, max_value=hypergraph.num_vertices - 1)))
    if draw(st.booleans()):
        cover = set(range(hypergraph.num_vertices))
    return hypergraph, cover, delta


@st.composite
def int64_cases(draw):
    """Int weights, dyadic values: scale <= 2**20, every product fits."""
    hypergraph = draw(hypergraphs(allow_edgeless=False))
    delta = {
        edge_id: Fraction(
            draw(st.integers(min_value=0, max_value=2000)),
            1 << draw(st.integers(min_value=0, max_value=20)),
        )
        for edge_id in range(hypergraph.num_edges)
    }
    if draw(st.booleans()):
        delta, _ = greedy_packing(hypergraph, range(hypergraph.num_edges))
    return hypergraph, set(range(hypergraph.num_vertices)), delta


# ----------------------------------------------------------------------
# Differential properties
# ----------------------------------------------------------------------


class TestDifferential:
    @SETTINGS
    @given(tight_cases())
    def test_tight_and_just_over(self, case):
        hypergraph, cover, delta = case
        assert_agrees(hypergraph, cover, delta)

    @SETTINGS
    @given(tight_cases(fractional_weights=True))
    def test_fractional_weights(self, case):
        hypergraph, cover, delta = case
        assert_agrees(hypergraph, cover, delta)

    @SETTINGS
    @given(mixed_cases(), st.sampled_from([Fraction(1), Fraction(1, 10), "1/3", 0.5]))
    def test_mixed_types_and_keys(self, case, epsilon):
        hypergraph, cover, delta = case
        assert_agrees(hypergraph, cover, delta, epsilon)

    @needs_numpy
    @SETTINGS
    @given(int64_cases())
    def test_int64_pass(self, case):
        hypergraph, cover, delta = case
        with counting_numpy() as spy:
            assert_agrees(hypergraph, cover, delta)
        assert spy.passes == 2  # dual_feasible, then verify

    @needs_numpy
    @SETTINGS
    @given(tight_cases())
    def test_python_loop_on_huge_denominator(self, case):
        hypergraph, cover, delta = case
        if not delta:
            return
        delta = dict(delta)
        delta[min(delta)] += Fraction(1, HUGE)
        with counting_numpy() as spy:
            assert_agrees(hypergraph, cover, delta)
        assert spy.passes == 0

    @SETTINGS
    @given(st.one_of(tight_cases(), int64_cases(), mixed_cases()))
    def test_python_loop_without_numpy(self, case):
        hypergraph, cover, delta = case
        with mock.patch.object(covering_lp, "_np", None):
            assert_agrees(hypergraph, cover, delta)


# ----------------------------------------------------------------------
# Pinned cases
# ----------------------------------------------------------------------


@pytest.fixture
def path3():
    """Path 0-1-2, weights 2, 3, 2: vertex 1 sees both edges."""
    return Hypergraph(3, [(0, 1), (1, 2)], weights=[2, 3, 2])


class TestPinned:
    def test_load_exactly_at_weight_is_feasible(self, path3):
        delta = {0: Fraction(3, 2), 1: Fraction(3, 2)}
        certificate = assert_agrees(path3, {1}, delta)[1]
        assert certificate.dual_total == 3
        assert check_packing(path3, delta) == (True, 6, 2)

    @needs_numpy
    def test_one_over_huge_denominator_is_infeasible(self, path3):
        delta = {0: Fraction(3, 2), 1: Fraction(3, 2) + Fraction(1, HUGE)}
        with counting_numpy() as spy:
            assert not dual_feasible(path3, delta)
        assert spy.passes == 0
        with pytest.raises(CertificateError, match="infeasible"):
            ApproximationCertificate.verify(path3, {1}, delta, 2, Fraction(1, 2))
        assert_agrees(path3, {1}, delta)

    @needs_numpy
    def test_int64_guard_boundary(self):
        # w_max * scale == 2**63 - 1 still takes the int64 pass; one more
        # unit of weight does not.
        scale = 7
        fits = (1 << 63) // scale
        assert fits * scale == (1 << 63) - 1
        for weight, passes in ((fits, 1), (fits + 1, 0)):
            hypergraph = Hypergraph(2, [(0, 1)], weights=[weight, weight])
            # A small load and one just under the weight: the guard is
            # on the weight side, whatever the packing total.
            for numerator in (1, weight * scale - 1):
                delta = {0: Fraction(numerator, scale)}
                with counting_numpy() as spy:
                    assert dual_feasible(hypergraph, delta)
                assert spy.passes == passes
                assert_agrees(hypergraph, {0}, delta)

    @needs_numpy
    def test_int64_guard_on_packing_total(self):
        # Each value fits int64 but their sum at vertex 0 does not: an
        # int64 pass would wrap to a negative load and accept.
        hypergraph = Hypergraph(1, [(0,), (0,)], weights=[1])
        for delta in ({0: 1 << 62, 1: 1 << 62}, {0: 1 << 63}):
            with counting_numpy() as spy:
                assert not dual_feasible(hypergraph, delta)
            assert spy.passes == 0
            assert_agrees(hypergraph, {0}, delta)

    def test_negative_before_junk_is_infeasible_not_an_error(self, path3):
        assert dual_feasible(path3, {0: -1, 1: "junk"}) is False
        assert_agrees(path3, {1}, {0: -1, 1: "junk"})

    def test_junk_before_negative_raises(self, path3):
        with pytest.raises(InvalidInstanceError):
            dual_feasible(path3, {0: "junk", 1: -1})
        assert_agrees(path3, {1}, {0: "junk", 1: -1})

    def test_unknown_edge_raises(self, path3):
        with pytest.raises(InvalidInstanceError):
            dual_feasible(path3, {0: 1, 2: 0})
        assert_agrees(path3, {1}, {0: 1, 2: 0})

    def test_missing_and_reordered_edges(self, path3):
        assert_agrees(path3, {1}, {1: Fraction(1, 2)})
        assert_agrees(path3, {1}, {1: 1, 0: Fraction(1, 3)})

    @pytest.mark.parametrize(
        "value", ["3/2", 1.5, Fraction(3, 2), float("inf"), float("nan"), "1/0"]
    )
    def test_value_types(self, path3, value):
        assert_agrees(path3, {1}, {0: value, 1: 1})

    def test_float_and_bool_keys(self, path3):
        assert_agrees(path3, {1}, {0.0: 1, True: Fraction(1, 2)})
        assert_agrees(path3, {1}, {0: 1, 0.5: 7})

    def test_edgeless(self):
        empty = Hypergraph(3, [])
        certificate = assert_agrees(empty, set(), {})[1]
        assert certificate.dual_total == 0
        assert check_packing(empty, {}) == (True, 0, 1)
        assert_agrees(empty, set(), {0: 1})

    def test_fractional_weight_bound(self):
        hypergraph = Hypergraph(2, [(0, 1)], weights=[Fraction(5, 3), 2])
        assert dual_feasible(hypergraph, {0: Fraction(5, 3)})
        assert not dual_feasible(hypergraph, {0: Fraction(5, 3) + Fraction(1, HUGE)})
        assert_agrees(hypergraph, {0}, {0: Fraction(5, 3)})
