"""Property tests of the sparse exact elimination kernel.

The kernel (:func:`repro.performance.linear.solve_sparse`) is compared with
a textbook dense Gauss–Jordan elimination that lives only here: on random
sparse nonsingular ``Fraction`` systems with several right-hand sides, on
small ``RatFunc`` systems, on singular systems (which must raise
:class:`PerformanceError`), and — through the traversal-rate equations —
on the decision graph of every bundled workload, where the node rates must
agree exactly.  Exact rationals are canonical, so ``Fraction`` agreement
is equality of values; ``RatFunc`` results are compared with ``==``, which
holds for equal rational functions whatever their stored representation.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine_diff import NUMERIC_WORKLOADS
from repro.exceptions import NotErgodicError, PerformanceError
from repro.performance import (
    PerformanceAnalysis,
    absorption_probabilities,
    embedded_chain_analysis,
    ergodic_decomposition,
    solve_linear_system,
    solve_stationary_weights,
    terminal_classes,
)
from repro.performance.linear import last_solve_stats, solve_sparse
from repro.protocols import go_back_n_net, model_catalog
from repro.symbolic import RatFunc, Symbol

# ---------------------------------------------------------------------------
# The oracle: dense Gauss–Jordan with first-nonzero pivoting
# ---------------------------------------------------------------------------


class OracleSingular(Exception):
    pass


def dense_solve(matrix, rhs_columns):
    """Solve ``matrix · x = b`` for each column ``b``; raises OracleSingular."""
    size = len(matrix)
    rows = [list(row) + [column[index] for column in rhs_columns] for index, row in enumerate(matrix)]
    for column in range(size):
        pivot_row = next((r for r in range(column, size) if rows[r][column]), None)
        if pivot_row is None:
            raise OracleSingular
        rows[column], rows[pivot_row] = rows[pivot_row], rows[column]
        pivot = rows[column][column]
        rows[column] = [value / pivot for value in rows[column]]
        for other in range(size):
            factor = rows[other][column]
            if other != column and factor:
                rows[other] = [a - factor * b for a, b in zip(rows[other], rows[column])]
    return [[rows[index][size + k] for index in range(size)] for k in range(len(rhs_columns))]


def as_sparse(matrix):
    return [{column: value for column, value in enumerate(row) if value} for row in matrix]


def as_sparse_rhs(columns):
    return [{index: value for index, value in enumerate(column) if value} for column in columns]


# ---------------------------------------------------------------------------
# Random systems
# ---------------------------------------------------------------------------

small_fractions = st.builds(
    Fraction, st.integers(-9, 9), st.integers(1, 6)
).filter(lambda value: value != 0)


@st.composite
def nonsingular_systems(draw, max_size=9):
    """A sparse, row-permuted, strictly diagonally dominant system."""
    size = draw(st.integers(1, max_size))
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for row in range(size):
        for column in draw(st.sets(st.integers(0, size - 1), max_size=3)):
            if column != row:
                matrix[row][column] = draw(small_fractions)
        matrix[row][row] = 1 + sum(abs(value) for value in matrix[row])
    matrix = [matrix[row] for row in draw(st.permutations(range(size)))]
    width = draw(st.integers(1, 3))
    rhs = [
        [draw(st.one_of(st.just(Fraction(0)), small_fractions)) for _ in range(size)]
        for _ in range(width)
    ]
    return matrix, rhs


@st.composite
def arbitrary_systems(draw, max_size=6):
    """Sparse systems with small integer entries — often singular."""
    size = draw(st.integers(1, max_size))
    matrix = [
        [Fraction(draw(st.sampled_from((0, 0, 0, 1, -1, 2)))) for _ in range(size)]
        for _ in range(size)
    ]
    rhs = [[Fraction(draw(st.integers(-2, 2))) for _ in range(size)]]
    return matrix, rhs


class TestRandomFractionSystems:
    @settings(max_examples=150, deadline=None)
    @given(nonsingular_systems())
    def test_matches_dense_oracle(self, system):
        matrix, rhs = system
        assert solve_sparse(as_sparse(matrix), as_sparse_rhs(rhs)) == dense_solve(matrix, rhs)

    @settings(max_examples=150, deadline=None)
    @given(arbitrary_systems())
    def test_singular_exactly_when_oracle_is(self, system):
        matrix, rhs = system
        try:
            expected = dense_solve(matrix, rhs)
        except OracleSingular:
            with pytest.raises(PerformanceError):
                solve_sparse(as_sparse(matrix), as_sparse_rhs(rhs))
        else:
            assert solve_sparse(as_sparse(matrix), as_sparse_rhs(rhs)) == expected

    @settings(max_examples=50, deadline=None)
    @given(nonsingular_systems())
    def test_dense_adapter_agrees(self, system):
        matrix, rhs = system
        assert solve_linear_system(matrix, rhs[0]) == dense_solve(matrix, rhs[:1])[0]

    @settings(max_examples=50, deadline=None)
    @given(nonsingular_systems())
    def test_fill_statistics(self, system):
        matrix, rhs = system
        solve_sparse(as_sparse(matrix), as_sparse_rhs(rhs))
        stats = last_solve_stats()
        size = len(matrix)
        assert stats.size == size
        assert stats.input_nonzeros == sum(1 for row in matrix for value in row if value)
        assert size <= stats.factor_nonzeros <= size * size


X, Y = Symbol("x"), Symbol("y")
ratfunc_entries = st.sampled_from(
    [RatFunc.coerce(X), RatFunc.coerce(Y), RatFunc.one(), RatFunc.coerce(X) + 2,
     RatFunc.one() / (RatFunc.coerce(Y) + 1), RatFunc.coerce(X) * RatFunc.coerce(Y)]
)


@st.composite
def ratfunc_systems(draw):
    size = draw(st.integers(1, 3))
    zero = RatFunc.zero()
    matrix = [
        [draw(st.one_of(st.just(zero), ratfunc_entries)) for _ in range(size)]
        for _ in range(size)
    ]
    rhs = [[draw(ratfunc_entries) for _ in range(size)] for _ in range(draw(st.integers(1, 2)))]
    return matrix, rhs


class TestRatFuncSystems:
    @settings(max_examples=40, deadline=None)
    @given(ratfunc_systems())
    def test_matches_dense_oracle(self, system):
        matrix, rhs = system
        zero = RatFunc.zero()
        try:
            expected = dense_solve(matrix, rhs)
        except OracleSingular:
            with pytest.raises(PerformanceError):
                solve_sparse(as_sparse(matrix), as_sparse_rhs(rhs), zero=zero)
            return
        solved = solve_sparse(as_sparse(matrix), as_sparse_rhs(rhs), zero=zero)
        assert solved == expected

    def test_symbolic_two_state_chain(self):
        p = RatFunc.coerce(X) / (RatFunc.coerce(X) + RatFunc.coerce(Y))
        q = RatFunc.one() - p
        totals = {(0, 0): q, (0, 1): p, (1, 0): RatFunc.one()}
        weights = solve_stationary_weights(totals, 2, zero=RatFunc.zero(), one=RatFunc.one())
        assert weights == [RatFunc.one(), p]


# ---------------------------------------------------------------------------
# Singular, empty and malformed systems
# ---------------------------------------------------------------------------


class TestEdgeCases:
    def test_singular_systems_raise(self):
        one, two = Fraction(1), Fraction(2)
        for matrix in (
            [{0: one, 1: one}, {0: two, 1: two}],  # dependent rows
            [{0: one}, {}],  # empty row
            [{0: one}, {0: two}],  # empty column
            [{0: one, 1: one}, {0: one, 1: one}, {2: one}],
        ):
            with pytest.raises(PerformanceError):
                solve_sparse(matrix, [{0: one}])

    def test_cancellation_to_singular_raises(self):
        # Elimination cancels the second row entirely.
        matrix = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(3), 1: Fraction(6)}, {2: Fraction(1)}]
        with pytest.raises(PerformanceError):
            solve_sparse(matrix, [{}])

    def test_reducible_chain_is_singular(self):
        # Two disjoint absorbing states: no unique stationary vector.
        totals = {(0, 0): Fraction(1), (1, 1): Fraction(1), (2, 0): Fraction(1, 2), (2, 1): Fraction(1, 2)}
        with pytest.raises(PerformanceError):
            solve_stationary_weights(totals, 3)

    def test_empty_systems(self):
        assert solve_sparse([], []) == []
        assert solve_sparse([], [{}, {}]) == [[], []]
        assert solve_linear_system([], []) == []
        assert solve_stationary_weights({}, 0) == []
        assert solve_stationary_weights({}, 1) == [Fraction(1)]

    def test_zero_rhs_and_explicit_zero_entries(self):
        matrix = [{0: Fraction(2), 1: Fraction(0)}, {1: Fraction(3)}]
        assert solve_sparse(matrix, [{}, {1: Fraction(0)}]) == [[0, 0], [0, 0]]
        assert last_solve_stats().input_nonzeros == 2

    def test_dimension_errors(self):
        with pytest.raises(PerformanceError):
            solve_sparse([{0: Fraction(1), 1: Fraction(1)}], [{0: Fraction(1)}])
        with pytest.raises(PerformanceError):
            solve_sparse([{-1: Fraction(1)}], [{}])
        with pytest.raises(PerformanceError):
            solve_sparse([{0: Fraction(1)}], [{1: Fraction(1)}])
        with pytest.raises(PerformanceError):
            solve_linear_system([[Fraction(1)], [Fraction(1)]], [Fraction(1)] * 2)
        with pytest.raises(PerformanceError):
            solve_stationary_weights({}, 2, reference=2)

    def test_callable_and_mapping_inputs_agree(self):
        totals = {(0, 1): Fraction(1, 3), (0, 2): Fraction(2, 3), (1, 0): Fraction(1), (2, 1): Fraction(1)}
        for reference in range(3):
            by_mapping = solve_stationary_weights(totals, 3, reference=reference)
            by_callable = solve_stationary_weights(
                lambda i, j: totals.get((i, j), Fraction(0)), 3, reference=reference
            )
            assert by_mapping == by_callable
            assert by_mapping[reference] == 1


# ---------------------------------------------------------------------------
# The traversal-rate equations of every bundled workload
# ---------------------------------------------------------------------------

WORKLOADS = sorted(model_catalog().items()) + [
    (f"diff-{label}", constructor) for label, constructor in NUMERIC_WORKLOADS
]


def oracle_node_rates(decision, anchors):
    """Visit rates of one class by the dense oracle, reference ``anchors[0]``."""
    position = {anchor: index for index, anchor in enumerate(anchors)}
    size = len(anchors)
    probability = [[Fraction(0)] * size for _ in range(size)]
    for edge in decision.edges:
        if edge.source in position and edge.target in position:
            probability[position[edge.source]][position[edge.target]] += Fraction(edge.probability)
    if size == 1:
        return {anchors[0]: Fraction(1)}
    # v[j] - sum_i P(i, j) v[i] = P(0, j) for j = 1..n-1, v[0] = 1.
    matrix = [
        [(1 if i == j else 0) - probability[i][j] for i in range(1, size)]
        for j in range(1, size)
    ]
    rhs = [[probability[0][j] for j in range(1, size)]]
    solution = dense_solve(matrix, rhs)[0]
    return dict(zip(anchors, [Fraction(1)] + solution))


@pytest.mark.parametrize("label,constructor", WORKLOADS, ids=[label for label, _ in WORKLOADS])
def test_node_rates_match_oracle(label, constructor):
    analysis = PerformanceAnalysis(constructor())
    decision = analysis.decision
    decomposition = ergodic_decomposition(decision)
    for terminal in decomposition.classes:
        expected = oracle_node_rates(decision, list(terminal.anchors))
        rates = terminal.rates.node_rates
        assert {anchor: rates[anchor] for anchor in terminal.anchors} == expected
        assert all(rates[anchor] == 0 for anchor in decision.anchors if anchor not in expected)
    if decomposition.class_count > 1:
        classes = terminal_classes(decision)
        members = {anchor for anchors in classes for anchor in anchors}
        transient = [anchor for anchor in decision.anchors if anchor not in members]
        position = {anchor: index for index, anchor in enumerate(transient)}
        size = len(transient)
        matrix = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
        rhs = [[Fraction(0)] * size for _ in classes]
        for edge in decision.edges:
            if edge.source not in position or edge.target is None:
                continue
            row = position[edge.source]
            if edge.target in position:
                matrix[row][position[edge.target]] -= Fraction(edge.probability)
            else:
                index = next(k for k, anchors in enumerate(classes) if edge.target in anchors)
                rhs[index][row] += Fraction(edge.probability)
        solutions = dense_solve(matrix, rhs)
        entry = decomposition.entry
        if entry in position:
            expected = tuple(solution[position[entry]] for solution in solutions)
            assert absorption_probabilities(decision, classes, from_anchor=entry) == expected


def test_large_decision_graph_matches_embedded_chain():
    """go_back_n_net(4) with delays 2/2/6: 463 anchors, solved exactly."""
    net = go_back_n_net(
        4, loss_probability=Fraction(1, 10), packet_delay=2, ack_delay=2, timeout=6
    )
    analysis = PerformanceAnalysis(net)
    assert len(analysis.decision.anchors) == 463
    stats = last_solve_stats()
    assert stats.size == len(analysis.decomposition.classes[0].anchors) - 1
    assert stats.factor_nonzeros < 4 * stats.input_nonzeros

    chain = embedded_chain_analysis(analysis.decision)
    reference = analysis.rates.reference_anchor
    cycle_time = analysis.cycle_time().value
    assert cycle_time == chain.mean_cycle_time / chain.stationary[reference]
    for name in ("g0_accept", "g3_accept"):
        assert analysis.throughput(name).value == chain.throughput(analysis.decision, name)


def test_non_ergodic_graph_still_rejected():
    # The lossless window settles into one of several classes: the plain
    # embedded chain has no unique stationary distribution.
    analysis = PerformanceAnalysis(model_catalog()["sliding-window"]())
    assert analysis.terminal_class_count > 1
    with pytest.raises(NotErgodicError):
        embedded_chain_analysis(analysis.decision)
