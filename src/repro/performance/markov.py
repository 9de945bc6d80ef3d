"""Embedded-Markov-chain cross-check of the traversal-rate method.

The decision graph, viewed at its anchor nodes only, is an embedded discrete
-time Markov chain: from anchor ``a`` the process jumps to anchor ``b`` with
probability equal to the sum of the probabilities of the decision edges from
``a`` to ``b``, and each jump "costs" the delay of the edge taken.  Renewal
-reward theory then gives every steady-state measure as

``measure = (expected reward per jump) / (expected time per jump)``

with expectations taken under the stationary distribution ``pi`` of the
embedded chain.

This is mathematically equivalent to the traversal-rate derivation of
:mod:`repro.performance.traversal` but is implemented independently (solving
``pi = pi P, sum(pi) = 1`` instead of fixing a reference rate) so the two can
cross-validate each other — the validation benchmark ``E10`` asserts they
agree exactly on the paper's protocol and on randomized models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Union

from ..exceptions import NotErgodicError
from ..reachability.decision import DecisionGraph
from ..symbolic.linexpr import LinExpr
from ..symbolic.ratfunc import RatFunc
from .linear import solve_sparse
from .traversal import recurrent_anchors, terminal_classes

Scalar = Union[Fraction, RatFunc]


def _field(symbolic: bool):
    if symbolic:
        return RatFunc.zero(), RatFunc.one()
    return Fraction(0), Fraction(1)


def _coerce(value, symbolic: bool) -> Scalar:
    if symbolic:
        return RatFunc.coerce(value)
    if isinstance(value, LinExpr):
        return value.constant_value()
    return Fraction(value)


@dataclass(frozen=True)
class EmbeddedChainResult:
    """Stationary analysis of the embedded decision-node chain.

    Attributes
    ----------
    stationary:
        Stationary probability of each anchor (TRG node index -> probability),
        summing to 1.
    mean_sojourn:
        Expected delay of the edge taken out of each anchor.
    mean_cycle_time:
        ``sum_a pi_a · sojourn_a`` — the mean time per embedded jump.
    edge_frequency:
        Long-run traversals of each decision edge per unit time.
    """

    stationary: Dict[int, Scalar]
    mean_sojourn: Dict[int, Scalar]
    mean_cycle_time: Scalar
    edge_frequency: Dict[int, Scalar]

    def throughput(self, decision: DecisionGraph, transition_name: str) -> Scalar:
        """Firing rate of a transition computed from the edge frequencies."""
        total = None
        for edge in decision.edges:
            occurrences = sum(1 for name in edge.fired if name == transition_name)
            if not occurrences:
                continue
            contribution = self.edge_frequency[edge.index] * occurrences
            total = contribution if total is None else total + contribution
        if total is None:
            return Fraction(0) if not isinstance(self.mean_cycle_time, RatFunc) else RatFunc.zero()
        return total


def embedded_chain_analysis(
    decision: DecisionGraph, *, terminal_class: int | None = None
) -> EmbeddedChainResult:
    """Solve the embedded chain ``pi = pi·P`` with normalization ``sum(pi) = 1``.

    ``terminal_class`` selects one bottom component (an index into
    :func:`~repro.performance.traversal.terminal_classes`) when folded
    committed cycles give the decision graph several; by default the graph
    must have a unique one.

    Raises :class:`~repro.exceptions.NotErgodicError` for graphs with
    absorbing edges, no anchors, or a singular stationary system.
    """
    if decision.anchor_count == 0:
        raise NotErgodicError("the decision graph has no anchor node")
    if decision.has_absorbing_edge():
        raise NotErgodicError("the decision graph reaches a dead state; no stationary distribution")

    symbolic = decision.trg.symbolic
    zero, one = _field(symbolic)
    if terminal_class is None:
        anchors = list(recurrent_anchors(decision))
    else:
        classes = terminal_classes(decision)
        if not 0 <= terminal_class < len(classes):
            raise NotErgodicError(
                f"terminal class index {terminal_class} out of range (the decision "
                f"graph has {len(classes)})"
            )
        anchors = list(classes[terminal_class])
    position = {anchor: index for index, anchor in enumerate(anchors)}
    size = len(anchors)

    transition: Dict[tuple, Scalar] = {}
    for edge in decision.edges:
        if edge.source not in position or edge.target not in position:
            continue
        key = (position[edge.source], position[edge.target])
        transition[key] = transition.get(key, zero) + _coerce(edge.probability, symbolic)

    # Unknowns: pi_0 .. pi_{n-1}.  Equations: balance for every anchor except
    # the last, plus the normalization sum(pi) = 1.
    rows: List[Dict[int, Scalar]] = [{target: -one} for target in range(size - 1)]
    for (source, target), probability in transition.items():
        if target < size - 1:
            rows[target][source] = rows[target].get(source, zero) + probability
    rows.append({source: one for source in range(size)})

    solution = solve_sparse(rows, [{size - 1: one}], zero=zero)[0]
    stationary = {anchor: solution[position[anchor]] for anchor in anchors}
    for anchor in decision.anchors:
        stationary.setdefault(anchor, zero)

    mean_sojourn: Dict[int, Scalar] = {}
    for anchor in anchors:
        total = zero
        for edge in decision.outgoing(anchor):
            total = total + _coerce(edge.probability, symbolic) * _coerce(edge.delay, symbolic)
        mean_sojourn[anchor] = total

    mean_cycle_time = zero
    for anchor in anchors:
        mean_cycle_time = mean_cycle_time + stationary[anchor] * mean_sojourn[anchor]

    edge_frequency: Dict[int, Scalar] = {}
    for edge in decision.edges:
        if edge.source not in position:
            edge_frequency[edge.index] = zero
            continue
        numerator = stationary[edge.source] * _coerce(edge.probability, symbolic)
        edge_frequency[edge.index] = numerator / mean_cycle_time

    return EmbeddedChainResult(
        stationary=stationary,
        mean_sojourn=mean_sojourn,
        mean_cycle_time=mean_cycle_time,
        edge_frequency=edge_frequency,
    )
