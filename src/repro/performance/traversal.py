"""Traversal-rate equations over decision graphs (the paper's Figure 8).

For every edge ``i`` of the decision graph the *rate of traversal* ``r_i``
satisfies

``r_i = p_i · (sum of r_j over edges j entering source(i))``

i.e. the rate of an outgoing edge is its branching probability times the
total rate flowing into its source node.  The system determines the rates up
to a common scale; the paper fixes one rate to 1 and solves for the rest.

This module solves the equivalent *node visit-rate* system (``v = v·P`` with
a reference node fixed at 1) exactly — with rational arithmetic for numeric
decision graphs and rational-function arithmetic for symbolic ones — and
exposes the edge rates, the node rates, and re-normalization helpers that
reproduce the paper's "assume ``r_j = 1``" presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..exceptions import NotErgodicError, PerformanceError
from ..reachability.decision import DecisionEdge, DecisionGraph
from ..symbolic.ratfunc import RatFunc
from .linear import solve_sparse, solve_stationary_weights

Scalar = Union[Fraction, RatFunc]


def _field_constants(symbolic: bool):
    if symbolic:
        return RatFunc.zero(), RatFunc.one()
    return Fraction(0), Fraction(1)


def _coerce(value, symbolic: bool) -> Scalar:
    if symbolic:
        return RatFunc.coerce(value)
    return Fraction(value)


@dataclass(frozen=True)
class TraversalRates:
    """The solved traversal rates of a decision graph.

    Attributes
    ----------
    decision_graph:
        The graph the rates belong to.
    node_rates:
        Relative visit rate of every anchor node (TRG node index -> rate).
    edge_rates:
        Relative traversal rate of every decision edge (edge index -> rate).
    reference_anchor:
        The anchor whose visit rate was fixed to 1 while solving.
    symbolic:
        Whether the rates are rational functions (True) or exact numbers.
    """

    decision_graph: DecisionGraph
    node_rates: Dict[int, Scalar]
    edge_rates: Dict[int, Scalar]
    reference_anchor: int
    symbolic: bool

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def rate_of_edge(self, edge: DecisionEdge | int) -> Scalar:
        """Traversal rate of a decision edge (by object or index)."""
        index = edge.index if isinstance(edge, DecisionEdge) else edge
        return self.edge_rates[index]

    def rate_of_node(self, anchor: int) -> Scalar:
        """Visit rate of an anchor node (TRG node index)."""
        return self.node_rates[anchor]

    def normalized_to_edge(self, edge: DecisionEdge | int) -> "TraversalRates":
        """Re-scale all rates so the given edge has rate exactly 1.

        This reproduces the paper's presentation, which fixes one edge's rate
        to 1 before listing the others.
        """
        index = edge.index if isinstance(edge, DecisionEdge) else edge
        scale = self.edge_rates[index]
        if (hasattr(scale, "is_zero") and scale.is_zero()) or scale == 0:
            raise PerformanceError(f"edge {index} has rate zero; cannot normalize to it")
        return TraversalRates(
            decision_graph=self.decision_graph,
            node_rates={node: rate / scale for node, rate in self.node_rates.items()},
            edge_rates={edge_index: rate / scale for edge_index, rate in self.edge_rates.items()},
            reference_anchor=self.reference_anchor,
            symbolic=self.symbolic,
        )

    def equations_text(self) -> str:
        """Render the traversal-rate equations in the style of Figure 8."""
        lines = []
        for edge in self.decision_graph.edges:
            incoming = self.decision_graph.incoming(edge.source)
            incoming_text = " + ".join(f"r{e.index + 1}" for e in incoming) or "0"
            lines.append(f"r{edge.index + 1} = ({edge.probability}) * ({incoming_text})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        flavour = "symbolic" if self.symbolic else "numeric"
        return f"TraversalRates({flavour}, edges={len(self.edge_rates)})"


def terminal_classes(decision: DecisionGraph) -> Tuple[Tuple[int, ...], ...]:
    """The bottom strongly connected components of the decision graph.

    Each class is the anchor set of one terminal (recurrent) component —
    once the process enters it, it never leaves.  A strict paper-shaped
    model has exactly one; a model with several folded committed cycles (the
    lossless sliding window reaches a different slot-phase ordering
    depending on its transient choices) has one class per cycle.  Classes
    are ordered by their smallest anchor index so the numbering is
    deterministic.
    """
    import networkx as nx

    graph = nx.DiGraph()
    graph.add_nodes_from(decision.anchors)
    for edge in decision.edges:
        if edge.target is not None:
            graph.add_edge(edge.source, edge.target)
    components = list(nx.strongly_connected_components(graph))
    condensation = nx.condensation(graph, scc=components)
    bottoms = [node for node in condensation.nodes if condensation.out_degree(node) == 0]
    classes = []
    for bottom in bottoms:
        members = condensation.nodes[bottom]["members"]
        classes.append(tuple(anchor for anchor in decision.anchors if anchor in members))
    classes.sort(key=lambda anchors: min(anchors))
    return tuple(classes)


def recurrent_anchors(decision: DecisionGraph) -> Tuple[int, ...]:
    """The anchors of the unique bottom strongly connected component.

    Decision nodes visited only during the initial transient (before the
    behaviour settles into its steady-state cycle) carry no stationary
    traversal rate; this helper identifies the recurrent anchors the
    traversal-rate equations are solved over.  Raises
    :class:`~repro.exceptions.NotErgodicError` when the decision graph has
    more than one bottom component (no unique steady state) — use
    :func:`terminal_classes` / :func:`ergodic_decomposition` to analyze such
    models class by class.
    """
    classes = terminal_classes(decision)
    if len(classes) != 1:
        raise NotErgodicError(
            "the decision graph has several terminal components; no unique steady-state "
            "cycle exists"
        )
    return classes[0]


def entry_anchor(decision: DecisionGraph) -> Optional[int]:
    """The first anchor the model visits from its initial timed state.

    Follows the (deterministic) successor chain of the timed reachability
    graph from the initial state until it hits an anchor.  Returns ``None``
    when the chain dead-ends before reaching one (the model deadlocks during
    its transient; no steady-state analysis applies).
    """
    trg = decision.trg
    anchor_set = set(decision.anchors)
    current = trg.initial_index
    for _ in range(trg.state_count + 1):
        if current in anchor_set:
            return current
        successors = trg.successors(current)
        if not successors:
            return None
        if len(successors) > 1:
            raise PerformanceError(
                f"state {current + 1} has several successors but is not an anchor; "
                "the decision-node set is inconsistent"
            )
        current = successors[0].target
    raise PerformanceError(
        "the successor chain from the initial state never reaches an anchor; "
        "the decision-node set is inconsistent"
    )


def absorption_probabilities(
    decision: DecisionGraph,
    classes: Optional[Sequence[Tuple[int, ...]]] = None,
    *,
    from_anchor: Optional[int] = None,
) -> Tuple[Scalar, ...]:
    """Probability of the model settling into each terminal class.

    Starting from ``from_anchor`` (default: the anchor the initial state
    reaches first, :func:`entry_anchor`), the embedded anchor chain is
    absorbed into one of the terminal classes; this solves the standard
    first-step equations ``h_k(a) = sum_b P(a, b) · h_k(b)`` for each class
    ``k`` exactly over the graph's scalar field.  With absorbing (dead-end)
    edges present the probabilities sum to less than one — the remainder is
    the probability of deadlocking during the transient.
    """
    if classes is None:
        classes = terminal_classes(decision)
    symbolic = decision.trg.symbolic
    zero, one = _field_constants(symbolic)
    if from_anchor is None:
        from_anchor = entry_anchor(decision)
    if from_anchor is None:
        return tuple(zero for _ in classes)

    class_of: Dict[int, int] = {}
    for class_index, members in enumerate(classes):
        for anchor in members:
            class_of[anchor] = class_index

    if from_anchor in class_of:
        return tuple(
            one if class_of[from_anchor] == class_index else zero
            for class_index in range(len(classes))
        )

    transient = [anchor for anchor in decision.anchors if anchor not in class_of]
    position = {anchor: index for index, anchor in enumerate(transient)}

    # Total one-step probability between anchors (parallel edges summed).
    totals: Dict[tuple, Scalar] = {}
    for edge in decision.edges:
        if edge.source not in position or edge.target is None:
            continue
        key = (edge.source, edge.target)
        totals[key] = totals.get(key, zero) + _coerce(edge.probability, symbolic)

    # (I - Q) h = R, one sparse row per transient anchor.
    rows = [{index: one} for index in range(len(transient))]
    rhs_columns: List[Dict[int, Scalar]] = [{} for _ in classes]
    for (source, target), probability in totals.items():
        row = position[source]
        if target in position:
            column = position[target]
            rows[row][column] = rows[row].get(column, zero) - probability
        elif target in class_of:
            column_rhs = rhs_columns[class_of[target]]
            column_rhs[row] = column_rhs.get(row, zero) + probability
    try:
        solutions = solve_sparse(rows, rhs_columns, zero=zero)
    except PerformanceError as error:
        raise NotErgodicError(
            "the absorption equations of the decision graph are singular; no "
            "well-defined settling probabilities exist"
        ) from error
    return tuple(solution[position[from_anchor]] for solution in solutions)


def traversal_rates(
    decision: DecisionGraph,
    *,
    reference_anchor: Optional[int] = None,
    terminal_class: Optional[int] = None,
) -> TraversalRates:
    """Solve the traversal-rate equations of a decision graph.

    Anchors outside the steady-state (recurrent) part of the graph receive
    rate zero, as do the edges leaving them.  ``terminal_class`` selects
    which bottom component to solve over when the graph has several (the
    index into :func:`terminal_classes`); by default the graph must have a
    unique one.

    Raises
    ------
    NotErgodicError
        When the graph has an absorbing (dead-end) edge, has no anchor at
        all, has several terminal components and none was selected, or its
        stationary equations are singular — in all those cases no unique
        steady-state cycle exists and the paper's performance measures are
        undefined.
    """
    if decision.anchor_count == 0:
        raise NotErgodicError(
            "the decision graph has no anchor node; the timed reachability graph has "
            "no steady-state cycle"
        )
    if decision.has_absorbing_edge():
        raise NotErgodicError(
            "the decision graph contains a path ending in a dead state; the model has "
            "no steady state (deadlock reachable)"
        )

    if terminal_class is None:
        recurrent = recurrent_anchors(decision)
    else:
        classes = terminal_classes(decision)
        if not 0 <= terminal_class < len(classes):
            raise PerformanceError(
                f"terminal class index {terminal_class} out of range (the decision "
                f"graph has {len(classes)})"
            )
        recurrent = classes[terminal_class]
    return _solve_class_rates(decision, recurrent, reference_anchor=reference_anchor)


def _solve_class_rates(
    decision: DecisionGraph,
    recurrent: Sequence[int],
    *,
    reference_anchor: Optional[int] = None,
) -> TraversalRates:
    """Solve the stationary rates over one recurrent anchor set.

    The members must form a closed (bottom) class; callers obtain them from
    :func:`recurrent_anchors` / :func:`terminal_classes` — passing the
    precomputed class avoids recomputing the condensation per class when a
    decomposition solves many of them.
    """
    symbolic = decision.trg.symbolic
    zero, one = _field_constants(symbolic)
    anchors = list(recurrent)
    anchor_position = {anchor: index for index, anchor in enumerate(anchors)}
    if reference_anchor is None:
        reference_anchor = anchors[0]
    if reference_anchor not in anchor_position:
        raise PerformanceError(
            f"reference anchor {reference_anchor} is not a recurrent decision node"
        )

    # Total transition probability between recurrent anchors (parallel edges
    # summed); edges leaving transient anchors do not influence the steady
    # state and are skipped here (they get rate zero below).
    totals: Dict[tuple, Scalar] = {}
    for edge in decision.edges:
        if edge.source not in anchor_position or edge.target not in anchor_position:
            continue
        key = (anchor_position[edge.source], anchor_position[edge.target])
        probability = _coerce(edge.probability, symbolic)
        totals[key] = totals.get(key, zero) + probability

    def transition_probability(source: int, target: int) -> Scalar:
        return totals.get((source, target), zero)

    weights = solve_stationary_weights(
        totals,
        len(anchors),
        reference=anchor_position[reference_anchor],
        zero=zero,
        one=one,
    )

    # Verify the (dropped) reference equation: guards against non-ergodic
    # graphs that happen to produce a solvable reduced system.
    reference_index = anchor_position[reference_anchor]
    balance = zero
    for source_index in range(len(anchors)):
        balance = balance + transition_probability(source_index, reference_index) * weights[source_index]
    if not _equals(balance, weights[reference_index]):
        raise NotErgodicError(
            "the decision graph is not a single recurrent class; stationary visit rates "
            "do not exist"
        )

    node_rates = {anchor: weights[anchor_position[anchor]] for anchor in anchors}
    for anchor in decision.anchors:
        node_rates.setdefault(anchor, zero)
    edge_rates = {
        edge.index: _coerce(edge.probability, symbolic) * node_rates[edge.source]
        for edge in decision.edges
    }
    return TraversalRates(
        decision_graph=decision,
        node_rates=node_rates,
        edge_rates=edge_rates,
        reference_anchor=reference_anchor,
        symbolic=symbolic,
    )


def _equals(left: Scalar, right: Scalar) -> bool:
    difference = left - right
    if hasattr(difference, "is_zero"):
        return difference.is_zero()
    return difference == 0


# ---------------------------------------------------------------------------
# Ergodic decomposition (multiple terminal classes / folded committed cycles)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TerminalClass:
    """One terminal (recurrent) class of a decision graph.

    Attributes
    ----------
    index:
        Position in :func:`terminal_classes` order.
    anchors:
        The class's anchor nodes (TRG node indices).
    probability:
        Probability of the model settling into this class from the initial
        state (exact, over the graph's scalar field).
    rates:
        The traversal rates of the class, solved as if it were the whole
        steady state (edges outside the class have rate zero).
    """

    index: int
    anchors: Tuple[int, ...]
    probability: Scalar
    rates: TraversalRates


@dataclass(frozen=True)
class ErgodicDecomposition:
    """A decision graph split into its terminal classes.

    A strict paper-shaped model has exactly one terminal class and the
    decomposition degenerates to the plain traversal-rate solution.  A model
    whose committed cycles were folded can have several — e.g. the lossless
    sliding window settles into one of ``w!`` slot-phase orderings depending
    on its transient choices — and every steady-state measure becomes the
    absorption-probability-weighted expectation of the per-class measures.
    """

    decision_graph: DecisionGraph
    classes: Tuple[TerminalClass, ...]
    entry: Optional[int]
    symbolic: bool

    @property
    def is_ergodic(self) -> bool:
        """True when a unique terminal class exists (the classical setting)."""
        return len(self.classes) == 1

    @property
    def class_count(self) -> int:
        """Number of terminal classes."""
        return len(self.classes)

    def combined_rates(self) -> TraversalRates:
        """Absorption-weighted traversal rates across all classes.

        Every quantity that is *linear* in the rates (cycle time, firings
        per cycle, edge time shares) computed from the combined rates equals
        the absorption-weighted expectation of the per-class quantity;
        ratios (throughput, utilization) must be weighted per class instead
        — :class:`~repro.performance.metrics.PerformanceMetrics` does so.
        """
        zero, _one = _field_constants(self.symbolic)
        node_rates: Dict[int, Scalar] = {
            anchor: zero for anchor in self.decision_graph.anchors
        }
        edge_rates: Dict[int, Scalar] = {
            edge.index: zero for edge in self.decision_graph.edges
        }
        for terminal in self.classes:
            for anchor, rate in terminal.rates.node_rates.items():
                node_rates[anchor] = node_rates[anchor] + terminal.probability * rate
            for index, rate in terminal.rates.edge_rates.items():
                edge_rates[index] = edge_rates[index] + terminal.probability * rate
        return TraversalRates(
            decision_graph=self.decision_graph,
            node_rates=node_rates,
            edge_rates=edge_rates,
            reference_anchor=self.classes[0].rates.reference_anchor,
            symbolic=self.symbolic,
        )


def ergodic_decomposition(decision: DecisionGraph) -> ErgodicDecomposition:
    """Split a decision graph into terminal classes with settling probabilities.

    Raises
    ------
    NotErgodicError
        When the graph has no anchor, reaches a dead state, or a class's
        stationary equations are singular — mirroring
        :func:`traversal_rates`, which this generalizes.
    """
    if decision.anchor_count == 0:
        raise NotErgodicError(
            "the decision graph has no anchor node; the timed reachability graph has "
            "no steady-state cycle"
        )
    if decision.has_absorbing_edge():
        raise NotErgodicError(
            "the decision graph contains a path ending in a dead state; the model has "
            "no steady state (deadlock reachable)"
        )
    symbolic = decision.trg.symbolic
    _zero, one = _field_constants(symbolic)
    classes = terminal_classes(decision)
    entry = entry_anchor(decision)
    if len(classes) == 1:
        probabilities: Sequence[Scalar] = (one,)
    else:
        probabilities = absorption_probabilities(decision, classes, from_anchor=entry)
    members = tuple(
        TerminalClass(
            index=index,
            anchors=anchors,
            probability=probabilities[index],
            rates=_solve_class_rates(decision, anchors),
        )
        for index, anchors in enumerate(classes)
    )
    return ErgodicDecomposition(
        decision_graph=decision,
        classes=members,
        entry=entry,
        symbolic=symbolic,
    )
