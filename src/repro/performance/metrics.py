"""Performance measures derived from decision graphs and traversal rates.

With the traversal rates ``r_i`` and edge delays ``d_i`` in hand (Figures 5
and 8 of the paper), the relative amount of time spent on edge ``i`` is
``w_i = r_i · d_i``; every steady-state performance measure of the model is a
ratio of sums of such quantities:

* **cycle time** — the mean time between successive visits of the reference
  anchor is ``sum_i w_i`` when the rates are normalized to one visit;
* **throughput of a transition** — (expected firings of the transition per
  cycle) / (cycle time); the paper's protocol throughput is the special case
  "firings of the ack-accept transition per unit time";
* **utilization of a transition** — fraction of time the transition is
  firing, computed from the per-edge busy times;
* **edge time share** — the fraction of time spent traversing each decision
  edge, the quantity the paper tabulates as ``w_i``.

Everything works for both the numeric domain (values are
:class:`fractions.Fraction`) and the symbolic domain (values are
:class:`~repro.symbolic.ratfunc.RatFunc` over time and frequency symbols).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Mapping, Optional, Union

from ..exceptions import PerformanceError
from ..reachability.decision import DecisionEdge, DecisionGraph
from ..symbolic.linexpr import LinExpr
from ..symbolic.ratfunc import RatFunc
from ..symbolic.symbols import Symbol
from .linear import _is_zero
from .traversal import (
    ErgodicDecomposition,
    TraversalRates,
    ergodic_decomposition,
)

Scalar = Union[Fraction, RatFunc]


def _as_scalar(value, symbolic: bool) -> Scalar:
    if symbolic:
        return RatFunc.coerce(value)
    if isinstance(value, LinExpr):
        return value.constant_value()
    return Fraction(value)


@dataclass(frozen=True)
class PerformanceReport:
    """A bundle of the headline measures for quick inspection / serialization."""

    cycle_time: Scalar
    throughput: Dict[str, Scalar]
    utilization: Dict[str, Scalar]
    edge_time_shares: Dict[int, Scalar]
    edge_rates: Dict[int, Scalar]

    def evaluate(self, bindings: Mapping[Symbol, object]) -> "PerformanceReport":
        """Numerically specialize a symbolic report."""
        def value_of(value: Scalar) -> Fraction:
            if isinstance(value, RatFunc):
                return value.evaluate(bindings)  # type: ignore[arg-type]
            return Fraction(value)

        return PerformanceReport(
            cycle_time=value_of(self.cycle_time),
            throughput={key: value_of(value) for key, value in self.throughput.items()},
            utilization={key: value_of(value) for key, value in self.utilization.items()},
            edge_time_shares={key: value_of(value) for key, value in self.edge_time_shares.items()},
            edge_rates={key: value_of(value) for key, value in self.edge_rates.items()},
        )


class PerformanceMetrics:
    """Compute performance measures for a decision graph.

    When the graph has a unique terminal class (every strict paper-shaped
    model) this is the classical traversal-rate computation.  When folded
    committed cycles give it several, each measure is the
    settling-probability-weighted expectation of the per-class measure —
    quantities linear in the rates come from the combined rates directly,
    ratios (throughput, utilization, frequencies) are formed per class and
    then weighted, which is the long-run expectation over the model's random
    transient.

    Parameters
    ----------
    decision:
        The decision graph (numeric or symbolic).
    rates:
        Pre-computed traversal rates; when supplied they are used as-is (the
        classical single-class computation).  When omitted, the ergodic
        decomposition is computed and multi-class graphs are handled as
        described above.
    """

    def __init__(self, decision: DecisionGraph, rates: Optional[TraversalRates] = None):
        self.decision = decision
        self.decomposition: Optional[ErgodicDecomposition] = None
        if rates is not None:
            self.rates = rates
        else:
            self.decomposition = ergodic_decomposition(decision)
            self.rates = self.decomposition.combined_rates()
        self.symbolic = decision.trg.symbolic
        self._class_metrics: Optional[list] = None
        self._memo: Dict[tuple, object] = {}

    # The readout memo is derived data: it stays out of the pickled state so
    # a cached artifact's bytes do not depend on which measures were read.
    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items() if key != "_memo"}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._memo = {}

    def _memoized(self, key: tuple, compute: Callable[[], object]):
        """``compute()``, evaluated once per key and metrics object."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    def _per_class(self) -> Optional[list]:
        """Per-class (probability, metrics) pairs for ratio measures.

        ``None`` when the classical single-chain computation applies — either
        explicit rates were supplied or the graph has a unique terminal
        class (then ``self.rates`` already *is* that class's solution).
        """
        if self.decomposition is None or self.decomposition.is_ergodic:
            return None
        if self._class_metrics is None:
            self._class_metrics = [
                (terminal.probability, PerformanceMetrics(self.decision, terminal.rates))
                for terminal in self.decomposition.classes
            ]
        return self._class_metrics

    def _expected(self, measure) -> Scalar:
        """Settling-probability-weighted expectation of a per-class measure."""
        total: Scalar = RatFunc.zero() if self.symbolic else Fraction(0)
        for probability, metrics in self._per_class():
            if _is_zero(probability):
                continue
            total = total + probability * measure(metrics)
        return total

    # ------------------------------------------------------------------
    # Edge-level quantities
    # ------------------------------------------------------------------

    def edge_rate(self, edge: DecisionEdge | int) -> Scalar:
        """Traversal rate ``r_i`` of a decision edge."""
        return self.rates.rate_of_edge(edge)

    def edge_time_share(self, edge: DecisionEdge | int) -> Scalar:
        """``w_i = r_i · d_i`` — relative time spent traversing the edge."""
        edge_obj = self.decision.edges[edge] if isinstance(edge, int) else edge
        rate = self.rates.rate_of_edge(edge_obj)
        delay = _as_scalar(edge_obj.delay, self.symbolic)
        return rate * delay if not self.symbolic else RatFunc.coerce(rate) * RatFunc.coerce(edge_obj.delay)

    def edge_time_shares(self) -> Dict[int, Scalar]:
        """``w_i`` for every decision edge, keyed by edge index."""
        shares = self._memoized(
            ("edge_time_shares",),
            lambda: {edge.index: self.edge_time_share(edge) for edge in self.decision.edges},
        )
        return dict(shares)

    # ------------------------------------------------------------------
    # Cycle-level quantities
    # ------------------------------------------------------------------

    def cycle_time(self) -> Scalar:
        """Mean time per visit of the reference anchor: ``sum_i r_i · d_i``.

        (With the solver's normalization the reference anchor is visited at
        rate 1, so this sum *is* the mean recurrence time of that anchor.)
        """
        return self._memoized(("cycle_time",), self._cycle_time)

    def _cycle_time(self) -> Scalar:
        shares = self.edge_time_shares()
        total: Scalar = RatFunc.zero() if self.symbolic else Fraction(0)
        for value in shares.values():
            total = total + value
        if (hasattr(total, "is_zero") and total.is_zero()) or total == 0:
            raise PerformanceError("the steady-state cycle has zero total time")
        return total

    def firings_per_cycle(self, transition_name: str, *, count: str = "fired") -> Scalar:
        """Expected number of times a transition begins (or completes) firing per cycle.

        ``count`` selects whether to count firing *starts* (``"fired"``,
        default) or firing *completions* (``"completed"``); the two coincide
        in steady state for the paper's models but may differ transiently.
        """
        if count not in ("fired", "completed"):
            raise ValueError("count must be 'fired' or 'completed'")
        return self._memoized(
            ("firings_per_cycle", transition_name, count),
            lambda: self._firings_per_cycle(transition_name, count),
        )

    def _firings_per_cycle(self, transition_name: str, count: str) -> Scalar:
        total: Scalar = RatFunc.zero() if self.symbolic else Fraction(0)
        for edge in self.decision.edges:
            events = edge.fired if count == "fired" else edge.completed
            occurrences = sum(1 for name in events if name == transition_name)
            if occurrences:
                total = total + self.rates.rate_of_edge(edge) * occurrences
        return total

    def throughput(self, transition_name: str, *, count: str = "fired") -> Scalar:
        """Steady-state firing rate of a transition (firings per unit time).

        For the paper's protocol, ``throughput("t2")`` — the rate at which
        acknowledgements are accepted by the sender — is the protocol
        throughput in messages per millisecond.  With several terminal
        classes this is the expected long-run rate,
        ``sum_k p_k · throughput_k``.
        """
        return self._memoized(
            ("throughput", transition_name, count),
            lambda: self._throughput(transition_name, count),
        )

    def _throughput(self, transition_name: str, count: str) -> Scalar:
        if self._per_class() is not None:
            return self._expected(lambda metrics: metrics.throughput(transition_name, count=count))
        return self.firings_per_cycle(transition_name, count=count) / self.cycle_time()

    def edge_traversal_frequency(self, edge: DecisionEdge | int) -> Scalar:
        """Traversals of an edge per unit time (``r_i`` / cycle time)."""
        per_class = self._per_class()
        if per_class is not None:
            return self._expected(lambda metrics: metrics.edge_traversal_frequency(edge))
        return self.rates.rate_of_edge(edge) / self.cycle_time()

    def utilization(self, transition_name: str) -> Scalar:
        """Long-run fraction of time the transition is firing.

        Computed edge by edge from the busy time the transition accumulates
        along each collapsed path; the result lies in [0, 1] for nets obeying
        the paper's single-firing restriction.  With several terminal
        classes this is the expected long-run fraction.
        """
        return self._memoized(
            ("utilization", transition_name), lambda: self._utilization(transition_name)
        )

    def _utilization(self, transition_name: str) -> Scalar:
        if self._per_class() is not None:
            return self._expected(lambda metrics: metrics.utilization(transition_name))
        total: Scalar = RatFunc.zero() if self.symbolic else Fraction(0)
        for edge in self.decision.edges:
            busy = self.decision.busy_time(edge, transition_name)
            busy_scalar = RatFunc.coerce(busy) if self.symbolic else _as_scalar(busy, False)
            total = total + self.rates.rate_of_edge(edge) * busy_scalar
        return total / self.cycle_time()

    def anchor_visit_frequency(self, anchor: int) -> Scalar:
        """Visits of an anchor node per unit time."""
        per_class = self._per_class()
        if per_class is not None:
            return self._expected(lambda metrics: metrics.anchor_visit_frequency(anchor))
        return self.rates.rate_of_node(anchor) / self.cycle_time()

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------

    def report(self, transitions: Optional[list] = None) -> PerformanceReport:
        """Bundle the headline measures for the given transitions (default: all)."""
        names = transitions if transitions is not None else list(self.decision.trg.net.transition_order)
        return PerformanceReport(
            cycle_time=self.cycle_time(),
            throughput={name: self.throughput(name) for name in names},
            utilization={name: self.utilization(name) for name in names},
            edge_time_shares=self.edge_time_shares(),
            edge_rates=dict(self.rates.edge_rates),
        )
