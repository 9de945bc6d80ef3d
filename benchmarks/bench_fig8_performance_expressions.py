"""E8 — Figure 8: the symbolic decision graph and its traversal-rate solution.

Regenerates the four symbolic decision-graph edges (probabilities as ratios
of firing frequencies, delays as sums of time symbols), the traversal-rate
equations, and the relative rates with the successful-acknowledgement edge
normalized to 1 (the paper's "assuming r_j = 1" presentation), and times the
symbolic rate solve.

The second half times the exact sparse solve of the traversal-rate
equations on large numeric decision graphs (97 to 5,189 anchors), reports
each solve's fill through the ``REPRO_BENCH_JSON`` hook, and checks every
cycle time exactly against the independent embedded-Markov-chain solve.
Time budgets are soft under ``REPRO_BENCH_SOFT``; the exact agreement is
always enforced.
"""

from __future__ import annotations

import time
from fractions import Fraction

from repro.performance import (
    PerformanceMetrics,
    embedded_chain_analysis,
    terminal_classes,
    traversal_rates,
)
from repro.performance.linear import last_solve_stats
from repro.protocols import go_back_n_net, paper_bindings, selective_repeat_net, sliding_window_net
from repro.reachability import decision_graph, timed_reachability_graph
from repro.symbolic import RatFunc, evaluate_value
from repro.viz import ExperimentReport, format_table

from conftest import emit, record_bench, soft_or_fail


def test_fig8_symbolic_traversal_rates(benchmark, symbolic_analysis, symbolic_protocol):
    _net, _constraints, symbols = symbolic_protocol
    decision = symbolic_analysis.decision
    rates = benchmark(traversal_rates, decision)

    # Identify the four edges by the transitions that fire along them.
    success_edge = [e for e in decision.edges if "t2" in e.fired][0]
    loss_edge = [e for e in decision.edges if "t5" in e.fired][0]
    packet_edge = [e for e in decision.edges if "t6" in e.fired and "t2" not in e.fired][0]
    ack_loss_edge = [e for e in decision.edges if "t9" in e.fired][0]

    normalized = rates.normalized_to_edge(success_edge)
    bindings = paper_bindings()

    # The paper's relative rates with r(success)=1 at f=0.95/0.05:
    P = A = Fraction(19, 20)
    expected_rates = {
        "success (edge 2)": Fraction(1),
        "packet delivered (edge 3)": 1 / A,
        "packet lost (edge 1)": (1 - P) / (P * A),
        "ack lost (edge 4)": (1 - A) / A,
    }
    measured_rates = {
        "success (edge 2)": evaluate_value(RatFunc.coerce(normalized.rate_of_edge(success_edge)), bindings),
        "packet delivered (edge 3)": evaluate_value(RatFunc.coerce(normalized.rate_of_edge(packet_edge)), bindings),
        "packet lost (edge 1)": evaluate_value(RatFunc.coerce(normalized.rate_of_edge(loss_edge)), bindings),
        "ack lost (edge 4)": evaluate_value(RatFunc.coerce(normalized.rate_of_edge(ack_loss_edge)), bindings),
    }

    report = ExperimentReport("E8", "Figure 8 — symbolic decision graph and traversal rates")
    report.add(
        "probability of the packet-delivery branch",
        "f4 / (f4 + f5)",
        str(packet_edge.probability).replace("f_t", "f").replace(" ", ""),
        matches=RatFunc.coerce(packet_edge.probability).evaluate(bindings) == Fraction(19, 20),
    )
    report.add(
        "delay of the packet-loss edge",
        "E3 + F1 + F3 (= 1002 ms)",
        f"{loss_edge.delay} (= {float(evaluate_value(loss_edge.delay, bindings))} ms)",
        matches=evaluate_value(loss_edge.delay, bindings) == Fraction(1002),
    )
    report.add(
        "delay of the successful-ack edge",
        "F8 + F2 + F7 + F1 (= 122.2 ms)",
        f"{success_edge.delay} (= {float(evaluate_value(success_edge.delay, bindings))} ms)",
        matches=evaluate_value(success_edge.delay, bindings) == Fraction("122.2"),
    )
    for label, expected in expected_rates.items():
        report.add(f"relative rate, {label}", str(expected), str(measured_rates[label]))

    print()
    print("Traversal-rate equations (reproduced):")
    print(rates.equations_text())
    print()
    rows = [
        (f"a{edge.index + 1}", str(edge.probability), str(edge.delay))
        for edge in decision.edges
    ]
    print(format_table(("edge", "probability", "delay"), rows, align_right=False))
    emit(report)


LOSS = Fraction(1, 10)
FAST = {"packet_delay": 2, "ack_delay": 2, "timeout": 6}

#: (label, constructor, solve budget in seconds) of the large decision graphs.
LARGE_DECISION_GRAPHS = [
    ("gbn3-loss10", lambda: go_back_n_net(3, loss_probability=LOSS), 1.0),
    ("sr3-loss10", lambda: selective_repeat_net(3, loss_probability=LOSS), 1.0),
    ("sw3-loss10-fast", lambda: sliding_window_net(3, loss_probability=LOSS, **FAST), 1.0),
    ("sw4-loss10-fast", lambda: sliding_window_net(4, loss_probability=LOSS, **FAST), 60.0),
]


def embedded_cycle_time(decision, metrics):
    """Cycle time by the embedded chain, weighted over the terminal classes."""
    total = Fraction(0)
    for index, terminal in enumerate(metrics.decomposition.classes):
        chain = embedded_chain_analysis(decision, terminal_class=index)
        visits = chain.stationary[terminal.rates.reference_anchor]
        total += terminal.probability * chain.mean_cycle_time / visits
    return total


def class_solve_fill(decision):
    """Nonzeros before and after elimination, summed over the class solves."""
    before = after = 0
    for index in range(len(terminal_classes(decision))):
        traversal_rates(decision, terminal_class=index)
        stats = last_solve_stats()
        before += stats.input_nonzeros
        after += stats.factor_nonzeros
    return before, after


def test_fig8_sparse_solve_rows():
    """Sparse exact solve of large traversal-rate systems, cross-checked exactly."""
    rows = []
    problems = []
    for label, constructor, budget in LARGE_DECISION_GRAPHS:
        decision = decision_graph(timed_reachability_graph(constructor(), max_states=100_000))
        start = time.perf_counter()
        metrics = PerformanceMetrics(decision)
        seconds = time.perf_counter() - start
        cycle_time = metrics.cycle_time()
        assert cycle_time == embedded_cycle_time(decision, metrics)

        anchors = len(decision.anchors)
        before, after = class_solve_fill(decision)
        rows.append((label, anchors, metrics.decomposition.class_count, before, after,
                     f"{seconds:.3f}", f"{float(cycle_time):.6f}"))
        record_bench(label, "sparse-traversal-solve", anchors, seconds,
                     anchors=anchors, input_nonzeros=before, factor_nonzeros=after)
        if seconds > budget:
            problems.append(f"{label}: solve took {seconds:.2f} s (budget {budget} s)")

    print()
    print("Sparse traversal-rate solve — large decision graphs:")
    print(format_table(
        ("model", "anchors", "classes", "nonzeros in", "nonzeros after", "solve [s]",
         "cycle time [ms]"),
        rows,
        align_right=False,
    ))
    soft_or_fail(problems)
