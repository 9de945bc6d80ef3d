"""Tests for the discrete-event simulator, the GSPN baseline and the Time Petri Net
translation (experiments E2, E10 and E14 in miniature)."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.exceptions import DeadlockError, SimulationError
from repro.performance import PerformanceAnalysis
from repro.petri import NetBuilder
from repro.protocols import (
    PAPER_THROUGHPUT,
    producer_consumer_net,
    simple_protocol_net,
    simple_protocol_symbolic,
    token_ring_net,
)
from repro.reachability import timed_reachability_graph
from repro.simulation import (
    BatchMeans,
    Deterministic,
    Exponential,
    TimedNetSimulator,
    Uniform,
    as_distribution,
    simulate,
)
from repro.stochastic import GSPNAnalysis, gspn_throughput
from repro.timenet import state_class_graph, timed_to_time_petri_net


class TestDistributions:
    def test_deterministic(self):
        import numpy as np

        rng = np.random.default_rng(0)
        dist = Deterministic(Fraction("106.7"))
        assert dist.sample(rng) == pytest.approx(106.7)
        assert dist.mean() == pytest.approx(106.7)

    def test_uniform_bounds_and_mean(self):
        import numpy as np

        rng = np.random.default_rng(0)
        dist = Uniform(2, 4)
        samples = [dist.sample(rng) for _ in range(200)]
        assert all(2 <= value <= 4 for value in samples)
        assert dist.mean() == 3

    def test_exponential_mean(self):
        import numpy as np

        rng = np.random.default_rng(0)
        dist = Exponential(10)
        samples = [dist.sample(rng) for _ in range(3000)]
        assert sum(samples) / len(samples) == pytest.approx(10, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Deterministic(-1)
        with pytest.raises(ValueError):
            Uniform(3, 2)
        with pytest.raises(ValueError):
            Exponential(0)

    def test_as_distribution(self):
        assert isinstance(as_distribution(5), Deterministic)
        dist = Uniform(1, 2)
        assert as_distribution(dist) is dist


class TestSimulator:
    def test_deterministic_token_ring_rate_is_exact(self):
        net = token_ring_net(3, hold_time=10, pass_time=2)
        result = simulate(net, horizon=3600, seed=1)
        # the cycle time is exactly 36, so each transmit fires 100 times
        assert len(result.event_times["transmit_0"]) == 100

    def test_simulated_throughput_converges_to_analytic(self):
        net = simple_protocol_net()
        result = simulate(net, horizon=400_000, seed=7)
        interval = result.throughput_interval("t2")
        assert interval.contains(float(PAPER_THROUGHPUT))
        assert result.throughput("t2") == pytest.approx(float(PAPER_THROUGHPUT), rel=0.08)

    def test_simulated_utilization_close_to_analytic(self, paper_analysis):
        result = simulate(simple_protocol_net(), horizon=200_000, seed=3)
        assert result.utilization("t4") == pytest.approx(
            float(paper_analysis.utilization("t4").value), abs=0.03
        )

    def test_reproducibility(self):
        net = simple_protocol_net()
        first = simulate(net, horizon=20_000, seed=42)
        second = simulate(net, horizon=20_000, seed=42)
        assert first.event_times == second.event_times
        third = simulate(net, horizon=20_000, seed=43)
        assert first.event_times != third.event_times

    def test_trace_recording(self):
        result = simulate(token_ring_net(2), horizon=100, record_trace=True)
        assert result.trace
        kinds = {event.kind for event in result.trace}
        assert kinds == {"start", "complete"}

    def test_deadlock_handling(self):
        builder = NetBuilder("dead")
        builder.transition("once", inputs=["p"], outputs=[], firing_time=1)
        builder.mark("p")
        net = builder.build()
        result = simulate(net, horizon=100)
        assert result.deadlocked
        simulator = TimedNetSimulator(net)
        with pytest.raises(DeadlockError):
            simulator.run(100, stop_on_deadlock=True)

    def test_symbolic_net_rejected(self):
        net, _constraints, _symbols = simple_protocol_symbolic()
        with pytest.raises(SimulationError):
            TimedNetSimulator(net)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            simulate(simple_protocol_net(), horizon=0)

    def test_enabling_time_respected(self):
        # A single timeout transition: nothing can complete before E(t)=50.
        builder = NetBuilder("timer")
        builder.transition("fire", inputs=["p"], outputs=["q"], enabling_time=50, firing_time=1)
        builder.mark("p")
        result = simulate(builder.build(), horizon=200, record_trace=True)
        assert result.event_times["fire"][0] == pytest.approx(51)

    def test_exponential_override_changes_behaviour(self):
        net = simple_protocol_net()
        exponential = simulate(
            net,
            horizon=100_000,
            seed=11,
            firing_distributions={"t4": Exponential(Fraction("106.7")), "t8": Exponential(Fraction("106.7"))},
        )
        deterministic = simulate(net, horizon=100_000, seed=11)
        assert exponential.throughput("t2") != deterministic.throughput("t2")

    def test_batch_means_interval(self):
        interval = BatchMeans(10, 0.95).interval([float(i) for i in range(1, 1000)], horizon=1000.0)
        assert interval.estimate == pytest.approx(1.0, rel=0.05)
        assert interval.low <= interval.estimate <= interval.high
        assert "±" in str(interval)

    def test_batch_means_interval_uses_student_t(self):
        # Uneven batches, so the interval takes the t-quantile path (the one
        # place the simulation statistics need scipy): the half-widths at two
        # confidence levels differ exactly by the ratio of the quantiles.
        from scipy import stats as scipy_stats

        events = [float(i) for i in range(1, 1000) if i % 100 < 10 + i // 100]
        narrow = BatchMeans(10, 0.95).interval(events, horizon=1000.0)
        wide = BatchMeans(10, 0.99).interval(events, horizon=1000.0)
        assert 0 < narrow.half_width < wide.half_width < float("inf")
        ratio = scipy_stats.t.ppf(0.995, 9) / scipy_stats.t.ppf(0.975, 9)
        assert wide.half_width / narrow.half_width == pytest.approx(float(ratio))

    def test_import_loads_neither_scipy_nor_multiprocessing(self):
        import subprocess
        import sys

        code = (
            "import sys, repro, repro.analysis, repro.service; "
            "print(sorted(m for m in ('scipy', 'multiprocessing') if m in sys.modules))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"

    def test_statistics_summary_shape(self):
        result = simulate(token_ring_net(2), horizon=500)
        summary = result.statistics.summary()
        assert set(summary) == {"firing_rate", "utilization", "mean_tokens"}


class TestGspnBaseline:
    def test_producer_consumer_gspn(self):
        net = producer_consumer_net(production_time=5, transfer_time=1, consumption_time=5)
        result = GSPNAnalysis(net).solve()
        assert abs(sum(result.stationary) - 1) < 1e-9
        assert result.throughput["finish_consume"] > 0
        # exponential delays slow the pipeline down relative to deterministic ones
        deterministic = PerformanceAnalysis(net).throughput("finish_consume").value
        assert result.throughput["finish_consume"] < float(deterministic)

    def test_protocol_gspn_is_pessimistic(self):
        value = gspn_throughput(simple_protocol_net(), "t7", place_capacity=2)
        assert 0 < value < float(PAPER_THROUGHPUT)

    def test_symbolic_net_rejected(self):
        from repro.exceptions import PerformanceError

        net, _constraints, _symbols = simple_protocol_symbolic()
        with pytest.raises(PerformanceError):
            GSPNAnalysis(net)

    def test_probability_of_predicate(self):
        net = producer_consumer_net(production_time=2, transfer_time=1, consumption_time=6)
        result = GSPNAnalysis(net).solve()
        busy = result.probability_of(lambda marking: marking["consuming"] > 0)
        assert 0.5 < busy <= 1.0


class TestTimePetriNets:
    def test_translation_structure(self, paper_net):
        translated = timed_to_time_petri_net(paper_net)
        assert len(translated.transition_order) == 2 * len(paper_net.transition_order)
        assert len(translated.place_order) == len(paper_net.place_order) + len(paper_net.transition_order)
        # the timeout start transition carries the enabling time as a point interval
        start = translated.transitions["t3"]
        assert start.min_time == start.max_time == 1000
        end = translated.transitions["t3__end"]
        assert end.min_time == end.max_time == 1

    def test_translation_preserves_reachable_markings(self):
        """Figure-2 equivalence: projecting the Time Petri Net state classes
        onto the original places yields exactly the markings of the timed
        reachability graph."""
        net = simple_protocol_net()
        original = timed_reachability_graph(net)
        original_markings = {node.state.marking.to_vector() for node in original.nodes}
        translated = timed_to_time_petri_net(net)
        classes = state_class_graph(translated)
        projected = set()
        for vector in classes.markings_projected(net.place_order):
            projected.add(vector)
        # every original marking appears in the projection and vice versa,
        # once the in-progress firings (busy places) are accounted for: a
        # marking of the timed graph corresponds to tokens being either on the
        # original places or absorbed into a busy place.
        original_support = {
            tuple(min(v, 1) for v in vector) for vector in original_markings
        }
        projected_support = {tuple(min(v, 1) for v in vector) for vector in projected}
        assert projected_support == original_support

    def test_state_class_graph_of_cycle(self):
        builder = NetBuilder("cycle")
        builder.transition("go", inputs=["p"], outputs=["q"], firing_time=2)
        builder.transition("back", inputs=["q"], outputs=["p"], firing_time=3)
        builder.mark("p")
        translated = timed_to_time_petri_net(builder.build())
        graph = state_class_graph(translated)
        assert graph.class_count == 4  # p, busy_go, q, busy_back
        assert len(graph.edges) == 4

    def test_interval_transition_validation(self):
        from repro.exceptions import NetDefinitionError
        from repro.timenet import IntervalTransition

        with pytest.raises(NetDefinitionError):
            IntervalTransition("bad", {"p": 1}, {}, min_time=3, max_time=2)

    def test_symbolic_net_cannot_be_translated(self):
        from repro.exceptions import NetDefinitionError

        net, _constraints, _symbols = simple_protocol_symbolic()
        with pytest.raises(NetDefinitionError):
            timed_to_time_petri_net(net)
