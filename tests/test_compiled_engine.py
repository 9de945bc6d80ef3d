"""Differential and regression tests for the compiled reachability engine.

The compiled engine (:mod:`repro.reachability.compiled`) must reproduce the
reference successor procedure **bit for bit**: same node order, same edge
order, same delays, probabilities, fired/completed transition labels and
used-constraint labels.  These tests enforce that equivalence on every
bundled workload, cover the ``engine`` selection knob, the ``max_states``
bound and the overlap policies, and pin down the hot-path bugfixes that
shipped with the engine (uniform zero-frequency fallback, lossless
``edge_table`` rendering, O(1) marking lookups, the coverability
parent-index chain, the shared branch-probability cache, and tables that
pickle without their memo working sets).  The workload registry and
graph-equality assertions live in the shared harness :mod:`engine_diff`,
which the untimed/GSPN differential tests reuse.
"""

from __future__ import annotations

import pickle
from fractions import Fraction

import pytest

from engine_diff import (
    NUMERIC_WORKLOADS,
    WORKLOAD_IDS,
    assert_timed_graphs_identical,
    build_symbolic_timed_pair,
    build_timed_pair,
)
from repro.engine import NetTables
from repro.exceptions import (
    InsufficientConstraintsError,
    MarkingError,
    SafenessViolationError,
    UnboundedNetError,
)
from repro.petri import coverability_graph
from repro.petri.builder import NetBuilder
from repro.petri.marking import Marking
from repro.protocols import (
    go_back_n_net,
    simple_protocol_net,
    simple_protocol_symbolic,
    sliding_window_net,
    token_ring_net,
)
from repro.reachability import (
    OVERLAP_SKIP,
    CompiledSuccessorEngine,
    SuccessorGenerator,
    symbolic_timed_reachability_graph,
    timed_reachability_graph,
)
from repro.reachability.algebra import (
    NumericProbabilityAlgebra,
    branch_cache_stats,
    clear_branch_caches,
    numeric_algebras,
)
from repro.symbolic import time_symbol


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_numeric_workloads(self, label, constructor):
        compiled, reference = build_timed_pair(constructor(), max_states=20_000)
        assert_timed_graphs_identical(compiled, reference)

    def test_symbolic_paper_net_including_used_constraints(self):
        net, constraints, _symbols = simple_protocol_symbolic()
        compiled, reference = build_symbolic_timed_pair(net, constraints)
        assert_timed_graphs_identical(compiled, reference)
        # The Figure-7 bookkeeping must survive the compilation verbatim.
        assert compiled.used_constraint_labels() == reference.used_constraint_labels()
        assert compiled.constraint_usage() == reference.constraint_usage()
        assert any(compiled.used_constraint_labels())

    def test_compiled_is_the_default_engine(self):
        default = timed_reachability_graph(simple_protocol_net())
        explicit = timed_reachability_graph(simple_protocol_net(), engine="compiled")
        assert [n.state for n in default.nodes] == [n.state for n in explicit.nodes]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            timed_reachability_graph(simple_protocol_net(), engine="turbo")
        net, constraints, _symbols = simple_protocol_symbolic()
        with pytest.raises(ValueError, match="unknown engine"):
            symbolic_timed_reachability_graph(net, constraints, engine="turbo")


def overlapping_net():
    """A net where a transition becomes firable while it is already firing.

    ``t_long`` starts a 3-tick firing; ``t_feed`` completes after 1 tick and
    re-marks ``t_long``'s input place, so ``t_long`` is enabled again while
    its own firing is still in progress — the situation the paper's model
    restriction rules out.
    """
    builder = NetBuilder("overlap")
    builder.place("a", tokens=1)
    builder.place("c", tokens=1)
    builder.transition("t_long", inputs=["a"], outputs=[], firing_time=3)
    builder.transition("t_feed", inputs=["c"], outputs=["a"], firing_time=1)
    return builder.build()


class TestOverlapPolicies:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_overlap_error_raises(self, engine):
        with pytest.raises(SafenessViolationError, match="already firing"):
            timed_reachability_graph(overlapping_net(), engine=engine)

    def test_overlap_skip_graphs_identical(self):
        compiled, reference = build_timed_pair(overlapping_net(), overlap_policy=OVERLAP_SKIP)
        assert_timed_graphs_identical(compiled, reference)
        # The skipped overlap means the long transition simply keeps firing.
        assert compiled.state_count > 1


class TestMaxStatesBound:
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_raises_exactly_at_the_limit(self, engine):
        net = token_ring_net(3)
        exact = timed_reachability_graph(net, engine=engine).state_count
        assert exact == 12
        # The full graph fits exactly: no error at the true size...
        graph = timed_reachability_graph(net, max_states=exact, engine=engine)
        assert graph.state_count == exact
        # ...and one state less trips the bound.
        with pytest.raises(UnboundedNetError, match=str(exact - 1)):
            timed_reachability_graph(net, max_states=exact - 1, engine=engine)


class _AllZeroProbabilities(NumericProbabilityAlgebra):
    """Probability algebra whose branch probabilities are always zero.

    Models a (possibly user-supplied) algebra that returns raw, unfiltered
    probability maps — the degenerate case the fire step's fallback guards.
    """

    def branch_probabilities(self, conflict_set, firable):
        return {name: Fraction(0) for name in firable}


def two_way_choice_net():
    builder = NetBuilder("choice")
    builder.place("p", tokens=1)
    builder.transition("a", inputs=["p"], outputs=[], firing_time=1, frequency=1)
    builder.transition("b", inputs=["p"], outputs=[], firing_time=2, frequency=1)
    return builder.build()


class TestUniformZeroFrequencyFallback:
    """Regression: the all-zero fallback must be genuinely uniform.

    It used to give the whole probability mass to the first firable member;
    now every firable member gets its own edge with probability ``1/n``.
    """

    def test_reference_generator_splits_uniformly(self):
        net = two_way_choice_net()
        time_algebra, _ = numeric_algebras()
        generator = SuccessorGenerator(net, time_algebra, _AllZeroProbabilities())
        edges = generator.successors(generator.initial_state())
        assert [(edge.fired, edge.probability) for edge in edges] == [
            (("a",), Fraction(1, 2)),
            (("b",), Fraction(1, 2)),
        ]

    def test_compiled_engine_splits_uniformly(self):
        net = two_way_choice_net()
        time_algebra, _ = numeric_algebras()
        engine = CompiledSuccessorEngine(net, time_algebra, _AllZeroProbabilities())
        edges = engine.successors(engine.initial_state())
        assert [(edge.fired, edge.probability) for edge in edges] == [
            (("a",), Fraction(1, 2)),
            (("b",), Fraction(1, 2)),
        ]


def fire_and_complete_net():
    """A selector that starts a timed firing and completes an instantaneous one."""
    builder = NetBuilder("fire-and-complete")
    builder.place("a", tokens=1)
    builder.place("c", tokens=1)
    builder.transition("t1", inputs=["a"], outputs=["b"], firing_time=2)
    builder.transition("t2", inputs=["c"], outputs=["d"], firing_time=0)
    return builder.build()


class TestEdgeTableRendering:
    """Regression: fire edges used to drop their ``!completed`` suffix."""

    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_fire_edge_renders_completions(self, engine):
        graph = timed_reachability_graph(fire_and_complete_net(), engine=engine)
        actions = [row[4] for row in graph.edge_table()]
        assert "t1+t2!t2" in actions

    def test_advance_edge_still_renders_completions(self):
        graph = timed_reachability_graph(fire_and_complete_net())
        actions = [row[4] for row in graph.edge_table()]
        assert "!t1" in actions


class TestMarkingLookup:
    """Regression companions for the O(1) ``Marking.__getitem__``."""

    def test_known_place_lookup(self):
        marking = Marking(("p1", "p2", "p3"), {"p2": 2})
        assert marking["p1"] == 0
        assert marking["p2"] == 2

    def test_unknown_place_still_raises(self):
        marking = Marking(("p1", "p2"), {"p1": 1})
        with pytest.raises(MarkingError, match="unknown place"):
            marking["p9"]

    def test_add_rejects_unknown_places(self):
        marking = Marking(("p1",), {"p1": 1})
        from repro.petri.multiset import Multiset

        with pytest.raises(MarkingError, match="unknown place"):
            marking.add(Multiset(["zz"]))

    def test_trusted_constructor_matches_validated(self):
        order = ("p1", "p2")
        trusted = Marking._trusted(order, frozenset(order), {"p2": 1})
        assert trusted == Marking(order, {"p2": 1})
        assert hash(trusted) == hash(Marking(order, {"p2": 1}))
        assert trusted["p1"] == 0 and trusted["p2"] == 1


class TestWindowWorkloads:
    def test_sliding_window_grows_with_window(self):
        small = timed_reachability_graph(sliding_window_net(1))
        large = timed_reachability_graph(sliding_window_net(3))
        assert large.state_count > small.state_count
        assert not large.dead_nodes()

    def test_go_back_n_sends_in_order(self):
        graph = timed_reachability_graph(go_back_n_net(2))
        fired = [edge.fired for edge in graph.edges if edge.fired]
        sends = [
            [name for name in names if name.endswith("_send")]
            for names in fired
            if any(name.endswith("_send") for name in names)
        ]
        # The send-turn token serializes transmissions: the very first send
        # is slot 0's, and no selector ever starts two sends at once.
        assert sends and sends[0] == ["g0_send"]
        assert all(len(names) == 1 for names in sends)
        # Without loss the windowed pipeline is fully deterministic.
        assert not graph.decision_nodes()

    def test_lossy_windows_have_decision_states(self):
        graph = timed_reachability_graph(sliding_window_net(2, loss_probability=Fraction(1, 10)))
        assert graph.decision_nodes()
        graph = timed_reachability_graph(go_back_n_net(2, loss_probability=Fraction(1, 10)))
        assert graph.decision_nodes()

    def test_window_validation(self):
        with pytest.raises(ValueError):
            sliding_window_net(0)
        with pytest.raises(ValueError):
            go_back_n_net(0)
        with pytest.raises(ValueError):
            sliding_window_net(2, loss_probability=2)
        with pytest.raises(ValueError):
            go_back_n_net(2, loss_probability=-1)


class TestTablesPickling:
    """Tables pickle through the spill store and the artifact cache's disk
    tier without their memo working sets."""

    def test_round_trip_preserves_tables(self):
        net = sliding_window_net(2, loss_probability=Fraction(1, 10))
        tables = NetTables(net)
        vec = tables.initial_vector()
        tables.enabled_transitions(vec)  # populate the memo that must be dropped
        clone = pickle.loads(pickle.dumps(tables))
        assert clone.place_names == tables.place_names
        assert clone.transition_names == tables.transition_names
        assert clone.inputs == tables.inputs
        assert clone.outputs == tables.outputs
        assert clone.deltas == tables.deltas
        assert clone.consumers_of_place == tables.consumers_of_place
        assert clone.group_of == tables.group_of

    def test_enabled_memo_not_pickled(self):
        net = sliding_window_net(2)
        tables = NetTables(net)
        tables.enabled_transitions(tables.initial_vector())
        assert tables._enabled_cache
        clone = pickle.loads(pickle.dumps(tables))
        assert clone._enabled_cache == {}
        # ... and the clone still computes the same enabled sets.
        vec = clone.initial_vector()
        assert clone.enabled_transitions(vec) == tables.enabled_transitions(vec)

    def test_fire_after_round_trip(self):
        net = go_back_n_net(2, loss_probability=Fraction(1, 10))
        tables = NetTables(net)
        clone = pickle.loads(pickle.dumps(tables))
        vec = tables.initial_vector()
        for transition in tables.enabled_transitions(vec):
            assert clone.fire_atomic(vec, transition) == tables.fire_atomic(vec, transition)

    def test_compiled_net_drops_timed_memo_caches(self):
        time_algebra, probability_algebra = numeric_algebras()
        engine = CompiledSuccessorEngine(
            sliding_window_net(2, loss_probability=Fraction(1, 10)),
            time_algebra,
            probability_algebra,
        )
        compiled = engine.compiled
        # Populate every memo the timed construction maintains.
        state = engine.initial_state()
        for edge in engine.successors(state):
            engine.successors(edge.target)
        assert compiled._enabled_cache and compiled._choice_cache
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._enabled_cache == {}
        assert clone._choice_cache == {}
        assert clone._advance_cache == {}
        # ... while the structural and algebra columns survive.
        assert clone.transition_names == compiled.transition_names
        assert clone.enabling_value == compiled.enabling_value
        assert clone.firing_value == compiled.firing_value
        assert clone.group_of == compiled.group_of


class TestInsufficientConstraints:
    def test_unordered_timers_raise_typed(self):
        # Two concurrent symbolic timers with no ordering constraint: both
        # engines must fail with the comparator's typed error.
        builder = NetBuilder("unordered-timers")
        builder.place("p1", "timer 1 armed", tokens=1)
        builder.place("p2", "timer 2 armed", tokens=1)
        builder.transition("t1", inputs=["p1"], outputs=[], firing_time=time_symbol("A"))
        builder.transition("t2", inputs=["p2"], outputs=[], firing_time=time_symbol("B"))
        net = builder.build()
        for engine in ("compiled", "reference"):
            with pytest.raises(InsufficientConstraintsError):
                symbolic_timed_reachability_graph(net, (), engine=engine)


class TestCoverabilityParentChain:
    """The parent-index chain must reproduce the ancestor-tuple semantics."""

    def test_deep_graph_matches_reference(self):
        # go-back-N serializes sends, so its coverability exploration is deep
        # relative to its width — the shape the O(n·depth) ancestor tuples
        # were worst at.
        net = go_back_n_net(3, loss_probability=Fraction(1, 10))
        compiled = coverability_graph(net, engine="compiled")
        reference = coverability_graph(net, engine="reference")
        assert [n.vector for n in compiled.nodes] == [n.vector for n in reference.nodes]
        assert compiled.edges == reference.edges

    def test_unbounded_net_still_accelerates(self):
        compiled = coverability_graph(simple_protocol_net(), engine="compiled")
        reference = coverability_graph(simple_protocol_net(), engine="reference")
        assert not compiled.is_bounded()
        assert compiled.unbounded_places() == reference.unbounded_places()
        assert [n.vector for n in compiled.nodes] == [n.vector for n in reference.nodes]


class TestBranchProbabilityCache:
    """The cross-construction cache keyed on conflict-set frequency tuples."""

    def setup_method(self):
        clear_branch_caches()

    def teardown_method(self):
        clear_branch_caches()

    def test_repeated_numeric_builds_hit_the_cache(self):
        build = lambda: timed_reachability_graph(
            sliding_window_net(2, loss_probability=Fraction(1, 10))
        )
        first = build()
        after_first = branch_cache_stats()["numeric"]
        second = build()
        after_second = branch_cache_stats()["numeric"]
        # The window slots share frequency tuples, so even the first build
        # hits; the second build derives nothing new.
        assert after_second["size"] == after_first["size"]
        assert after_second["hits"] > after_first["hits"]
        # Sharing the derivation must not change the graph.
        assert [e.probability for e in second.edges] == [e.probability for e in first.edges]

    def test_repeated_symbolic_builds_share_ratfunc_quotients(self):
        net, constraints, _symbols = simple_protocol_symbolic()
        first = symbolic_timed_reachability_graph(net, constraints)
        after_first = branch_cache_stats()["symbolic"]
        assert after_first["size"] > 0
        net2, constraints2, _symbols2 = simple_protocol_symbolic()
        second = symbolic_timed_reachability_graph(net2, constraints2)
        after_second = branch_cache_stats()["symbolic"]
        assert after_second["size"] == after_first["size"]
        assert after_second["hits"] > after_first["hits"]
        assert [e.probability for e in second.edges] == [e.probability for e in first.edges]

    def test_clear_resets_counters(self):
        timed_reachability_graph(sliding_window_net(2, loss_probability=Fraction(1, 10)))
        clear_branch_caches()
        stats = branch_cache_stats()
        for flavour in ("numeric", "symbolic"):
            assert stats[flavour]["size"] == 0
            assert stats[flavour]["hits"] == 0
            assert stats[flavour]["misses"] == 0
