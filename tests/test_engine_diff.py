"""Differential smoke gate: every compiled builder vs its other engines.

Runs every bundled workload (numeric and symbolic) through all four graph
families — timed reachability, untimed reachability, Karp–Miller
coverability and the GSPN marking graph — with ``engine="compiled"`` and
``engine="reference"`` and asserts the graphs are bit-identical via the
shared harness in :mod:`engine_diff`.  The untimed and GSPN families also
run through the third engine value, ``engine="batched"`` (the numpy
level-batched kernel), held to the same standard.  Workloads that are
unbounded under a semantics must fail identically through every engine,
every state cap must fire at the same count through every engine, and
no graph may depend on the interpreter's string-hash seed.

CI runs this module (plus the randomized companion
``test_engine_random.py``) as a named differential gate.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from engine_diff import (
    NUMERIC_WORKLOADS,
    TIMED_WORKLOAD_IDS,
    TIMED_WORKLOADS,
    UNBOUNDED_UNTIMED,
    WORKLOAD_IDS,
    assert_coverability_graphs_identical,
    assert_gspn_explorations_identical,
    assert_gspn_results_identical,
    assert_timed_graphs_identical,
    assert_untimed_graphs_identical,
    build_coverability_pair,
    build_gspn_batched,
    build_gspn_pair,
    build_symbolic_timed_pair,
    build_timed_pair,
    build_untimed_batched,
    build_untimed_pair,
    symbolic_workload,
)
from repro.exceptions import UnboundedNetError
from repro.petri import coverability_graph, reachability_graph
from repro.protocols import selective_repeat_net, simple_protocol_net, sliding_window_net
from repro.reachability import symbolic_timed_reachability_graph, timed_reachability_graph
from repro.stochastic import GSPNAnalysis

#: Per-workload GSPN settings: the timeout-racing protocol nets are
#: unbounded under exponential delays without truncation.
GSPN_SETTINGS = {
    "paper-protocol": {"place_capacity": 2},
    "alternating-bit": None,  # unbounded even truncated at 2 tokens/place
    "pipelined-stop-and-wait": {"place_capacity": 2, "solve": False},  # big CTMC; diff the exploration
}


class TestTimedDifferential:
    """The timed construction, re-checked here so the gate covers all four families."""

    @pytest.mark.parametrize("label,constructor", TIMED_WORKLOADS, ids=TIMED_WORKLOAD_IDS)
    def test_workload(self, label, constructor):
        compiled, reference = build_timed_pair(constructor())
        assert_timed_graphs_identical(compiled, reference)

    def test_symbolic_paper_net(self):
        net, constraints = symbolic_workload()
        compiled, reference = build_symbolic_timed_pair(net, constraints)
        assert_timed_graphs_identical(compiled, reference)
        assert compiled.constraint_usage() == reference.constraint_usage()

    def test_timed_max_states_fails_identically(self):
        net = simple_protocol_net()
        for engine in ("reference", "compiled"):
            with pytest.raises(UnboundedNetError, match="timed reachability graph exceeded 5 "):
                timed_reachability_graph(net, max_states=5, engine=engine)


class TestUntimedReachabilityDifferential:
    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_workload(self, label, constructor):
        net = constructor()
        if label in UNBOUNDED_UNTIMED:
            for engine in ("compiled", "reference"):
                with pytest.raises(UnboundedNetError, match="untimed reachability exceeded"):
                    reachability_graph(net, max_states=500, engine=engine)
        else:
            compiled, reference = build_untimed_pair(net, max_states=30_000)
            assert_untimed_graphs_identical(compiled, reference)

    def test_symbolic_net_fails_identically(self):
        # The untimed rule ignores timing, so the symbolic paper net runs
        # through both engines — and is unbounded exactly like the numeric one.
        net, _constraints = symbolic_workload()
        for engine in ("compiled", "reference"):
            with pytest.raises(UnboundedNetError, match="untimed reachability exceeded"):
                reachability_graph(net, max_states=500, engine=engine)

    def test_compiled_is_the_default_engine(self):
        net = sliding_window_net(2)
        default = reachability_graph(net)
        explicit = reachability_graph(net, engine="compiled")
        assert_untimed_graphs_identical(default, explicit)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            reachability_graph(sliding_window_net(2), engine="turbo")


class TestCoverabilityDifferential:
    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_workload(self, label, constructor):
        compiled, reference = build_coverability_pair(constructor(), max_nodes=20_000)
        assert_coverability_graphs_identical(compiled, reference)
        # The unbounded untimed workloads are exactly the ones Karp–Miller
        # must flag with an ω component.
        assert compiled.is_bounded() == (label not in UNBOUNDED_UNTIMED)

    def test_symbolic_net(self):
        net, _constraints = symbolic_workload()
        compiled, reference = build_coverability_pair(net)
        assert_coverability_graphs_identical(compiled, reference)
        assert not compiled.is_bounded()

    def test_max_nodes_fails_identically(self):
        net = simple_protocol_net()
        for engine in ("compiled", "reference"):
            with pytest.raises(UnboundedNetError, match="coverability construction exceeded"):
                coverability_graph(net, max_nodes=5, engine=engine)

    def test_compiled_is_the_default_engine(self):
        default = coverability_graph(simple_protocol_net())
        explicit = coverability_graph(simple_protocol_net(), engine="compiled")
        assert_coverability_graphs_identical(default, explicit)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            coverability_graph(simple_protocol_net(), engine="turbo")


class TestEngineValidation:
    """``engine="parallel"`` is an unknown engine for every builder, and
    ``workers=`` an unknown keyword."""

    BUILDERS = {
        "untimed": lambda engine: reachability_graph(sliding_window_net(2), engine=engine),
        "timed": lambda engine: timed_reachability_graph(simple_protocol_net(), engine=engine),
        "symbolic-timed": lambda engine: symbolic_timed_reachability_graph(
            *symbolic_workload(), engine=engine
        ),
        "gspn": lambda engine: GSPNAnalysis(
            simple_protocol_net(), place_capacity=2, engine=engine
        ),
    }

    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_parallel_engine_rejected(self, builder):
        with pytest.raises(ValueError, match="unknown engine 'parallel'"):
            self.BUILDERS[builder]("parallel")

    def test_coverability_rejects_parallel(self):
        with pytest.raises(ValueError, match="unknown engine"):
            coverability_graph(simple_protocol_net(), engine="parallel")

    def test_workers_is_an_unknown_keyword(self):
        with pytest.raises(TypeError, match="workers"):
            reachability_graph(sliding_window_net(2), workers=2)
        with pytest.raises(TypeError, match="workers"):
            timed_reachability_graph(simple_protocol_net(), workers=2)
        with pytest.raises(TypeError, match="workers"):
            GSPNAnalysis(simple_protocol_net(), place_capacity=2, workers=2)


class TestBatchedDifferential:
    """The numpy level-batched kernel vs the reference engine.

    The batched kernel expands whole frontier levels through one
    ``(frontier × transitions)`` enabledness mask and deduplicates
    successors with packed integer keys; the FIFO renumbering of its
    discoveries must still match the one-marking-at-a-time loops bit for
    bit — including *where* the ``max_states`` valve fires on unbounded
    workloads (the token-growth path that forces key repacks).
    """

    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_untimed_workload(self, label, constructor):
        net = constructor()
        if label in UNBOUNDED_UNTIMED:
            with pytest.raises(UnboundedNetError, match="untimed reachability exceeded"):
                build_untimed_batched(net, max_states=500)
        else:
            batched = build_untimed_batched(net, max_states=30_000)
            _compiled, reference = build_untimed_pair(net, max_states=30_000)
            assert_untimed_graphs_identical(batched, reference)

    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_gspn_workload(self, label, constructor):
        net = constructor()
        settings = GSPN_SETTINGS.get(label, {})
        if settings is None:
            with pytest.raises(UnboundedNetError, match="GSPN marking graph exceeded"):
                build_gspn_batched(net, max_states=500, place_capacity=2)._explore()
            return
        settings = dict(settings)
        solve = settings.pop("solve", True)
        batched = build_gspn_batched(net, **settings)
        reference = GSPNAnalysis(net, engine="reference", **settings)
        assert_gspn_explorations_identical(batched, reference)
        if solve:
            assert_gspn_results_identical(batched.solve(), reference.solve())

    def test_symbolic_net_fails_identically(self):
        # The untimed rule ignores timing, so the symbolic paper net runs
        # through the batched kernel too — and is unbounded just like the
        # numeric one.
        net, _constraints = symbolic_workload()
        with pytest.raises(UnboundedNetError, match="untimed reachability exceeded"):
            build_untimed_batched(net, max_states=500)

    def test_build_stats_surface(self):
        net = sliding_window_net(2)
        batched = build_untimed_batched(net)
        compiled, _reference = build_untimed_pair(net)
        batched_stats = batched.build_stats()
        compiled_stats = compiled.build_stats()
        assert batched_stats.engine == "batched"
        assert compiled_stats.engine == "compiled"
        # Same graph, same totals — only the batching shape differs.
        assert batched_stats.states == compiled_stats.states == batched.state_count
        assert batched_stats.edges == compiled_stats.edges == batched.edge_count
        assert batched_stats.dedup_hits == compiled_stats.dedup_hits
        assert batched_stats.batches < batched_stats.states
        assert batched_stats.mean_batch_width > 1.0
        assert compiled_stats.mean_batch_width == 1.0
        assert batched_stats.states_per_second > 0
        assert set(batched_stats.as_dict()) == set(compiled_stats.as_dict())
        # The reference engine records no stats.
        assert reachability_graph(net, engine="reference").build_stats() is None

    def test_timed_builders_reject_batched(self):
        with pytest.raises(ValueError, match="not supported by this builder"):
            timed_reachability_graph(simple_protocol_net(), engine="batched")
        net, constraints = symbolic_workload()
        with pytest.raises(ValueError, match="not supported by this builder"):
            symbolic_timed_reachability_graph(net, constraints, engine="batched")

    def test_coverability_rejects_batched(self):
        with pytest.raises(ValueError, match="not supported by this builder"):
            coverability_graph(simple_protocol_net(), engine="batched")


class TestGSPNDifferential:
    @pytest.mark.parametrize("label,constructor", NUMERIC_WORKLOADS, ids=WORKLOAD_IDS)
    def test_workload(self, label, constructor):
        net = constructor()
        settings = GSPN_SETTINGS.get(label, {})
        if settings is None:
            for engine in ("compiled", "reference"):
                with pytest.raises(UnboundedNetError, match="GSPN marking graph exceeded"):
                    GSPNAnalysis(net, max_states=500, place_capacity=2, engine=engine)._explore()
            return
        settings = dict(settings)
        solve = settings.pop("solve", True)
        compiled, reference = build_gspn_pair(net, **settings)
        assert_gspn_explorations_identical(compiled, reference)
        if solve:
            assert_gspn_results_identical(compiled.solve(), reference.solve())

    def test_compiled_is_the_default_engine(self):
        default = GSPNAnalysis(simple_protocol_net(), place_capacity=2)
        explicit = GSPNAnalysis(simple_protocol_net(), place_capacity=2, engine="compiled")
        assert default.engine == "compiled"
        assert_gspn_explorations_identical(default, explicit)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            GSPNAnalysis(simple_protocol_net(), engine="turbo")

    def test_explicit_rates_respected_by_both_engines(self):
        net = simple_protocol_net()
        compiled, reference = build_gspn_pair(
            net, place_capacity=2, rates={"t2": 0.5}
        )
        assert_gspn_explorations_identical(compiled, reference)
        assert_gspn_results_identical(compiled.solve(), reference.solve())


#: Engines of each graph family.
UNTIMED_ENGINES = ("compiled", "batched", "reference")
TIMED_ENGINES = ("compiled", "reference")

BOUNDED_UNTIMED = [
    (label, constructor)
    for label, constructor in NUMERIC_WORKLOADS
    if label not in UNBOUNDED_UNTIMED
]

BOUNDED_GSPN = [
    (label, constructor)
    for label, constructor in NUMERIC_WORKLOADS
    if GSPN_SETTINGS.get(label, {}) is not None
]

#: The alternating-bit coverability graph (4,142 nodes) is left out of the
#: cap check only for its cost; ``TestCoverabilityDifferential`` builds it
#: in full through both engines.
CAPPED_COVERABILITY = [
    (label, constructor)
    for label, constructor in NUMERIC_WORKLOADS
    if label != "alternating-bit"
]


def timed_cap_message(cap):
    return (
        f"timed reachability graph exceeded {cap} states; the net may be "
        "unbounded under the timed semantics or the bound is too small"
    )


def cap_error(build, cap):
    """The message a build capped at ``cap`` fails with."""
    with pytest.raises(UnboundedNetError) as excinfo:
        build(cap)
    return str(excinfo.value)


class TestStateCapBoundary:
    """``max_states``/``max_nodes`` is inclusive and engine-independent.

    A cap equal to the full graph's size builds the same graph as an
    uncapped build; one less fails with the same message through every
    engine, so no engine stops a state early or admits one too many.
    """

    @pytest.mark.parametrize(
        "label,constructor", BOUNDED_UNTIMED, ids=[label for label, _ in BOUNDED_UNTIMED]
    )
    def test_untimed(self, label, constructor):
        net = constructor()
        full = reachability_graph(net, engine="reference")
        size = full.state_count
        for engine in UNTIMED_ENGINES:
            capped = reachability_graph(net, engine=engine, max_states=size)
            assert_untimed_graphs_identical(capped, full)
        messages = {
            cap_error(lambda cap: reachability_graph(net, engine=engine, max_states=cap), size - 1)
            for engine in UNTIMED_ENGINES
        }
        assert messages == {
            f"untimed reachability exceeded {size - 1} markings; the net "
            "is unbounded or the bound is too small"
        }

    @pytest.mark.parametrize(
        "label,constructor", BOUNDED_GSPN, ids=[label for label, _ in BOUNDED_GSPN]
    )
    def test_gspn(self, label, constructor):
        net = constructor()
        settings = dict(GSPN_SETTINGS.get(label, {}))
        settings.pop("solve", None)
        full = GSPNAnalysis(net, engine="reference", **settings)
        size = len(full._explore()[0])
        for engine in UNTIMED_ENGINES:
            capped = GSPNAnalysis(net, engine=engine, max_states=size, **settings)
            assert_gspn_explorations_identical(capped, full)
        messages = {
            cap_error(
                lambda cap: GSPNAnalysis(
                    net, engine=engine, max_states=cap, **settings
                )._explore(),
                size - 1,
            )
            for engine in UNTIMED_ENGINES
        }
        assert messages == {f"GSPN marking graph exceeded {size - 1} markings"}

    @pytest.mark.parametrize("label,constructor", TIMED_WORKLOADS, ids=TIMED_WORKLOAD_IDS)
    def test_timed(self, label, constructor):
        net = constructor()
        full = timed_reachability_graph(net, engine="reference")
        size = full.state_count
        for engine in TIMED_ENGINES:
            capped = timed_reachability_graph(net, engine=engine, max_states=size)
            assert_timed_graphs_identical(capped, full)
        messages = {
            cap_error(
                lambda cap: timed_reachability_graph(net, engine=engine, max_states=cap),
                size - 1,
            )
            for engine in TIMED_ENGINES
        }
        assert messages == {timed_cap_message(size - 1)}

    def test_symbolic_timed(self):
        net, constraints = symbolic_workload()
        full = symbolic_timed_reachability_graph(net, constraints, engine="reference")
        size = full.state_count
        for engine in TIMED_ENGINES:
            capped = symbolic_timed_reachability_graph(
                net, constraints, engine=engine, max_states=size
            )
            assert_timed_graphs_identical(capped, full)
        messages = {
            cap_error(
                lambda cap: symbolic_timed_reachability_graph(
                    net, constraints, engine=engine, max_states=cap
                ),
                size - 1,
            )
            for engine in TIMED_ENGINES
        }
        assert messages == {timed_cap_message(size - 1)}

    @pytest.mark.parametrize(
        "label,constructor",
        CAPPED_COVERABILITY,
        ids=[label for label, _ in CAPPED_COVERABILITY],
    )
    def test_coverability(self, label, constructor):
        net = constructor()
        full = coverability_graph(net, engine="reference", max_nodes=20_000)
        size = full.node_count
        for engine in TIMED_ENGINES:
            capped = coverability_graph(net, engine=engine, max_nodes=size)
            assert_coverability_graphs_identical(capped, full)
        messages = {
            cap_error(lambda cap: coverability_graph(net, engine=engine, max_nodes=cap), size - 1)
            for engine in TIMED_ENGINES
        }
        assert messages == {f"coverability construction exceeded {size - 1} nodes"}


def _seed_check_net():
    # Several window slots: their transitions and places are named alike,
    # so any order taken from a set or dict of names would show here.
    return selective_repeat_net(2, loss_probability=Fraction(1, 10))


def _gspn_payload(engine):
    analysis = GSPNAnalysis(_seed_check_net(), engine=engine)
    result = analysis.solve()
    return (
        analysis._explore(),
        result.stationary.tobytes(),
        sorted(result.throughput.items()),
    )


#: One build per graph family and engine, reduced to everything observable
#: in a form whose text does not itself depend on the hash seed.
SEED_CHECK_BUILDS = {
    "untimed-compiled": lambda: _untimed_payload("compiled"),
    "untimed-batched": lambda: _untimed_payload("batched"),
    "gspn-compiled": lambda: _gspn_payload("compiled"),
    "gspn-batched": lambda: _gspn_payload("batched"),
    "coverability-compiled": lambda: _coverability_payload(),
    "timed-compiled": lambda: _timed_payload(
        timed_reachability_graph(_seed_check_net(), engine="compiled")
    ),
    "symbolic-timed-compiled": lambda: _timed_payload(
        symbolic_timed_reachability_graph(*symbolic_workload(), engine="compiled")
    ),
}


def _untimed_payload(engine):
    graph = reachability_graph(_seed_check_net(), engine=engine)
    return graph.markings, graph.edges


def _coverability_payload():
    graph = coverability_graph(_seed_check_net(), engine="compiled")
    return [node.vector for node in graph.nodes], graph.edges


def _timed_payload(graph):
    return graph.initial_index, graph.state_table(), graph.edge_table()


def seed_check_digest(family):
    """SHA-256 of one ``SEED_CHECK_BUILDS`` payload."""
    return hashlib.sha256(repr(SEED_CHECK_BUILDS[family]()).encode("utf-8")).hexdigest()


def seed_check_digests():
    return {family: seed_check_digest(family) for family in SEED_CHECK_BUILDS}


@pytest.fixture(scope="module")
def digests_by_seed():
    """The digests computed in fresh interpreters under two hash seeds."""
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.join(tests_dir, os.pardir, "src")
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [tests_dir, src_dir, environment.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    script = "import json, test_engine_diff; print(json.dumps(test_engine_diff.seed_check_digests()))"
    digests = {}
    for seed in ("0", "1"):
        environment["PYTHONHASHSEED"] = seed
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=environment,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        digests[seed] = json.loads(completed.stdout)
    return digests


class TestHashSeedIndependence:
    """Graphs do not depend on the interpreter's string-hash seed.

    Every engine numbers states in FIFO discovery order and emits edges in
    transition-table order; an order leaking from a set or dict keyed by
    place or transition names would change from one interpreter to the
    next.  Each family is built here and in two fresh interpreters
    (``PYTHONHASHSEED`` 0 and 1) and must digest identically.
    """

    @pytest.mark.timeout(600)
    @pytest.mark.parametrize("family", sorted(SEED_CHECK_BUILDS))
    def test_family(self, family, digests_by_seed):
        here = seed_check_digest(family)
        assert digests_by_seed["0"][family] == here
        assert digests_by_seed["1"][family] == here
