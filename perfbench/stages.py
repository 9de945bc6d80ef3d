"""One analysis request per stage, run untraced (through the facade) or traced.

``facade`` runs a performance request the way a user does: one
``AnalysisSession`` call.  ``layered`` runs a request of any stage by
calling the layer functions the facade reaches one by one, each inside a
span, on the same inputs and producing the same artifacts.  Both return
``(artifact, summary)``; the summary holds what the oracle checks and the
counts the traced run reports.
"""

from __future__ import annotations

import pickle

from repro.analysis.codec import decode_timed_graph, dump_with_graph, encode_timed_graph
from repro.engine import query as queries
from repro.engine.tables import NetTables
from repro.performance import PerformanceMetrics
from repro.petri.fingerprint import constraints_digest, net_cache_key
from repro.petri.untimed import reachability_graph as untimed_graph
from repro.reachability import (
    decision_graph,
    symbolic_timed_reachability_graph,
    timed_reachability_graph,
)
from repro.service.jobs import STAGE_KEYS, stage_cache_params
from repro.stochastic import GSPNAnalysis


def session_key(kind, params, constraints=None):
    """The ``AnalysisSession`` stage and cache parameters of a request,
    as the analysis service computes them for its jobs."""
    if kind in ("deadlock", "bound", "reachable"):
        stage, params = "query", dict(params, kind=kind)
    else:
        stage = kind
    cache = stage_cache_params(stage, params)
    if constraints is not None:
        cache["constraints"] = constraints_digest(constraints)
    return STAGE_KEYS[stage], cache


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------


def performance_summary(states, anchors, cycle_time, throughput):
    return {"states": states, "decision_nodes": anchors, "cycle_time": cycle_time,
            "throughput": throughput}


def query_summary(result):
    return {"found": result.found, "states_explored": result.states_explored,
            "witness_depth": result.witness_depth}


# ---------------------------------------------------------------------------
# Untraced: the facade
# ---------------------------------------------------------------------------


def facade(session, net, accept):
    """Run one performance request through ``session``; returns ``(artifact, summary)``."""
    analysis = session.performance(net)
    summary = performance_summary(
        analysis.state_count(), len(analysis.decision.anchors),
        analysis.cycle_time().value,
        {name: analysis.throughput(name).value for name in accept},
    )
    return analysis, summary


# ---------------------------------------------------------------------------
# Traced: the same layers, one call at a time
# ---------------------------------------------------------------------------


class Counts:
    """Work counts gathered from the traced calls (summed over a run)."""

    def __init__(self):
        self.values = {}

    def add(self, name, amount):
        self.values[name] = self.values.get(name, 0) + amount


def _build_stats(counts, graph, prefix):
    stats = graph.build_stats()
    if stats is not None:
        counts.add(prefix + "dedup_hits", stats.dedup_hits)
        counts.add(prefix + "interned", stats.states)
        counts.add(prefix + "expanded", stats.expanded)
        counts.add(prefix + "batches", stats.batches)


def timed_graph(tracer, op, counts, net, constraints=None):
    with tracer.span("engine.tables", op):
        NetTables.of(net)
    with tracer.span("reachability.timed_build", op):
        if constraints is None:
            graph = timed_reachability_graph(net, max_states=100_000)
        else:
            graph = symbolic_timed_reachability_graph(net, constraints, max_states=100_000)
    counts.add("timed_states", graph.state_count)
    _build_stats(counts, graph, "timed_")
    with tracer.span("analysis.codec_encode", op):
        blob = encode_timed_graph(graph)
    counts.add("bytes_encoded", len(blob))
    return graph, blob


def _encode(tracer, op, counts, payload):
    with tracer.span("analysis.codec_encode", op):
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    counts.add("bytes_encoded", len(blob))


def layered(tracer, op, counts, kind, net, params, accept, constraints=None, decode=False):
    """Run one request layer by layer inside spans; returns ``(artifact, summary)``.

    With ``decode`` the encoded timed graph is also decoded, the work a
    disk-tier hit of the service does.
    """
    with tracer.span("petri.fingerprint", op):
        net_cache_key(net)
    if kind in ("performance", "decision"):
        graph, blob = timed_graph(tracer, op, counts, net, constraints)
        if decode:
            with tracer.span("analysis.codec_decode", op):
                decode_timed_graph(blob, net)
        with tracer.span("reachability.decision", op):
            collapse = decision_graph(graph)
        counts.add("decision_nodes", len(collapse.anchors))
        if kind == "decision":
            with tracer.span("analysis.codec_encode", op):
                graph_blob, artifact_blob = dump_with_graph(collapse, graph)
            counts.add("bytes_encoded", len(graph_blob) + len(artifact_blob))
            return collapse, {"states": graph.state_count,
                              "decision_nodes": len(collapse.anchors),
                              "decision_edges": len(collapse.edges)}
        with tracer.span("performance.metrics", op):
            metrics = PerformanceMetrics(collapse)
        with tracer.span("performance.readout", op):
            cycle_time = metrics.cycle_time()
            throughput = {name: metrics.throughput(name) for name in accept}
        with tracer.span("analysis.codec_encode", op):
            graph_blob, artifact_blob = dump_with_graph(metrics, graph)
        counts.add("bytes_encoded", len(graph_blob) + len(artifact_blob))
        summary = performance_summary(graph.state_count, len(collapse.anchors),
                                      cycle_time, throughput)
        return metrics, summary
    with tracer.span("engine.tables", op):
        NetTables.of(net)
    if kind == "untimed":
        with tracer.span("engine.untimed_build", op):
            graph = untimed_graph(net, max_states=100_000)
        counts.add("untimed_states", graph.state_count)
        _build_stats(counts, graph, "untimed_")
        _encode(tracer, op, counts, graph)
        return graph, {"states": graph.state_count, "edges": graph.edge_count}
    if kind == "gspn":
        with tracer.span("stochastic.gspn", op):
            result = GSPNAnalysis(net, max_states=50_000).solve()
        counts.add("tangible_states", len(result.tangible_markings))
        _encode(tracer, op, counts, result)
        return result, {"tangible_states": len(result.tangible_markings),
                        "throughput": {name: result.throughput[name] for name in accept}}
    with tracer.span("engine.query", op):
        if kind == "deadlock":
            result = queries.find_deadlock(net, max_states=100_000)
        elif kind == "bound":
            result = queries.bound_check(net, params["place"], int(params["k"]),
                                         max_states=100_000)
        else:
            result = queries.is_reachable(net, params["target"], max_states=100_000)
    counts.add("query_explored", result.states_explored)
    _encode(tracer, op, counts, result)
    return result, query_summary(result)


def unexpected_build():
    raise RuntimeError("a cache hit was expected")


def traced_hit(tracer, op, session, kind, net, params, artifact, constraints=None):
    """Store ``artifact`` in ``session`` and time a memory-tier fetch of it.

    Returns the tier the fetch was served from.
    """
    stage, cache = session_key(kind, params, constraints)
    session.fetch_tiered(net, stage, cache, lambda: artifact, encode=lambda _artifact: b"")
    with tracer.span("analysis.fetch_hit", op):
        _artifact, tier = session.fetch_tiered(
            net, *session_key(kind, params, constraints), unexpected_build
        )
    return tier
