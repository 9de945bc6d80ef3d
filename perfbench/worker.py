"""The benchmark's worker process: set up one workload, then run it.

``run.py`` starts this file and times it from process start until it
prints ``READY`` (the set-up: imports, input generation and, for the
service mix, the server boot up to the first healthy ``/healthz``).  With
``--setup-only`` the worker stops there; otherwise it runs the timed phase
and prints one JSON line with its counts and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Fixed tail percentile of each workload, with at least ten samples beyond
#: it in a run.  Throughput-cold's p81 lies amid the samples of its three
#: window-3 symbolic models, which cost about the same, whatever the number
#: of rounds.
TAIL_PERCENTILE = {
    "throughput-cold": 81,
    "service-mix": 90,
}


def percentile(values, pct):
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(pid="self"):
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


class Tally:
    """Outcomes of the ops of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.latencies = []
        self.hit_latencies = []
        self.build_latencies = []
        self.states = 0
        self.state_seconds = 0.0
        self.problems = []

    def fail(self, label, problem, wrong):
        self.failed += 1
        self.wrong += wrong
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {problem}")

    def end_to_end(self, workload, seconds):
        """The end-to-end metrics; ``seconds`` is the time ``ops_per_s`` divides."""
        if not self.latencies or not self.hit_latencies or not self.build_latencies:
            raise RuntimeError("the run completed no op of some kind")
        pct = TAIL_PERCENTILE[workload]
        beyond = sum(1 for value in self.latencies if value > percentile(self.latencies, pct))
        print(f"latency_tail_s is p{pct} of {len(self.latencies)} ops, "
              f"{beyond} beyond it", file=sys.stderr)
        return {
            "ops_per_s": len(self.latencies) / seconds,
            "latency_p50_s": statistics.median(self.latencies),
            "latency_tail_s": percentile(self.latencies, pct),
            "states_per_s": self.states / self.state_seconds,
            "hit_latency_p50_s": statistics.median(self.hit_latencies),
            "build_latency_p50_s": statistics.median(self.build_latencies),
        }


#: Fewest rounds of a run, so that ten samples lie beyond its tail percentile.
MIN_ROUNDS = 3
#: An in-process hit sample is the median of this many repeats of the
#: request; a single sub-millisecond repeat right after a large build
#: mostly times the caches the build evicted.
HIT_REPEATS = 3


def run_rounds(seconds, grid, rng, do_op, trace):
    """Whole seeded rounds of ``grid`` until ``seconds`` have passed.

    Every round visits the whole grid, so the mix of ops in a run does not
    depend on the seed.  A run makes at least ``MIN_ROUNDS`` rounds; a
    traced run alternates untraced and traced rounds, starting untraced.
    Returns the number of rounds.
    """
    from grids import round_order

    start = time.perf_counter()
    rounds = 0
    while True:
        for item in round_order(grid, rng):
            do_op(item, trace and rounds % 2 == 1)
        rounds += 1
        if time.perf_counter() - start >= seconds and rounds >= MIN_ROUNDS:
            return rounds


def cache_counters():
    """Hit and miss counters of the process-wide branch and intern caches."""
    from repro.reachability.algebra import branch_cache_stats
    from repro.symbolic.interning import intern_stats

    values = {}
    for prefix, tables in (("branch", branch_cache_stats()), ("intern", intern_stats())):
        values[prefix + "_hits"] = sum(table["hits"] for table in tables.values())
        values[prefix + "_misses"] = sum(table["misses"] for table in tables.values())
    return values


def layer_metrics(tracer, ops, counts, rounds, deltas):
    """Per-layer metrics from spans and counts.

    Times are self time per traced op; counts are per traced round (each
    round covers the whole grid, so they repeat exactly); ratios come from
    the counts and from ``deltas`` of :func:`cache_counters`.
    """
    self_times = tracer.self_times()

    def per_op(name):
        return self_times.get(name, 0.0) / ops

    def per_round(name):
        return counts.get(name, 0) / rounds

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def hit_ratio(prefix):
        hits = deltas.get(prefix + "_hits", 0)
        return ratio(hits, hits + deltas.get(prefix + "_misses", 0))

    dedup_hits = counts.get("timed_dedup_hits", 0)
    return {
        "reachability.timed_build_s": per_op("reachability.timed_build"),
        "reachability.timed_states": per_round("timed_states"),
        "reachability.dedup_hit_rate": ratio(
            dedup_hits, dedup_hits + counts.get("timed_interned", 0)),
        "reachability.decision_s": per_op("reachability.decision"),
        "reachability.decision_nodes": per_round("decision_nodes"),
        "reachability.branch_cache_hit_ratio": hit_ratio("branch"),
        "engine.tables_s": per_op("engine.tables"),
        "engine.untimed_build_s": per_op("engine.untimed_build"),
        "engine.untimed_states": per_round("untimed_states"),
        "engine.mean_batch_width": ratio(counts.get("untimed_expanded", 0),
                                         counts.get("untimed_batches", 0)),
        "engine.query_s": per_op("engine.query"),
        "engine.query_explored_ratio": ratio(counts.get("query_explored", 0),
                                             counts.get("query_full", 0)),
        "performance.metrics_s": per_op("performance.metrics"),
        "performance.readout_s": per_op("performance.readout"),
        # Inclusive: its children are the reachability, decision, metrics
        # and readout spans of the derivation.
        "symbolic.derive_s": tracer.total_times().get("symbolic.derive", 0.0) / ops,
        "symbolic.intern_hit_ratio": hit_ratio("intern"),
        "symbolic.eval_s": per_op("symbolic.eval"),
        "stochastic.gspn_s": per_op("stochastic.gspn"),
        "stochastic.tangible_states": per_round("tangible_states"),
        "petri.parse_s": per_op("petri.parse"),
        "petri.fingerprint_s": per_op("petri.fingerprint"),
        "analysis.fetch_hit_s": per_op("analysis.fetch_hit"),
        "analysis.codec_encode_s": per_op("analysis.codec_encode"),
        "analysis.codec_decode_s": per_op("analysis.codec_decode"),
        "analysis.hit_ratio": ratio(counts.get("fetch_hits", 0), counts.get("fetches", 0)),
        "analysis.bytes_stored": per_round("bytes_encoded"),
    }


# ---------------------------------------------------------------------------
# The in-process workloads
# ---------------------------------------------------------------------------


class InProcess:
    """Machinery of a workload driven in this process."""

    def __init__(self, name, seed, trace):
        import oracle
        from stages import Counts
        from tracing import Tracer

        self.name = name
        self.rng = random.Random(seed)
        self.trace = trace
        self.expected = oracle.load()[name]
        self.check = oracle.check
        self.tally = Tally()
        self.tracer = Tracer()
        self.counts = Counts()
        self.op_id = 0
        # Summed op latency and op count of untraced and traced rounds.
        self.round_seconds = {True: 0.0, False: 0.0}
        self.round_ops = {True: 0, False: 0}
        self.counter_deltas = {}
        # The current op's ``(latency, states)`` and hit sample, and the
        # calibration slices around them: the last one before the op and
        # the one between the op and its hits.
        self.op_sample = None
        self.hit_sample = None
        self.last_slice = None
        self.mid_slice = None

    def close(self):
        pass

    def timed(self, label, traced, fn):
        """Run one op; returns its result or ``None`` when it failed."""
        self.tally.attempted += 1
        self.op_id += 1
        # Start every op from the same collector state, so where the cyclic
        # collector runs does not depend on the ops before it.
        gc.collect()
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.span("op", self.op_id):
                    result = fn(self.op_id)
            else:
                result = fn(self.op_id)
        except Exception as error:  # noqa: BLE001 - any exception is a failed op
            self.tally.fail(label, f"{type(error).__name__}: {error}", wrong=0)
            return None
        latency = time.perf_counter() - start
        self.round_seconds[traced] += latency
        self.round_ops[traced] += 1
        return latency, result

    def record(self, label, latency, summary, expect, kind, states):
        problems = self.check(kind, expect, summary)
        if problems:
            self.tally.fail(label, "; ".join(problems), wrong=1)
            return False
        self.op_sample = (latency, states)
        return True

    def run(self, seconds):
        """The measured rounds.

        The rates divide by time spent in ops, leaving out the benchmark's
        own work between them (net generation, checks, cache probes,
        collector resets).  Every latency is in seconds at the reference
        speed (``calibration``): calibration slices before an op, between
        the op and its hits and after the hits scale both.
        """
        from calibration import scale, slice_seconds

        def op(item, traced):
            if traced:
                before = cache_counters()
            self.do_op(item, traced)
            if traced:
                after = cache_counters()
                for key, value in after.items():
                    self.counter_deltas[key] = self.counter_deltas.get(key, 0) + value - before[key]
            after = slice_seconds()
            if self.op_sample is not None and self.hit_sample is not None:
                latency, states = self.op_sample
                latency *= scale(self.last_slice, self.mid_slice)
                tally = self.tally
                tally.latencies.append(latency)
                tally.build_latencies.append(latency)
                tally.states += states
                tally.state_seconds += latency
                tally.hit_latencies.append(self.hit_sample * scale(self.mid_slice, after))
            self.op_sample = self.hit_sample = None
            self.last_slice = after

        self.last_slice = slice_seconds()
        rounds = run_rounds(seconds, self.grid, self.rng, op, self.trace)
        if self.trace:
            return self.layer_metrics(rounds // 2)
        metrics = self.tally.end_to_end(self.name, self.tally.state_seconds)
        metrics["peak_rss_mb"] = peak_rss_mb()
        return metrics

    def layer_metrics(self, traced_rounds):
        """The per-layer metrics of a traced run, with the tracing overhead."""
        ops = self.round_ops[True]
        metrics = layer_metrics(self.tracer, ops, self.counts.values, traced_rounds,
                                self.counter_deltas)
        untraced_mean = self.round_seconds[False] / self.round_ops[False]
        metrics["trace.overhead_ratio"] = (self.round_seconds[True] / ops) / untraced_mean - 1
        return metrics

    def hit_probe(self, label, session, net, accept, artifact, constraints, traced, op):
        """Repeat the request, readout included, on the session that just
        built it: memory hits, ``HIT_REPEATS`` of them."""
        from calibration import slice_seconds
        from stages import facade, traced_hit

        if traced:
            tier = traced_hit(self.tracer, op, session, "performance", net, {}, artifact,
                              constraints)
            self.counts.add("fetches", 2)
            self.counts.add("fetch_hits", tier == "memory")
            return
        self.mid_slice = slice_seconds()
        samples = []
        for _ in range(HIT_REPEATS):
            start = time.perf_counter()
            if constraints is None:
                again, _summary = facade(session, net, accept)
            else:
                again = session.performance(net, constraints)
                again.cycle_time()
                again.throughput(accept[0])
            samples.append(time.perf_counter() - start)
            if again is not artifact:
                self.tally.fail(label, "a repeated request was not served from the cache", wrong=1)
                return
        self.hit_sample = statistics.median(samples)


class ThroughputCold(InProcess):
    """The paper's end product from a fresh session per op: numeric cycle
    times and throughputs, and symbolic closed forms evaluated at K bindings."""

    def __init__(self, seed, trace):
        import grids

        super().__init__("throughput-cold", seed, trace)
        self.grid = grids.THROUGHPUT_GRID + grids.SYMBOLIC_GRID
        self.grids = grids

    def do_op(self, point, traced):
        if "bindings" in point:
            self.symbolic_request(point, traced)
        else:
            self.numeric_request(point, traced)

    def numeric_request(self, point, traced):
        from repro.analysis import AnalysisSession
        from stages import facade, layered

        label, accept = point["label"], point["accept"]
        net = self.grids.build_net(point)
        session = AnalysisSession()
        if traced:
            run = lambda op: layered(self.tracer, op, self.counts, "performance", net, {}, accept)  # noqa: E731
        else:
            run = lambda op: facade(session, net, accept)  # noqa: E731
        outcome = self.timed(label, traced, run)
        if outcome is None:
            return
        latency, (artifact, summary) = outcome
        if self.record(label, latency, summary, self.expected[label], "performance",
                       summary["states"]):
            self.hit_probe(label, session, net, accept, artifact, None, traced, self.op_id)

    def symbolic_request(self, point, traced):
        from repro.analysis import AnalysisSession
        from repro.performance import PerformanceExpression
        from stages import layered

        net, constraints, symbols = self.grids.build_symbolic(point)
        bindings = [self.grids.symbol_bindings(point, raw, symbols) for raw in point["bindings"]]
        accept = point["accept"][:1]
        session = AnalysisSession()

        def untraced(_op):
            analysis = session.performance(net, constraints)
            summary = {
                "cycle_time": analysis.cycle_time().value,
                "throughput": {accept[0]: analysis.throughput(accept[0]).value},
                "values": [analysis.evaluate_throughput(accept[0], b) for b in bindings],
            }
            return analysis, summary

        def traced_op(op):
            with self.tracer.span("symbolic.derive", op):
                metrics, summary = layered(self.tracer, op, self.counts, "performance", net,
                                           {}, accept, constraints=constraints)
            # As PerformanceAnalysis.evaluate_throughput does, per binding.
            with self.tracer.span("symbolic.eval", op):
                values = [
                    PerformanceExpression("throughput", metrics.throughput(accept[0])).evaluate(b)
                    for b in bindings
                ]
            summary.pop("states")
            summary.pop("decision_nodes")
            return metrics, dict(summary, values=values)

        outcome = self.timed(point["label"], traced, traced_op if traced else untraced)
        if outcome is None:
            return
        latency, (artifact, summary) = outcome
        states = artifact.decision.trg.state_count
        if self.record(point["label"], latency, summary, self.expected[point["label"]],
                       "symbolic", states):
            self.hit_probe(point["label"], session, net, accept, artifact, constraints, traced,
                           self.op_id)


WORKLOADS = {
    "throughput-cold": ThroughputCold,
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

    if args.workload == "service-mix":
        import servicemix

        workload = servicemix.ServiceMix(args.seed, bool(args.trace), args.out_dir)
    else:
        workload = WORKLOADS[args.workload](args.seed, bool(args.trace))
    print("READY", flush=True)
    if args.setup_only:
        workload.close()
        return 0
    try:
        metrics = workload.run(args.seconds)
    finally:
        workload.close()
    tally = workload.tally
    if args.trace:
        workload.tracer.dump(os.path.join(
            args.out_dir, f"spans-{args.workload}-{args.seed}.json"))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            names = [metric["name"] for metric in json.load(handle)["per_layer"]]
        unknown = set(metrics) - set(names)
        if unknown:
            raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # A layer the workload never reaches did no work on it.
        metrics = {name: metrics.get(name, 0.0) for name in names}
    for problem in tally.problems:
        print("failed op:", problem, file=sys.stderr)
    print(json.dumps({"attempted": tally.attempted, "failed": tally.failed,
                      "wrong": tally.wrong, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
