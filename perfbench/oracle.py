"""Expected outputs of every grid point, and the checks that compare against them.

``expected.json`` is produced once by running this file::

    PYTHONPATH=src python3 perfbench/oracle.py

It computes every value with ``engine="reference"`` wherever the program
has a reference engine (timed, untimed and GSPN construction); the
early-terminating queries have none, so their answers come from the
default engine and are cross-checked against the reference untimed graph
(a query that finds nothing must have explored exactly that graph).
Exact results are stored as ``Fraction`` strings, GSPN throughputs as
floats compared to ``GSPN_RTOL``.
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: Relative tolerance of GSPN throughputs (floating-point CTMC solve).
GSPN_RTOL = 1e-9


def load():
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Checks (used by the workloads; each returns a list of mismatch messages)
# ---------------------------------------------------------------------------


def check(kind, expect, summary):
    """Mismatches between an op's output summary and its stored expectation.

    Exact values compare as ``Fraction`` strings; GSPN throughputs compare
    within ``GSPN_RTOL``.
    """
    problems = []
    for key, got in summary.items():
        want = expect[key]
        if key == "throughput":
            for name, value in got.items():
                if kind == "gspn":
                    ok = math.isclose(float(value), want[name], rel_tol=GSPN_RTOL)
                else:
                    ok = str(value) == want[name]
                if not ok:
                    problems.append(f"throughput({name}): got {value}, expected {want[name]}")
        elif key in ("cycle_time", "values"):
            got = [str(v) for v in got] if key == "values" else str(got)
            if got != want:
                problems.append(f"{key}: got {got}, expected {want}")
        elif got != want:
            problems.append(f"{key}: got {got!r}, expected {want!r}")
    return problems


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _performance_expect(net, accept):
    from repro import PerformanceAnalysis, timed_reachability_graph

    graph = timed_reachability_graph(net, engine="reference")
    analysis = PerformanceAnalysis(net, reachability=graph)
    return {
        "states": graph.state_count,
        "decision_nodes": len(analysis.decision.anchors),
        "cycle_time": str(analysis.cycle_time().value),
        "throughput": {name: str(analysis.throughput(name).value) for name in accept},
    }


def _decision_expect(net):
    from repro import decision_graph, timed_reachability_graph

    graph = timed_reachability_graph(net, engine="reference")
    collapse = decision_graph(graph)
    return {
        "states": graph.state_count,
        "decision_nodes": len(collapse.anchors),
        "decision_edges": len(collapse.edges),
    }


def _untimed_expect(net):
    from repro.petri.untimed import reachability_graph

    graph = reachability_graph(net, engine="reference")
    return {"states": graph.state_count, "edges": graph.edge_count}


def _gspn_expect(net, accept):
    from repro.stochastic import GSPNAnalysis

    result = GSPNAnalysis(net, engine="reference").solve()
    return {
        "tangible_states": len(result.tangible_markings),
        "throughput": {name: float(result.throughput[name]) for name in accept},
    }


def _query_expect(net, op):
    from repro.engine import query

    kind, params = op["kind"], op["params"]
    if kind == "deadlock":
        result = query.find_deadlock(net)
    elif kind == "bound":
        result = query.bound_check(net, params["place"], params["k"])
    else:
        result = query.is_reachable(net, params["target"])
    full = _untimed_expect(net)["states"]
    if not result.found and result.states_explored != full:
        raise AssertionError(f"{op['label']}: a negative answer must explore all {full} states")
    return {
        "found": result.found,
        "states_explored": result.states_explored,
        "witness_depth": result.witness_depth,
        "full_states": full,
    }


def _op_expect(op, net):
    kind = op["kind"]
    if kind == "performance":
        return _performance_expect(net, op["point"]["accept"])
    if kind == "decision":
        return _decision_expect(net)
    if kind == "untimed":
        return _untimed_expect(net)
    if kind == "gspn":
        return _gspn_expect(net, op["point"]["accept"])
    return _query_expect(net, op)


def _symbolic_expect(point):
    from repro import PerformanceAnalysis, timed_reachability_graph
    from repro.exceptions import InsufficientConstraintsError
    from repro.reachability import symbolic_timed_reachability_graph

    import grids

    net, constraints, symbols = grids.build_symbolic(point)
    accept = point["accept"]
    values = []
    for raw in point["bindings"]:
        bound = net.bind(dict(grids.symbol_bindings(point, raw, symbols)))
        graph = timed_reachability_graph(bound, engine="reference")
        analysis = PerformanceAnalysis(bound, reachability=graph)
        values.append(str(analysis.throughput(accept[0]).value))
    if point["window"] is not None:
        # The closed forms of the lossless window (see sliding_window_symbolic).
        stages = 2 * point["stage"]
        cycle_time = f"a + d + {stages}"
        throughput = {name: f"1 / (a + d + {stages})" for name in accept}
    else:
        cycle_time, throughput = None, None
    try:
        graph = symbolic_timed_reachability_graph(net, constraints, engine="reference")
    except InsufficientConstraintsError:
        # A known defect (see grids.SYMBOLIC_GRID): keep the closed form
        # the derivation must produce once the comparator can decide it.
        derived = None
    else:
        analysis = PerformanceAnalysis(net, constraints, reachability=graph)
        derived = (
            str(analysis.cycle_time().value),
            {name: str(analysis.throughput(name).value) for name in accept},
        )
        if cycle_time is not None and derived != (cycle_time, throughput):
            raise AssertionError(f"{point['label']}: derived {derived}")
        cycle_time, throughput = derived
    return {
        "cycle_time": cycle_time,
        "throughput": throughput,
        "values": values,
        "derivable": derived is not None,
    }


def generate():
    import grids

    expected = {"throughput-cold": {}, "service-mix": {}}
    for point in grids.THROUGHPUT_GRID:
        expected["throughput-cold"][point["label"]] = _performance_expect(
            grids.build_net(point), point["accept"]
        )
        print("throughput-cold", point["label"], flush=True)
    for point in grids.SYMBOLIC_GRID:
        expected["throughput-cold"][point["label"]] = _symbolic_expect(point)
        print("throughput-cold", point["label"], flush=True)
    for item in grids.SERVICE_ITEMS:
        expected["service-mix"][item["label"]] = _op_expect(item, grids.build_net(item["point"]))
        print("service-mix", item["label"], flush=True)
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    generate()
