"""Fixed input grids of the two workloads and their seeded generators.

Every grid is a fixed list of named points.  The seed only chooses the
order in which a round visits them (and, for the service mix, the order of
the job stream and the declaration shuffles of reordered resubmissions), so
the same seed always yields the same op sequence and every round covers
the whole grid.  The program under test only ever sees the generated nets.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from typing import Dict, List, Tuple

from repro.protocols import (
    alternating_bit_net,
    go_back_n_net,
    pipelined_stop_and_wait_net,
    producer_consumer_net,
    selective_repeat_net,
    simple_protocol_net,
    simple_protocol_symbolic,
    sliding_window_net,
    sliding_window_symbolic,
)
from repro.protocols.simple_protocol import paper_bindings

LOSS = Fraction(1, 10)

#: Factories of the numeric nets, by family.
FAMILIES = {
    "fig1": simple_protocol_net,
    "alternating_bit": alternating_bit_net,
    "producer_consumer": producer_consumer_net,
    "pipelined_stop_and_wait": pipelined_stop_and_wait_net,
    "sliding_window": sliding_window_net,
    "go_back_n": go_back_n_net,
    "selective_repeat": selective_repeat_net,
}


def _accept(family: str, window: int = 0) -> Tuple[str, ...]:
    """The transitions whose firings count as delivered messages."""
    if family == "fig1":
        return ("t6",)
    if family == "alternating_bit":
        return ("accept0", "accept1")
    if family == "producer_consumer":
        return ("finish_consume",)
    if family == "pipelined_stop_and_wait":
        return tuple(f"c{i}_ack" for i in range(window))
    prefix, name = {
        "sliding_window": ("w", "ack"),
        "go_back_n": ("g", "accept"),
        "selective_repeat": ("sr", "release"),
    }[family]
    return tuple(f"{prefix}{i}_{name}" for i in range(window))


def _point(label, family, args=(), **kwargs):
    return {
        "label": label,
        "family": family,
        "args": list(args),
        "kwargs": kwargs,
        "accept": _accept(family, args[0] if args else 0),
    }


def build_net(point):
    """A fresh net object for a grid point (no memo is shared between calls)."""
    return FAMILIES[point["family"]](*point["args"], **point["kwargs"])


# ---------------------------------------------------------------------------
# throughput-cold: mid-size protocols, 2 to 154 decision nodes
# ---------------------------------------------------------------------------

# A run's ops are whole rounds, so a grid whose successful ops number
# 1 mod 4 (29) puts the median of several rounds inside the samples of a
# single grid point instead of between two points whose latencies may
# differ tenfold.

THROUGHPUT_GRID = [
    _point("fig1", "fig1"),
    _point("fig1-loss5-ack10", "fig1", packet_loss_probability=Fraction(1, 5),
           ack_loss_probability=Fraction(1, 10)),
    _point("ab", "alternating_bit"),
    _point("ab-loss5", "alternating_bit", loss_probability=Fraction(1, 5)),
    _point("pc3-loss10", "producer_consumer", loss_probability=LOSS),
    _point("pc4-loss5", "producer_consumer", buffer_size=4, loss_probability=Fraction(1, 5)),
    _point("psw2", "pipelined_stop_and_wait", (2,)),
    _point("psw2-timeout30", "pipelined_stop_and_wait", (2,), timeout=30),
    _point("sw2-loss10", "sliding_window", (2,), loss_probability=LOSS),
    _point("sw2-loss10-timeout16", "sliding_window", (2,), loss_probability=LOSS, timeout=16),
    _point("sw2-loss10-fast", "sliding_window", (2,), loss_probability=LOSS,
           packet_delay=2, ack_delay=2, timeout=6),
    _point("sw3-loss10-fast", "sliding_window", (3,), loss_probability=LOSS,
           packet_delay=2, ack_delay=2, timeout=6),
    _point("gbn2-loss10", "go_back_n", (2,), loss_probability=LOSS),
    _point("gbn3-loss10", "go_back_n", (3,), loss_probability=LOSS),
    _point("sr2-loss10", "selective_repeat", (2,), loss_probability=LOSS),
    _point("sr3-loss10", "selective_repeat", (3,), loss_probability=LOSS),
]

# ---------------------------------------------------------------------------
# throughput-cold, symbolic: closed forms, then K bindings each
# ---------------------------------------------------------------------------


def _fig1_bindings():
    return [
        {"packet_loss": packet, "ack_loss": ack}
        for packet, ack in ((Fraction(1, 20), Fraction(1, 20)),
                            (Fraction(1, 5), Fraction(1, 20)),
                            (Fraction(1, 10), Fraction(1, 5)))
    ]


def _window_bindings(stage: int):
    # d, a > send + receive = 2 * stage, as the constraints declare.
    return [{"d": 2 * stage + d, "a": 2 * stage + a} for d, a in ((1, 2), (4, 2), (1, 7))]


SYMBOLIC_GRID = [{"label": "fig1-symbolic", "window": None, "stage": None,
                  "accept": ("t6",), "bindings": _fig1_bindings()}]
SYMBOLIC_GRID += [
    {"label": f"sws{window}-s{stage}", "window": window, "stage": stage,
     "accept": _accept("sliding_window", window), "bindings": _window_bindings(stage)}
    for window, stages in ((2, (1, 2, 3, 4, 5, 6, 7, 8, 9)), (3, (1, 2, 3)))
    for stage in stages
]
# The default window-4 model: its constraints cannot order d - 2 against 1,
# so the derivation raises InsufficientConstraintsError today.  It stays in
# the grid and counts as a failed op until the comparator can decide it.
SYMBOLIC_GRID.append({"label": "sws4-s1", "window": 4, "stage": 1,
                      "accept": _accept("sliding_window", 4), "bindings": _window_bindings(1)})


def build_symbolic(point):
    """``(net, constraints, symbols)`` of a symbolic grid point."""
    if point["window"] is None:
        return simple_protocol_symbolic()
    return sliding_window_symbolic(
        point["window"], send_time=point["stage"], receiver_time=point["stage"]
    )


def symbol_bindings(point, raw, symbols):
    """The symbol -> value mapping of one stored binding of ``point``."""
    if point["window"] is None:
        return paper_bindings(packet_loss=raw["packet_loss"], ack_loss=raw["ack_loss"])
    return {symbols["d"]: raw["d"], symbols["a"]: raw["a"]}


# ---------------------------------------------------------------------------
# service-mix: smaller nets, one item per (net, stage)
# ---------------------------------------------------------------------------

_SW3 = _point("sw3-loss10", "sliding_window", (3,), loss_probability=LOSS)
_SW4 = _point("sw4-loss10", "sliding_window", (4,), loss_probability=LOSS)
_SW6 = _point("sw6-loss10", "sliding_window", (6,), loss_probability=LOSS)
_GBN3 = _point("gbn3-loss10", "go_back_n", (3,), loss_probability=LOSS)


def _op(kind, point, **params):
    label = f"{kind}:{point['label']}"
    if params:
        label += ":" + ",".join(f"{key}={params[key]}" for key in sorted(params))
    return {"label": label, "kind": kind, "point": point, "params": params}


# Seven items: at most 10 artifacts per client block, so a block's hits
# find everything the last blocks of both clients built in the server's
# 32-entry memory tier.
SERVICE_ITEMS = [
    _op("performance", _point("fig1", "fig1")),
    _op("performance", _point("gbn2-loss10", "go_back_n", (2,), loss_probability=LOSS)),
    _op("decision", _point("sw2-loss10-fast", "sliding_window", (2,), loss_probability=LOSS,
                           packet_delay=2, ack_delay=2, timeout=6)),
    _op("gspn", _SW3),
    _op("untimed", _SW4),
    _op("deadlock", _GBN3),
    _op("bound", _SW6, place="w5_lost", k=0),
]

#: Per item and block: one first-seen submission (a build), then
#: ``EXACT_REPEATS`` identical resubmissions and ``REORDERED`` resubmissions
#: with shuffled declarations (both served from the cache).
EXACT_REPEATS = 2
REORDERED = 1


def round_order(grid, rng: random.Random) -> List:
    """One round: every grid point once, in seeded order."""
    order = list(grid)
    rng.shuffle(order)
    return order


def rename(data: Dict, prefix: str) -> Dict:
    """``net_to_dict`` output with every place and transition name prefixed.

    A prefix keeps the names' relative order, so the renamed net explores
    the same graph at the same cost while having a content fingerprint of
    its own: it is first-seen by the service's cache.
    """
    data = copy.deepcopy(data)
    data["name"] = prefix + data["name"]
    for place in data["places"]:
        place["name"] = prefix + place["name"]
    for transition in data["transitions"]:
        transition["name"] = prefix + transition["name"]
        for side in ("inputs", "outputs"):
            transition[side] = {prefix + k: v for k, v in transition[side].items()}
    data["initial_marking"] = {prefix + k: v for k, v in data["initial_marking"].items()}
    return data


def reorder(data: Dict, rng: random.Random) -> Dict:
    """The same net with its places and transitions declared in a seeded shuffle."""
    data = copy.deepcopy(data)
    rng.shuffle(data["places"])
    rng.shuffle(data["transitions"])
    return data


def job_params(item, prefix: str) -> Dict:
    """The service ``params`` of an item, with place names prefixed."""
    params = dict(item["params"])
    kind = item["kind"]
    if kind in ("deadlock", "bound", "reachable"):
        params["kind"] = kind
        if "place" in params:
            params["place"] = prefix + params["place"]
        if "target" in params:
            params["target"] = {prefix + k: v for k, v in params["target"].items()}
    return params


def service_stage(item) -> str:
    return "query" if item["kind"] in ("deadlock", "bound", "reachable") else item["kind"]


def service_block(payloads: Dict[str, Dict], thread: int, block: int, rng: random.Random):
    """The jobs one client thread submits in one block, in order.

    ``payloads`` maps item labels to ``net_to_dict`` output.  The block's
    builds come first (seeded order), then its cache hits (seeded order),
    so every hit follows the build it reads in the same closed loop.
    """
    prefix = f"c{thread}b{block}_"
    builds, hits = [], []
    for item in SERVICE_ITEMS:
        net = rename(payloads[item["label"]], prefix)
        job = {"net": net, "stage": service_stage(item), "params": job_params(item, prefix)}
        builds.append((item, prefix, "build", job))
        hits += [(item, prefix, "repeat", job)] * EXACT_REPEATS
        for _ in range(REORDERED):
            hits.append((item, prefix, "reorder", dict(job, net=reorder(net, rng))))
    rng.shuffle(builds)
    rng.shuffle(hits)
    return builds + hits
