"""The benchmark's workloads: seeded batches of csr/1 instances.

Each workload turns a seed into a fixed-composition batch of ``Case``s.
The composition (sizes, rules, budgets, kinds) is fixed so that a batch's
total work barely depends on the seed; the seed draws the graphs and sets.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from csrecon import generators
from csrecon.core import model_from_intervals
from csrecon.instances import Instance, render_instance
from csrecon.interval_recon import tar_distance, tj_distance
from csrecon.split_recon import split_tar_reachable

from answer_checks import Facts

# Batch composition per workload.  ``TINY`` is the same shape at desk size,
# used by the benchmark's self-test.
SIZES = {
    "interval_large": {"n": 100_000, "cases": (("tar-k0", 2), ("tj", 3), ("tar-locked", 1))},
    "split_meta": {"n": 100, "c3": 4, "c2": 96},
    "oracle_small": {"n": 12, "edges": 24, "engine": 16},
}
TINY = {
    "interval_large": {"n": 300, "cases": (("tar-k0", 2), ("tj", 3), ("tar-locked", 1))},
    "split_meta": {"n": 14, "c3": 2, "c2": 4},
    "oracle_small": {"n": 8, "edges": 1, "engine": 1},
}


@dataclass
class Case:
    """One instance of a batch: its file text, the command that answers it, and its facts."""

    label: str
    text: str
    command: str          # "solve" or "oracle"
    emit: bool            # pass --emit-sequence --out
    facts: Facts
    # oracle_small only: the generated instance, until its engine answer is attached
    engine_inst: Instance | None = None


def _facts(inst, kind, **extra):
    rep = inst.representation
    if kind in ("split", "edges"):
        g = rep.graph if kind == "split" else rep
        adj = [set() for _ in range(g.n)]
        for u, v in g.edges():
            adj[u].add(v)
            adj[v].add(u)
        extra["adj"] = adj
        if kind == "split":
            extra["clique"] = frozenset(rep.clique_part)
    return Facts(kind, inst.rule, inst.c, inst.k, frozenset(inst.start),
                 frozenset(inst.target), inst.n, **extra)


# --- interval_large ------------------------------------------------------------

def _interval_case(rng, n, kind, c):
    endpoints = generators.random_endpoints(rng, n, coord_max=2 * n, max_len=6)
    model = model_from_intervals(endpoints)
    start = generators.greedy_interval_set(model, c, rng)
    target = generators.greedy_interval_set(model, c, rng)
    rule, k = "tar", 0
    if kind == "tj":
        size = min(len(start), len(target))
        start -= set(rng.sample(sorted(start), len(start) - size))
        target -= set(rng.sample(sorted(target), len(target) - size))
        rule, k = "tj", size - 1
    elif kind == "tar-locked":
        # both sets are maximal, so the smaller one sits at the floor, locked in G
        k = min(len(start), len(target))
    return Instance(model, rule, c, k, start, target, endpoints=endpoints)


def interval_large(seed, sizes, span):
    n = sizes["n"]
    cases = []
    for kind, c in sizes["cases"]:
        with span("generators.instance"):
            inst = _interval_case(random.Random(f"{seed}:{kind}:{c}"), n, kind, c)
        with span("instances.render_instance"):
            text = render_instance(inst)
        cases.append(Case(f"{kind}-c{c}", text, "solve", True,
                          _facts(inst, "intervals", endpoints=inst.endpoints)))
    return cases


# --- split_meta ----------------------------------------------------------------

def _stratified_rng(seed, label, n, size_k):
    """An rng for ``random_split_instance`` whose first draw, the clique size, is ``size_k``.

    Sub-seeds are tried in order until the generator's first ``randint(0, n)``
    lands on the wanted value, so every batch holds the same spread of clique
    sizes while the graph and the sets stay random.
    """
    j = 0
    while random.Random(f"{seed}:{label}:{j}").randint(0, n) != size_k:
        j += 1
    return random.Random(f"{seed}:{label}:{j}")


def split_meta(seed, sizes, span):
    n = sizes["n"]
    cases = []
    for c in (3, 2):
        count = sizes[f"c{c}"]
        for i in range(count):
            size_k = round((i + 0.5) * n / count)
            # tar runs at floor 0, where no meta-graph node is pruned, so its
            # cost follows |K| and not a random floor; tj keeps floor |S|-1
            rule = "tar" if c == 3 else ("tar", "tj")[i % 2]
            label = f"{rule}-c{c}-K{size_k}"
            with span("generators.instance"):
                rng = _stratified_rng(seed, label, n, size_k)
                inst = generators.random_split_instance(rng, n, c, rule=rule, k=0)
            with span("instances.render_instance"):
                text = render_instance(inst)
            # split tj has no sequence output, so it is never asked for one
            cases.append(Case(label, text, "solve", rule == "tar", _facts(inst, "split")))
    return cases


# --- oracle_small --------------------------------------------------------------

def _engine_answer(inst):
    """The interval or split engine's answer, the reference for the oracle's."""
    rep, c, s, s2 = inst.representation, inst.c, inst.start, inst.target
    if inst.repr_kind == "intervals":
        d = tar_distance(rep, c, s, s2, inst.k).distance if inst.rule == "tar" \
            else tj_distance(rep, c, s, s2)
        return "unreachable" if d == float("inf") else str(d)
    floor = inst.k if inst.rule == "tar" else len(s) - 1
    return "reachable" if s == s2 or split_tar_reachable(rep, c, s, s2, floor) else "unreachable"


def _edges_instance(seed, label, n, c, rule):
    """An edge-list instance on a fixed corpus graph, with sets and floor drawn from the seed.

    Enumeration, most of the oracle's time, depends on the graph alone, so
    fixing the graphs keeps the batch's cost from swinging with the seed.
    """
    g = generators.random_graph(random.Random(f"corpus:{label}"), n)
    rng = random.Random(f"{seed}:{label}")
    start = generators._greedy_graph_set(g, c, rng, target=rng.randint(0, n))
    target = generators._greedy_graph_set(g, c, rng, target=rng.randint(0, n))
    if rule != "tar":
        generators._equalize(rng, start, target)
    k = rng.randint(0, min(len(start), len(target)))
    return Instance(g, rule, c, k, start, target)


def oracle_small(seed, sizes, span):
    n = sizes["n"]
    plan = [("edges", rule, c, sizes["edges"]) for rule in ("tar", "tj", "ts") for c in (1, 2)]
    plan += [(kind, rule, c, sizes["engine"])
             for kind in ("interval", "split") for rule in ("tar", "tj") for c in (1, 2)]
    kinds = {"edges": "edges", "interval": "intervals", "split": "split"}
    cases = []
    for kind, rule, c, count in plan:
        for i in range(count):
            label = f"{kind}-{rule}-c{c}-{i}"
            with span("generators.instance"):
                if kind == "edges":
                    inst = _edges_instance(seed, label, n, c, rule)
                elif kind == "split":
                    size_k = round((i + 0.5) * n / count)
                    inst = generators.random_split_instance(
                        _stratified_rng(seed, label, n, size_k), n, c, rule=rule)
                else:
                    inst = generators.random_interval_instance(
                        random.Random(f"{seed}:{label}"), n, c, rule=rule)
            with span("instances.render_instance"):
                text = render_instance(inst)
            extra = {"endpoints": inst.endpoints} if kind == "interval" else {}
            cases.append(Case(label, text, "oracle", True, _facts(inst, kinds[kind], **extra),
                              engine_inst=None if kind == "edges" else inst))
    return cases


def attach_references(cases):
    """Fill in the engine answers; kept out of set-up so set-up times generation only."""
    for case in cases:
        if case.engine_inst is not None:
            case.facts.reference = _engine_answer(case.engine_inst)
            case.engine_inst = None


BUILD = {"interval_large": interval_large, "split_meta": split_meta,
         "oracle_small": oracle_small}
