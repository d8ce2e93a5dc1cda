"""Seeded random instances for tests, benchmarks, and the gen command."""
from __future__ import annotations

from itertools import combinations

from .core import Graph, SplitModel, make_tracker, model_from_intervals
from .instances import Instance, check_instance


def random_endpoints(rng, n, coord_max=None, max_len=None):
    """n integer interval pairs; optionally cap the lengths to keep models sparse."""
    if coord_max is None:
        coord_max = max(2 * n, 4)
    endpoints = []
    for _ in range(n):
        if max_len is None:
            a = rng.randint(1, coord_max)
            b = rng.randint(1, coord_max)
            endpoints.append((min(a, b), max(a, b)))
        else:
            l = rng.randint(1, coord_max)
            endpoints.append((l, min(l + rng.randint(0, max_len), coord_max)))
    return endpoints


def greedy_set(rep, c, rng, target=None):
    """Random colorable set by greedy extension in a shuffled order; maximal without a target."""
    order = list(range(rep.n))
    rng.shuffle(order)
    if target is None:
        target = rep.n
    tracker = make_tracker(rep, (), c)
    for v in order:
        if len(tracker.members) >= target:
            break
        if tracker.can_add(v):
            tracker.add(v)
    return tracker.members


# names that predate greedy_set, kept because bench/workloads.py imports them
greedy_interval_set = _greedy_graph_set = greedy_set


def random_split_model(rng, n, p=0.5):
    size_k = rng.randint(0, n)
    kpart = set(rng.sample(range(n), size_k))
    ksorted = sorted(kpart)
    edges = list(combinations(ksorted, 2))
    for u in range(n):
        if u not in kpart:
            edges.extend((u, v) for v in ksorted if rng.random() < p)
    return SplitModel(Graph(n, edges), kpart)


def random_graph(rng, n, p=0.4):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, edges)


def _equalize(rng, a, b):
    # trim the larger set; any subset of a colorable set stays colorable
    while len(a) > len(b):
        a.remove(rng.choice(sorted(a)))
    while len(b) > len(a):
        b.remove(rng.choice(sorted(b)))


def _random_instance(rng, rep, c, rule, k, endpoints=None):
    """Draw S and S2 greedily, equalize them under tj/ts, clamp k, and validate."""
    n = rep.n
    start = greedy_set(rep, c, rng, target=rng.randint(0, n))
    target = greedy_set(rep, c, rng, target=rng.randint(0, n))
    if rule in ("tj", "ts"):
        _equalize(rng, start, target)
    cap = min(len(start), len(target))
    k = rng.randint(0, cap) if k is None else min(k, cap)
    inst = Instance(rep, rule, c, k, start, target, endpoints=endpoints)
    check_instance(inst)
    return inst


def random_interval_instance(rng, n, c, rule="tar", k=None,
                             coord_max=None, max_len=None):
    endpoints = random_endpoints(rng, n, coord_max=coord_max, max_len=max_len)
    model = model_from_intervals(endpoints)
    return _random_instance(rng, model, c, rule, k, endpoints=endpoints)


def random_split_instance(rng, n, c, rule="tar", k=None, p=0.5):
    return _random_instance(rng, random_split_model(rng, n, p=p), c, rule, k)


def random_edges_instance(rng, n, c, rule="tar", k=None, p=0.4):
    return _random_instance(rng, random_graph(rng, n, p=p), c, rule, k)
