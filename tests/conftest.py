"""Shared helpers: hand instances, exhaustive reference checks, small-graph enumeration."""
from __future__ import annotations

import math
from itertools import combinations, product

import pytest

from csrecon import Graph, IntervalModel, model_from_intervals


# The five hand instances exercising every distance verdict (c=1, k=1):
#   E1 path a-b-c, S={a} S2={c}          -> case1, d=2
#   E2 single edge, S={a} S2={b}         -> locked, unreachable
#   E3 path y-a-b-x, S={a} S2={b}        -> case3b, d=6
#   E4 path a-b-c + isolated d, S={b} S2={a,c} -> case2, d=5
#   E5 edge a-b + isolated z, S={a} S2={b}     -> case3a, d=4

@pytest.fixture
def e1_model():
    return model_from_intervals([(1, 1), (1, 2), (2, 2)])


@pytest.fixture
def e2_model():
    return model_from_intervals([(1, 1), (1, 1)])


@pytest.fixture
def e3_model():
    # y=0 a=1 b=2 x=3
    return model_from_intervals([(1, 1), (1, 2), (2, 3), (3, 3)])


@pytest.fixture
def e4_model():
    # a=0 b=1 c=2 d=3 (d isolated)
    return model_from_intervals([(1, 1), (1, 2), (2, 2), (3, 3)])


@pytest.fixture
def e5_model():
    # a=0 b=1 z=2 (z isolated)
    return model_from_intervals([(1, 1), (1, 1), (2, 2)])


def graph_from_model(model: IntervalModel) -> Graph:
    n = model.n
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if model.has_edge(u, v)]
    return Graph(n, edges)


def graph_from_split(model) -> Graph:
    return model.graph


def brute_force_colorable(g: Graph, members, c: int) -> bool:
    """Reference colorability: try every assignment of c colors outright."""
    verts = sorted(members)
    if not verts:
        return True
    if c <= 0:
        return False
    for assignment in product(range(c), repeat=len(verts)):
        coloring = dict(zip(verts, assignment))
        if all(coloring[u] != coloring[v]
               for i, u in enumerate(verts) for v in verts[i + 1:]
               if g.has_edge(u, v)):
            return True
    return False


def brute_force_split_partition(g: Graph):
    """Reference split test: try every subset as the clique side."""
    n = g.n
    for size in range(n, -1, -1):
        for kpart in combinations(range(n), size):
            kset = set(kpart)
            iset = set(range(n)) - kset
            if all(g.has_edge(u, v) for u, v in combinations(sorted(kset), 2)) and \
               all(not g.has_edge(u, v) for u, v in combinations(sorted(iset), 2)):
                return kset, iset
    return None


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for mask in range(1 << len(slots)):
        yield Graph(n, [e for i, e in enumerate(slots) if mask >> i & 1])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def star_graph(n: int) -> Graph:
    return Graph(n, [(0, i) for i in range(1, n)])


def independent_sets_of_size(g: Graph, size: int):
    """Every independent set of ``size`` vertices, by combinations in ascending order."""
    nbrs = g.adjacency
    for combo in combinations(range(g.n), size):
        s = set(combo)
        if all(not (nbrs[v] & s) for v in combo):
            yield s


def all_shortest_paths(g: Graph, s: int, t: int):
    """Every shortest s-t path as a vertex list; [] when t is unreachable."""
    from csrecon.reductions import _bfs_dist

    dist_s = _bfs_dist(g, s)
    if dist_s[t] == math.inf:
        return []
    length = int(dist_s[t])
    paths = []

    def grow(path):
        if len(path) == length + 1:
            if path[-1] == t:
                paths.append(list(path))
            return
        for v in g.adjacency[path[-1]]:
            if dist_s[v] == len(path):
                path.append(v)
                grow(path)
                path.pop()

    grow([s])
    return paths
