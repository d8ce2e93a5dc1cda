"""Instance factories for three hardness constructions, with checkable certificates.

Each factory returns the constructed graph together with enough provenance
(padding groups, layer assignments, vertex maps) for a test to invert the
solution mapping and confirm the construction's correctness contract by
enumeration at desk scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .core import Graph, InvariantError, SplitModel, _bits, bfs


@dataclass
class JoinOutput:
    """Join of the source graph with disjoint padding cliques.

    Transversals of size k in the source correspond to colorable sets of
    size ``target_size`` here.
    """

    graph: Graph
    c: int
    k: int
    target_size: int
    padding_cliques: list


def oct_to_colorable_set(g, c, k):
    """Join the source with n disjoint cliques of size c-2.

    The output graph has an c-colorable set of size |V'|-k exactly when the
    source has an odd-cycle transversal of size at most k.
    """
    if c < 2:
        raise InvariantError("c must be at least 2")
    if k >= g.n:
        raise InvariantError("k must be smaller than the vertex count")
    n = g.n
    edges = list(g.edges())
    padding = []
    nxt = n
    if c > 2:
        for _ in range(n):
            group = list(range(nxt, nxt + c - 2))
            nxt += c - 2
            padding.append(group)
            edges.extend(combinations(group, 2))
            edges.extend((u, v) for u in group for v in range(n))
    graph = Graph(nxt, edges)
    return JoinOutput(graph, c, k, nxt - k, padding)


@dataclass
class SplitReductionOutput:
    """Split graph whose clique side is the source's vertices and whose
    independent side has one vertex per source edge."""

    model: SplitModel
    c: int
    k: int
    phi_start: set
    phi_target: set
    edge_of_vertex: dict

    def phi(self, independent_set):
        return set(range(self.model.n)) - set(independent_set)


def isr_to_split_csr(g, ind_start, ind_target):
    """Map an independent-set reconfiguration instance to a split-graph one.

    Vertices of the source become a clique, edges become independent
    vertices, and an edge-vertex is adjacent exactly to the non-endpoints of
    its edge.  The images of the two independent sets are their complements.
    """
    ind_start = set(ind_start)
    ind_target = set(ind_target)
    nbrs = g.adjacency
    for name, s in (("I", ind_start), ("I2", ind_target)):
        for v in s:
            if not 0 <= v < g.n:
                raise InvariantError(f"{name}: vertex {v} out of range")
            if nbrs[v] & s:
                raise InvariantError(f"{name} is not independent")
    if len(ind_start) != len(ind_target):
        raise InvariantError("size mismatch: |I| must equal |I2|")
    c = g.n - len(ind_start)
    if c < 1:
        raise InvariantError("independent sets must leave at least one vertex uncovered")
    src_edges = list(g.edges())
    m = len(src_edges)
    n = g.n
    hedges = list(combinations(range(n), 2))
    edge_of_vertex = {}
    for j, (eu, ev) in enumerate(src_edges):
        ev_vertex = n + j
        edge_of_vertex[ev_vertex] = (eu, ev)
        for v in range(n):
            if v != eu and v != ev:
                hedges.append((v, ev_vertex))
    graph = Graph(n + m, hedges)
    model = SplitModel(graph, range(n))
    k = m + c
    all_vertices = set(range(n + m))
    return SplitReductionOutput(model, c, k,
                                all_vertices - ind_start,
                                all_vertices - ind_target,
                                edge_of_vertex)


@dataclass
class CocompReductionOutput:
    """Layered graph built from a shortest-path reconfiguration instance.

    Layer i holds the source vertices at distance i from s that lie on some
    shortest s-t path, made a clique; consecutive layers get the complement
    of the source edges; each layer also gets a padding clique of c-1 new
    vertices joined to it and to the next layer.  ``order`` is a vertex
    order certifying that no umbrella triple exists.
    """

    graph: Graph
    c: int
    k: int
    layers: list
    padding: list
    phi_start: set
    phi_target: set
    order: list
    source_vertex: dict

    def phi(self, path):
        new_of = {orig: new for new, orig in self.source_vertex.items()}
        members = {new_of[v] for v in path}
        for group in self.padding:
            members.update(group)
        return members


def _bfs_dist(g, src):
    dist = [math.inf] * g.n
    # parents are discovered before their children
    for v, p in bfs(src, g.adjacency.__getitem__).items():
        dist[v] = 0 if p is None else dist[p] + 1
    return dist


def _check_shortest_path(g, s, t, path, length, name):
    if len(path) != length + 1 or path[0] != s or path[-1] != t:
        raise InvariantError(f"{name} is not a shortest path from s to t")
    if len(set(path)) != len(path):
        raise InvariantError(f"{name} repeats a vertex")
    for u, v in zip(path, path[1:]):
        if not g.has_edge(u, v):
            raise InvariantError(f"{name} uses a non-edge ({u}, {v})")


def spr_to_cocomp_csr(g, s, t, path_start, path_target, c):
    """Map a shortest-path reconfiguration instance to a layered colorable-set one."""
    if c < 1:
        raise InvariantError("c must be at least 1")
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise InvariantError("s or t out of range")
    dist_s = _bfs_dist(g, s)
    dist_t = _bfs_dist(g, t)
    length = dist_s[t]
    if length == math.inf:
        raise InvariantError("t is unreachable from s")
    length = int(length)
    _check_shortest_path(g, s, t, path_start, length, "P")
    _check_shortest_path(g, s, t, path_target, length, "P2")
    # the vertices on some shortest s-t path, numbered layer by layer
    on_path = sorted((dist_s[v], v) for v in range(g.n) if dist_s[v] + dist_t[v] == length)
    source_vertex = {new: v for new, (_, v) in enumerate(on_path)}
    layers = [[] for _ in range(length + 1)]
    for new, (i, _) in enumerate(on_path):
        layers[i].append(new)
    nxt = len(on_path)
    padding = []
    for _ in range(length + 1):
        group = list(range(nxt, nxt + c - 1))
        nxt += c - 1
        padding.append(group)
    edges = [e for ids in layers for e in combinations(ids, 2)]
    for i in range(length):
        for u in layers[i]:
            for v in layers[i + 1]:
                if not g.has_edge(source_vertex[u], source_vertex[v]):
                    edges.append((u, v))
    for i, group in enumerate(padding):
        edges.extend(combinations(group, 2))
        for u in group:
            for v in layers[i]:
                edges.append((u, v))
            if i + 1 <= length:
                for v in layers[i + 1]:
                    edges.append((u, v))
    graph = Graph(nxt, edges)
    k = (length + 1) * c
    order = []
    for i in range(length + 1):
        order.extend(layers[i])
        order.extend(padding[i])
    out = CocompReductionOutput(graph, c, k, layers, padding,
                                set(), set(), order, source_vertex)
    out.phi_start = out.phi(path_start)
    out.phi_target = out.phi(path_target)
    return out


def check_cocomp_order(g, order):
    """Scan a vertex order for an umbrella triple.

    Returns None when no positions a < b < c have order[a], order[c]
    adjacent while order[b] is adjacent to neither; such an order certifies
    that the graph is a co-comparability graph.  Otherwise returns the
    first violating triple.  Each a is paired only with its later neighbours.
    """
    order = list(order)
    if sorted(order) != list(range(g.n)):
        raise InvariantError("order is not a permutation of the vertices")
    pos = sorted(range(g.n), key=order.__getitem__)  # pos[v]: v's place in order

    @cache
    def mask_at(p):
        """(low, mask): bit j set when order[low + j] sees order[p]; low = min(p, those)."""
        ps = [pos[w] for w in g.adjacency[order[p]]]
        low = min([p, *ps])
        return low, _bits([q - low for q in ps])

    for a, u in enumerate(order):
        later = sorted([p for w in g.adjacency[u] if (p := pos[w]) > a])
        if not later or len(later) == later[-1] - a:
            continue  # u sees every position up to its last neighbour
        # the positions before that neighbour that u does not see, bit j for a + 1 + j
        low, mask = mask_at(a)
        unseen = ((1 << (later[-1] - a - 1)) - 1) & ~(mask >> (a + 1 - low))
        for c in later:
            low, mask = mask_at(c)
            mids = unseen & ((1 << (c - a - 1)) - 1) & ~(mask >> (a + 1 - low))
            if mids:  # its lowest bit is the first middle position
                return (u, order[a + (mids & -mids).bit_length()], order[c])
    return None
