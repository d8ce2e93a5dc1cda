"""The meta path: level arithmetic against the search, the tight-floor search's
order, its unreachable branch, and oracle agreement."""
from __future__ import annotations

import math
import random
import time
from collections import deque
from itertools import combinations

import pytest

from csrecon import (
    Graph,
    Instance,
    ResourceLimitError,
    SplitModel,
    isr_to_split_csr,
    split_tar_reachable,
    split_tar_witness,
    t_set,
    verify_sequence,
)
from csrecon import split_recon
from csrecon.core import bfs, bfs_path, shortest_path
from csrecon.generators import greedy_set, random_split_model
from csrecon.oracle import oracle_distance
from csrecon.split_recon import _meta_path, _MetaRule

from conftest import all_graphs, cycle_graph


def _reference_graph(model, c, k):
    """The meta-graph from its definition, as (nodes, adj, index).

    Nodes are the C of K with |C| <= c and |T(C)| >= k, in (size, lexicographic)
    order; C joins every C-v when |T(C)| >= k+1; adjacency is sorted by index.
    """
    kside = sorted(model.clique_part)
    nodes = [combo for size in range(min(c, len(kside)) + 1)
             for combo in combinations(kside, size) if len(t_set(model, combo, c)) >= k]
    index = {combo: i for i, combo in enumerate(nodes)}
    adj = [[] for _ in nodes]
    for i, combo in enumerate(nodes):
        if len(t_set(model, combo, c)) >= k + 1:
            for pos in range(len(combo)):
                j = index[combo[:pos] + combo[pos + 1:]]
                adj[i].append(j)
                adj[j].append(i)
    for lst in adj:
        lst.sort()
    return nodes, adj, index


def _materialised_path(meta, model, start, target):
    """BFS over the reference graph's sorted adjacency, as node tuples."""
    nodes, adj, index = meta
    src = index[tuple(sorted(start & model.clique_part))]
    dst = index[tuple(sorted(target & model.clique_part))]
    parent = {src: None}
    queue = deque([src])
    while queue:
        i = queue.popleft()
        if i == dst:
            path = []
            while i is not None:
                path.append(nodes[i])
                i = parent[i]
            return path[::-1]
        for j in adj[i]:
            if j not in parent:
                parent[j] = i
                queue.append(j)
    return None


def _tight(model, c, k):
    """The floor k = |I| + c - 1 with c >= 2 and |K| >= c, the only one searched."""
    return c >= 2 and k == model.n - len(model.clique_part) + c - 1 \
        and len(model.clique_part) >= c


def _is_walk(meta, path):
    _, adj, index = meta
    return all(index[b] in adj[index[a]] for a, b in zip(path, path[1:]))


def test_lazy_search_follows_materialised_order():
    # at the tight floor the search keeps the reference graph's order byte for
    # byte; elsewhere the arithmetic path is a shortest walk in that graph
    rng = random.Random(4242)
    cases = 0
    unreachable = 0
    while cases < 2000:
        n = rng.randint(1, 9)
        c = rng.choice([1, 2, 3])
        model = random_split_model(rng, n, p=rng.choice([0.3, 0.5, 0.8]))
        start = greedy_set(model, c, rng, target=rng.randint(0, n))
        target = greedy_set(model, c, rng, target=rng.randint(0, n))
        for k in range(min(len(start), len(target)) + 1):
            meta = _reference_graph(model, c, k)
            want = _materialised_path(meta, model, start, target)
            got = _meta_path(model, c, k, start, target)
            case = (sorted(model.clique_part), model.graph.adjacency, c, start, target, k)
            if _tight(model, c, k):
                assert got == want, case
            elif want is None:
                assert got is None, case
            else:
                assert got is not None and len(got) == len(want), case
                assert got[0] == want[0] and got[-1] == want[-1], case
                assert _is_walk(meta, got), case
            if start != target:
                assert split_tar_reachable(model, c, start, target, k) == (want is not None)
            cases += 1
            unreachable += want is None
    assert unreachable > 0


def _arithmetic_cases(count, seed):
    """Seeded (model, c, k, S, S2) draws with n <= 12 and c <= 5, every floor up to min |S|."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n = rng.randint(1, 12)
        c = rng.randint(1, 5)
        model = random_split_model(rng, n, p=rng.choice([0.2, 0.5, 0.8]))
        start = greedy_set(model, c, rng, target=rng.randint(0, n))
        target = greedy_set(model, c, rng, target=rng.randint(0, n))
        cases.extend((model, c, k, start, target)
                     for k in range(min(len(start), len(target)) + 1))
    return cases


def test_level_arithmetic_matches_search():
    unreachable = tight = 0
    for model, c, k, start, target in _arithmetic_cases(20_000, 1605):
        src = tuple(sorted(start & model.clique_part))
        dst = tuple(sorted(target & model.clique_part))
        rule = _MetaRule(model, c, k)
        parent = bfs(src, rule.neighbours, dst)
        want = bfs_path(parent, dst) if dst in parent else None
        got = _meta_path(model, c, k, start, target, max_c=5)
        case = (sorted(model.clique_part), model.graph.adjacency, c, start, target, k)
        assert (got is None) == (want is None), case
        if want is not None:
            assert len(got) == len(want) and got[0] == src and got[-1] == dst, case
            assert all(b in set(rule.neighbours(a)) for a, b in zip(got, got[1:])), case
        if start != target:
            assert split_tar_reachable(model, c, start, target, k, max_c=5) == (
                want is not None), case
        unreachable += want is None
        tight += _tight(model, c, k)
    assert unreachable > 0 and tight > 0


def test_witness_passes_through_each_node_extension():
    # every leg of the witness lands on its goal: T(C) of each meta path node
    # in order, then S2; replayed on a plain set and by the verifier
    searched = unreachable = 0
    for model, c, k, start, target in _arithmetic_cases(4_000, 1906):
        seq = split_tar_witness(model, c, start, target, k, max_c=5)
        case = (sorted(model.clique_part), model.graph.adjacency, c, start, target, k)
        if start == target:
            assert seq.steps == [], case
            continue
        path = _meta_path(model, c, k, start, target, max_c=5)
        assert (seq is None) == (path is None), case
        if path is None:
            unreachable += 1
            continue
        cur = set(start)
        seen = [frozenset(cur)]
        for op, v in seq.steps:
            (cur.add if op == "+" else cur.remove)(v)
            seen.append(frozenset(cur))
        passes = iter(seen)
        assert all(t_set(model, node, c) in passes for node in path), case
        assert seen[-1] == target, case
        assert verify_sequence(Instance(model, "tar", c, k, start, target), seq).ok, case
        searched += _tight(model, c, k) and len(path) > 1
    assert searched > 0 and unreachable > 0


def _large_split(rng, size_k, n, p=0.5):
    kpart = range(size_k)
    edges = list(combinations(kpart, 2))
    edges.extend((u, v) for u in range(size_k, n) for v in kpart if rng.random() < p)
    return SplitModel(Graph(n, edges), set(kpart))


def test_search_runs_only_at_the_tight_floor(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return shortest_path(*args, **kwargs)

    monkeypatch.setattr(split_recon, "shortest_path", counted)
    for model, c, k, start, target in _arithmetic_cases(20_000, 1605):
        before = len(calls)
        _meta_path(model, c, k, start, target, max_c=5)
        assert len(calls) == before or _tight(model, c, k), (c, k, start, target)
    assert calls
    calls.clear()
    rules = []

    class Recorded(_MetaRule):
        def __init__(self, *args):
            super().__init__(*args)
            rules.append(self)

    monkeypatch.setattr(split_recon, "_MetaRule", Recorded)
    rng = random.Random(400)
    model = _large_split(rng, 400, 800)
    start, target = greedy_set(model, 3, rng), greedy_set(model, 3, rng)
    assert start & model.clique_part != target & model.clique_part
    inst = Instance(model, "tar", 3, 0, start, target)
    assert split_tar_reachable(model, 3, start, target, 0)
    seq = split_tar_witness(model, 3, start, target, 0)
    assert verify_sequence(inst, seq).ok
    assert calls == []
    # off the tight floor only the masks of the ends' at most 2c clique vertices are built
    assert len(rules) == 2 and all(0 < len(rule.masks) <= 6 for rule in rules)


def _isolated_end(size_k):
    """K = 0..size_k-1 with c = 3 at the tight floor k = |I| + 2: the independent vertex z
    sees exactly the clique triple D, so S2 = D + (I - z) has |T(D)| = k and no meta edge,
    while S is two other clique vertices plus I."""
    z, others = size_k, {size_k + 1: (3,), size_k + 2: (3, 4)}
    edges = list(combinations(range(size_k), 2))
    edges += [(z, v) for v in (0, 1, 2)]
    edges += [(u, v) for u, seen in others.items() for v in seen]
    model = SplitModel(Graph(size_k + 3, edges), set(range(size_k)))
    independent = {z, *others}
    return model, len(independent) + 2, {size_k - 2, size_k - 1} | independent, {0, 1, 2, *others}


def test_tight_floor_isolated_end_needs_no_search(monkeypatch):
    model, k, start, target = _isolated_end(5)
    assert _tight(model, 3, k)
    assert oracle_distance(model, 3, start, target, k=k)[0] == math.inf
    assert not split_tar_reachable(model, 3, start, target, k, max_c=3)
    with pytest.raises(ResourceLimitError):   # the --max-c refusal still comes first
        split_tar_reachable(model, 3, start, target, k, max_c=2)

    def no_search(*args, **kwargs):
        raise AssertionError("the tight-floor search ran")

    monkeypatch.setattr(split_recon, "shortest_path", no_search)
    model, k, start, target = _isolated_end(200)
    began = time.perf_counter()
    assert split_tar_reachable(model, 3, start, target, k, max_c=3) is False
    assert split_tar_witness(model, 3, start, target, k, max_c=3) is None
    assert time.perf_counter() - began < 0.05


def _free_triple(size_k):
    """K = 0..size_k-1 with c = 3 at the tight floor k = |I| + 2: each triple through a 2-face
    of D = {0, 1, 2}, other than D, is blocked by its own independent vertex, which sees exactly
    that triple, so D's component is D and its three faces.  Returns the model, k, I and D."""
    edges = list(combinations(range(size_k), 2))
    blockers = [(a, b, v) for a, b in combinations(range(3), 2) for v in range(3, size_k)]
    edges += [(size_k + i, u) for i, triple in enumerate(blockers) for u in triple]
    model = SplitModel(Graph(size_k + len(blockers), edges), set(range(size_k)))
    independent = set(range(size_k, model.n))
    return model, len(independent) + 2, independent, {0, 1, 2}


def test_tight_floor_free_triple_is_refused_from_both_ends():
    # S's component holds nearly every node at levels 2 and 3, S2's holds four, so a
    # one-sided search from S sweeps the large one; the search from both ends does not
    model, k, independent, free = _free_triple(5)
    assert model.n == 11 and _tight(model, 3, k)
    start, target = {3, 4} | independent, free | independent
    assert oracle_distance(model, 3, start, target, k=k)[0] == math.inf
    assert not split_tar_reachable(model, 3, start, target, k, max_c=3)
    model, k, independent, free = _free_triple(200)
    start, target = {3, 4} | independent, free | independent
    began = time.perf_counter()
    assert split_tar_reachable(model, 3, start, target, k, max_c=3) is False
    assert split_tar_witness(model, 3, start, target, k, max_c=3) is None
    assert time.perf_counter() - began < 0.05
    # a pair in the large component gets the one-sided search's path, byte for byte
    far = {2, 40, 41} | independent
    parent = bfs((3, 4), _MetaRule(model, 3, k).neighbours, (2, 40, 41))
    path = _meta_path(model, 3, k, start, far, max_c=3)
    assert path == bfs_path(parent, (2, 40, 41)) and len(path) == 6


def _isr_pairs():
    sources = [*all_graphs(4), cycle_graph(3), cycle_graph(4), cycle_graph(5)]
    for g in sources:
        nbrs = g.adjacency
        for size in range(g.n):
            sets = [set(combo) for combo in combinations(range(g.n), size)
                    if all(not (nbrs[v] & set(combo)) for v in combo)]
            for a in sets:
                for b in sets:
                    if a != b:
                        yield isr_to_split_csr(g, a, b)


def test_isr_images_tj_match_oracle():
    # frozen pairs such as C4 with I={0,2}, I2={1,3} reach the whole-component
    # branch of the search, which seeded split instances practically never do
    pairs = 0
    unreachable = 0
    for out in _isr_pairs():
        start, target = out.phi_start, out.phi_target
        got = split_tar_reachable(out.model, out.c, start, target, len(start) - 1,
                                  max_c=out.c)
        dist, _ = oracle_distance(out.model, out.c, start, target, rule="tj")
        assert got == (dist != math.inf), (out.model.graph.adjacency, start, target)
        pairs += 1
        unreachable += not got
    assert pairs == 1332 and unreachable == 8

