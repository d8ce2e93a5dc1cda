"""Clique-side extensions, the meta-graph, and split reachability."""
from __future__ import annotations

import math
import random
import time
from itertools import combinations

import pytest

from csrecon import (
    Graph,
    Instance,
    InvariantError,
    ResourceLimitError,
    SplitModel,
    build_meta_graph,
    is_colorable_exact,
    split_tar_reachable,
    split_tar_witness,
    t_set,
    verify_sequence,
)
from csrecon.cli import main
from csrecon.core import make_tracker
from csrecon.generators import greedy_set, random_split_model
from csrecon.oracle import oracle_distance
from csrecon.split_recon import _MetaRule


@pytest.fixture
def pqr_model():
    # clique p,q,r = 0,1,2; independent u=3 ~ {p,q}, w=4 ~ {q,r}
    edges = [(0, 1), (0, 2), (1, 2), (3, 0), (3, 1), (4, 1), (4, 2)]
    return SplitModel(Graph(5, edges), {0, 1, 2})


def test_t_set_examples(pqr_model):
    empty = t_set(pqr_model, set(), 2)
    assert empty == frozenset({3, 4}) and isinstance(empty, frozenset)

    ts = t_set(pqr_model, {0, 1}, 2)
    assert ts == frozenset({0, 1, 4})
    assert is_colorable_exact(pqr_model.graph, ts, 2)

    ts = t_set(pqr_model, {0, 2}, 2)
    assert ts == frozenset({0, 2, 3, 4})
    assert is_colorable_exact(pqr_model.graph, ts, 2)


def test_t_set_rejects_bad_inputs(pqr_model):
    with pytest.raises(InvariantError):
        t_set(pqr_model, {3}, 2)
    with pytest.raises(InvariantError):
        t_set(pqr_model, {0, 1, 2}, 2)


def test_meta_graph_nodes(pqr_model):
    meta = build_meta_graph(pqr_model, 2, 3)
    assert tuple() not in meta.index  # |T_empty| = 2 < 3
    assert set(meta.nodes) == {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}
    # with no floor every subset of size <= c is a node
    meta0 = build_meta_graph(pqr_model, 2, 0)
    assert len(meta0.nodes) == 7


def test_meta_graph_edge_condition(pqr_model):
    # edge {empty, {p}} present exactly when |T_{p}| >= k+1
    for k in (0, 1, 2, 3):
        meta = build_meta_graph(pqr_model, 2, k)
        if () not in meta.index or (0,) not in meta.index:
            continue
        i, j = meta.index[()], meta.index[(0,)]
        has_edge = j in meta.adj[i]
        assert has_edge == (len(t_set(pqr_model, meta.nodes[j], 2)) >= k + 1)


def test_meta_rule_masks_match_the_independent_part():
    # the rule reads the graph's own lazy masks, and n - popcount of C's common
    # neighbourhood at the budget is exactly the tracker-defined |T(C)|
    rng = random.Random(43)
    for _ in range(200):
        model = random_split_model(rng, rng.randint(0, 12), p=rng.random())
        ind = model.independent_part
        c = rng.randint(0, 3)
        rule = _MetaRule(model, c, 0)
        assert rule.masks is model.graph.neighbor_masks
        assert rule.masks == {}  # built on first lookup
        assert rule.n_ind == len(ind)
        for size in range(min(c, len(rule.kside)) + 1):
            for base in combinations(rule.kside, size):
                assert rule.node_size(base) == len(t_set(model, base, c))


def test_split_masks_are_built_in_linear_time():
    # K = {0, 1} sees every other vertex: a mask summed bit by bit copies a
    # growing int once per neighbour, quadratic in the degree
    n = 200_000
    edges = [(0, 1), *((x, v) for v in range(2, n) for x in (0, 1))]
    model = SplitModel(Graph(n, edges), {0, 1})
    began = time.perf_counter()
    assert split_tar_reachable(model, 1, {0}, {1}, 0)
    assert time.perf_counter() - began < 0.5


def test_split_solve_is_linear_in_the_header_n(tmp_path, capsys):
    # one edge and n = 400,000: the mask of the independent part must not be
    # summed bit by bit, which copies a growing int n times
    path = tmp_path / "wide.csr"
    path.write_text("format: csr/1\nrule: tar\nc: 1\nk: 0\nrepr: split\nn: 400000\n"
                    "body:\nK: 0 1\n1\n0 1\nS: 0\nS2: 1\n", encoding="utf-8")
    began = time.perf_counter()
    assert main(["solve", str(path)]) == 0
    assert time.perf_counter() - began < 1.0
    assert capsys.readouterr().out.strip() == "reachable"


def test_meta_graph_cap():
    model = random_split_model(random.Random(1), 8)
    with pytest.raises(ResourceLimitError, match="O\\(n"):
        build_meta_graph(model, 4, 0)
    build_meta_graph(model, 4, 0, max_c=4)


def test_t_sets_colorable_and_contain_sources(pqr_model):
    rng = random.Random(99)
    for trial in range(100):
        model = random_split_model(rng, rng.randint(1, 10), p=rng.random())
        c = rng.choice([1, 2, 3])
        meta = build_meta_graph(model, c, 0)
        for node in meta.nodes:
            assert make_tracker(model, t_set(model, node, c), c).colorable()
        s = greedy_set(model, c, rng, target=rng.randint(0, model.n))
        assert s <= t_set(model, s & model.clique_part, c)


def test_reachable_trivial_and_locked_pair():
    # two clique vertices, both independent vertices adjacent to both:
    # any singleton clique choice is stuck at floor 1
    g = Graph(4, [(0, 1), (2, 0), (2, 1), (3, 0), (3, 1)])
    model = SplitModel(g, {0, 1})
    assert split_tar_reachable(model, 1, {0}, {0}, 1)
    assert not split_tar_reachable(model, 1, {0}, {1}, 1)
    dist, _ = oracle_distance(model, 1, {0}, {1}, k=1, rule="tar")
    assert dist == math.inf
    assert split_tar_witness(model, 1, {0}, {1}, 1) is None
    # dropping the floor frees the pair
    assert split_tar_reachable(model, 1, {0}, {1}, 0)


def test_reachability_matches_oracle_randomized():
    rng = random.Random(31337)
    verdicts = {True: 0, False: 0}
    for _ in range(250):
        n = rng.randint(1, 12)
        c = rng.choice([1, 2, 3])
        model = random_split_model(rng, n, p=rng.choice([0.3, 0.5, 0.8]))
        start = greedy_set(model, c, rng, target=rng.randint(0, n))
        target = greedy_set(model, c, rng, target=rng.randint(0, n))
        cap = min(len(start), len(target))
        k = cap if rng.random() < 0.5 else rng.randint(0, cap)
        got = split_tar_reachable(model, c, start, target, k)
        dist, _ = oracle_distance(model, c, start, target, k=k, rule="tar")
        assert got == (dist != math.inf)
        verdicts[got] += 1
    assert verdicts[False] > 0 and verdicts[True] > 0


def test_witness_sequences_verify():
    rng = random.Random(77777)
    produced = 0
    for _ in range(150):
        n = rng.randint(1, 11)
        c = rng.choice([1, 2, 3])
        model = random_split_model(rng, n, p=rng.random())
        start = greedy_set(model, c, rng, target=rng.randint(0, n))
        target = greedy_set(model, c, rng, target=rng.randint(0, n))
        cap = min(len(start), len(target))
        k = cap if rng.random() < 0.5 else rng.randint(0, cap)
        seq = split_tar_witness(model, c, start, target, k)
        if seq is None:
            assert not split_tar_reachable(model, c, start, target, k)
            continue
        produced += 1
        inst = Instance(model, "tar", c, k, start, target)
        result = verify_sequence(inst, seq)
        assert result.ok, result.reason
    assert produced > 50


def test_meta_edge_soundness_small():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randint(1, 8)
        c = rng.choice([1, 2])
        model = random_split_model(rng, n, p=rng.random())
        k = rng.randint(0, n)
        meta = build_meta_graph(model, c, k)
        for i, combo in enumerate(meta.nodes):
            for j in meta.adj[i]:
                if j < i:
                    continue
                a, b = t_set(model, combo, c), t_set(model, meta.nodes[j], c)
                dist, _ = oracle_distance(model, c, set(a), set(b),
                                          k=k, rule="tar")
                assert dist != math.inf
        # non-edges one vertex apart whose larger extension sits exactly at
        # the floor really are separated
        for i, combo in enumerate(meta.nodes):
            for v in combo:
                smaller = tuple(x for x in combo if x != v)
                j = meta.index.get(smaller)
                if j is None or j in meta.adj[i]:
                    continue
                a, b = t_set(model, combo, c), t_set(model, smaller, c)
                assert len(a) == k
                dist, _ = oracle_distance(model, c, set(a), set(b), k=k, rule="tar")
                assert dist == math.inf
