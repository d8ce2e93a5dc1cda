"""The brute-force BFS engine: distances, reports, and structural checks."""
from __future__ import annotations

import math
import random
from itertools import combinations

import pytest

from csrecon import (
    Graph,
    Instance,
    InvariantError,
    ResourceLimitError,
    enumerate_colorable_sets,
    model_from_intervals,
    oracle_connectivity_report,
    oracle_distance,
    verify_sequence,
)
from csrecon.core import adjacent_in
from csrecon.generators import random_endpoints, random_graph, random_split_model
from csrecon import core, oracle
from csrecon.oracle import build_state_space

from conftest import (
    brute_force_colorable, complete_graph, graph_from_model, graph_from_split, path_graph,
)


def test_distance_examples(e1_model, e2_model):
    dist, _ = oracle_distance(e2_model, 1, {0}, {1}, k=1, rule="tar")
    assert dist == math.inf
    dist, _ = oracle_distance(e1_model, 1, {0}, {2}, k=1, rule="tar")
    assert dist == 2
    dist, _ = oracle_distance(e1_model, 1, {1}, {1}, k=1, rule="tar")
    assert dist == 0


def test_sequences_come_back_valid(e4_model):
    dist, seq = oracle_distance(e4_model, 1, {1}, {0, 2}, k=1, rule="tar",
                                want_sequence=True)
    assert dist == 5 and len(seq.steps) == 5
    inst = Instance(e4_model, "tar", 1, 1, {1}, {0, 2})
    assert verify_sequence(inst, seq).ok

    dist, seq = oracle_distance(path_graph(4), 1, {0, 2}, {1, 3}, rule="tj",
                                want_sequence=True)
    assert dist == len(seq.steps)
    inst = Instance(path_graph(4), "tj", 1, 0, {0, 2}, {1, 3})
    assert verify_sequence(inst, seq).ok


def test_ts_respects_edges():
    g = path_graph(3)
    # sliding 0>2 skips the middle: under ts the only way from {0} to {2} is via 1,
    # which is blocked at c=1 size 1 by adjacency... swaps 0>1 then 1>2 work
    dist, seq = oracle_distance(g, 1, {0}, {2}, rule="ts", want_sequence=True)
    assert dist == 2
    inst = Instance(g, "ts", 1, 0, {0}, {2})
    assert verify_sequence(inst, seq).ok


def test_vertex_guard():
    g = complete_graph(25)
    with pytest.raises(ResourceLimitError):
        oracle_distance(g, 1, set(), set(), k=0, rule="tar")
    dist, _ = oracle_distance(g, 1, {0}, {24}, k=0, rule="tar", max_n=25)
    assert dist == 2


def test_state_cap():
    g = Graph(10)
    with pytest.raises(ResourceLimitError):
        oracle_distance(g, 1, set(), set(), k=0, rule="tar", max_states=5)


def test_pruned_enumeration_equals_filtered_full_enumeration():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(0, 9)
        g = random_graph(rng, n, p=rng.random())
        c = rng.randint(1, 3)
        full = enumerate_colorable_sets(g, c)
        for size in range(n + 2):
            assert enumerate_colorable_sets(g, c, min_size=size) == \
                [s for s in full if len(s) >= size]
            assert enumerate_colorable_sets(g, c, exact_size=size) == \
                [s for s in full if len(s) == size]


def test_enumeration_equals_filtered_combinations():
    # an independent reference: every subset in lexicographic order, kept when
    # brute force colors it; this also pins the order the walk promises
    rng = random.Random(97)
    for _ in range(20):
        n = rng.randint(0, 8)
        g = random_graph(rng, n, p=rng.random())
        split = random_split_model(rng, n)
        model = model_from_intervals(random_endpoints(rng, n))
        for rep, plain in ((g, g), (split, graph_from_split(split)),
                           (model, graph_from_model(model))):
            subsets = sorted(s for size in range(n + 1) for s in combinations(range(n), size))
            for c in (1, 2, 3):
                want = [s for s in subsets if brute_force_colorable(plain, s, c)]
                for size in range(n + 2):
                    assert enumerate_colorable_sets(rep, c, min_size=size) == \
                        [s for s in want if len(s) >= size], (rep, c, size)
                    assert enumerate_colorable_sets(rep, c, exact_size=size) == \
                        [s for s in want if len(s) == size], (rep, c, size)


def test_oracle_sequences_replay():
    rng = random.Random(271)
    reached = 0
    for _ in range(60):
        n = rng.randint(1, 8)
        reps = (random_graph(rng, n, p=rng.random()), random_split_model(rng, n),
                model_from_intervals(random_endpoints(rng, n)))
        for rep in reps:
            for rule in ("tar", "tj", "ts"):
                c = rng.choice([1, 2])
                size = None if rule == "tar" else rng.randint(0, n)
                sets = enumerate_colorable_sets(rep, c, exact_size=size)
                if not sets:
                    continue
                start, target = set(rng.choice(sets)), set(rng.choice(sets))
                k = rng.randint(0, min(len(start), len(target))) if rule == "tar" else 0
                dist, seq = oracle_distance(rep, c, start, target, k=k, rule=rule,
                                            want_sequence=True)
                if dist == math.inf:
                    assert seq is None
                    continue
                assert len(seq.steps) == dist
                assert verify_sequence(Instance(rep, rule, c, k, start, target), seq).ok, \
                    (rep, rule, c, k, start, target)
                reached += dist > 0
    # enough nonempty sequences that every step kind gets decoded many times
    assert reached >= 200


def test_size_floor_bounds_enumeration_work(monkeypatch):
    # edgeless n=16 at tar k=16 keeps one state; the search must not visit 2^16 sets
    calls = 0
    make_tracker = oracle.make_tracker

    def counting(*args, **kwargs):
        tracker = make_tracker(*args, **kwargs)
        can_add = tracker.can_add

        def counted(v):
            nonlocal calls
            calls += 1
            return can_add(v)

        tracker.can_add = counted
        return tracker

    monkeypatch.setattr(oracle, "make_tracker", counting)
    everything = set(range(16))
    dist, _ = oracle_distance(Graph(16), 1, everything, everything, k=16, rule="tar")
    assert dist == 0
    assert calls <= 16 * 16


def test_distance_input_errors():
    g = Graph(3, [(0, 1)])
    with pytest.raises(InvariantError, match="S: vertex 5 out of range"):
        oracle_distance(g, 1, {0, 5}, {1})
    with pytest.raises(InvariantError, match="color budget c must be at least 1"):
        oracle_distance(g, 0, {0}, {1})
    with pytest.raises(InvariantError, match="threshold k must be nonnegative"):
        oracle_distance(g, 1, {0}, {1}, k=-1)


def test_report_state_cap_by_default():
    # one BFS per state for the diameters: 2^11 states are refused unless asked for
    with pytest.raises(ResourceLimitError, match="max_states=1024"):
        oracle_connectivity_report(Graph(11), 1, 0, rule="tar")
    report = oracle_connectivity_report(Graph(10), 1, 0, rule="tar")
    assert report.sizes == [1024] and report.diameters == [10]


def test_connectivity_report_examples(e2_model):
    report = oracle_connectivity_report(e2_model, 1, 1, rule="tar")
    assert report.components == 2 and report.sizes == [1, 1]
    report = oracle_connectivity_report(Graph(2), 1, 0, rule="tar")
    assert report.components == 1 and report.sizes == [4] and report.diameters == [2]
    report = oracle_connectivity_report(Graph(0), 1, 0, rule="tar")
    assert report.components == 1 and report.sizes == [1] and report.diameters == [0]


def test_adjacency_symmetric_everywhere():
    rng = random.Random(404)
    for _ in range(40):
        n = rng.randint(0, 9)
        g = random_graph(rng, n, p=rng.random())
        rule = rng.choice(["tar", "tj", "ts"])
        size = rng.randint(0, n)
        space = build_state_space(g, rng.randint(1, 3), rng.randint(0, n), rule,
                                  size=size)
        for i, neighbors in enumerate(space.adj):
            for j in neighbors:
                assert i in space.adj[j]


def test_adjacency_equals_brute_force_steps():
    # tar: one vertex added or removed; tj: one swap; ts: one swap along an edge
    rng = random.Random(515)
    for _ in range(25):
        n = rng.randint(0, 8)
        c = rng.randint(1, 3)
        reps = (random_graph(rng, n, p=rng.random()), random_split_model(rng, n),
                model_from_intervals(random_endpoints(rng, n)))
        for rep in reps:
            for rule in ("tar", "tj", "ts"):
                k = rng.randint(0, n)
                space = build_state_space(rep, c, k, rule, size=k)
                sets = [{v for v in range(n) if mask >> v & 1} for mask in space.states]
                want = []
                for a in sets:
                    row = []
                    for j, b in enumerate(sets):
                        diff = a ^ b
                        if rule == "tar":
                            step = len(diff) == 1
                        else:
                            step = len(diff) == 2 and (rule == "tj" or adjacent_in(rep, *diff))
                        if step:
                            row.append(j)
                    want.append(row)
                assert space.adj == want, (rule, c, k, rep)


def test_tar_distance_monotone_in_k():
    rng = random.Random(741)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, p=0.4)
        c = rng.choice([1, 2])
        sets = enumerate_colorable_sets(g, c)
        if len(sets) < 2:
            continue
        start = set(rng.choice(sets))
        target = set(rng.choice(sets))
        prev = -1
        for k in range(0, min(len(start), len(target)) + 1):
            dist, _ = oracle_distance(g, c, start, target, k=k, rule="tar")
            if prev != -1:
                assert dist >= prev or dist == math.inf
            prev = dist if dist != math.inf else math.inf


def test_tar_tj_relation_on_plain_graphs():
    rng = random.Random(853)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 8)
        g = random_graph(rng, n, p=rng.random())
        c = rng.choice([1, 2])
        size = rng.randint(1, max(1, n))
        sets = enumerate_colorable_sets(g, c, exact_size=size)
        if len(sets) < 2:
            continue
        start = set(rng.choice(sets))
        target = set(rng.choice(sets))
        tar, _ = oracle_distance(g, c, start, target, k=size - 1, rule="tar")
        tj, _ = oracle_distance(g, c, start, target, rule="tj")
        assert (tar == math.inf) == (tj == math.inf)
        if tar != math.inf:
            assert tar == 2 * tj
        checked += 1


def test_enumeration_backtracks_only_when_no_color_is_free(monkeypatch):
    # edgeless: every vertex finds a free class, so the only full coloring is
    # that of the empty start set
    calls = 0
    exact_classes = core._exact_classes

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return exact_classes(*args, **kwargs)

    monkeypatch.setattr(core, "_exact_classes", counted)
    assert len(enumerate_colorable_sets(Graph(12), 2)) == 2 ** 12
    assert calls <= 1
