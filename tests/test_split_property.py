"""Property test: split reachability equals oracle reachability on random small instances."""
from __future__ import annotations

import math
from itertools import combinations

import pytest

from csrecon import Graph, SplitModel, split_tar_reachable
from csrecon.oracle import oracle_distance

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def _split_cases(draw):
    n = draw(st.integers(1, 10))
    size_k = draw(st.integers(0, n))
    kpart, ipart = range(size_k), range(size_k, n)
    edges = list(combinations(kpart, 2))
    edges += [(x, u) for u in ipart for x in kpart if draw(st.booleans())]
    model = SplitModel(Graph(n, edges), kpart)
    c = draw(st.integers(1, 3))
    nbrs = model.graph.adjacency

    def colorable_set():
        chosen = set(draw(st.sets(st.sampled_from(kpart), max_size=c))) if size_k else set()
        pool = [u for u in ipart if len(chosen) < c or not chosen <= nbrs[u]]
        return chosen | {u for u in pool if draw(st.booleans())}

    start, target = colorable_set(), colorable_set()
    k = draw(st.integers(0, min(len(start), len(target))))
    return model, c, start, target, k


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_split_cases())
def test_reachability_equals_oracle_property(case):
    model, c, start, target, k = case
    dist, _ = oracle_distance(model, c, start, target, k=k, rule="tar")
    assert split_tar_reachable(model, c, start, target, k) == (dist != math.inf)
