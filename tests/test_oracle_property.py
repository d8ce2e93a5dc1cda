"""Property test: every oracle sequence replays at exactly the distance it reports."""
from __future__ import annotations

import math
from itertools import combinations

import pytest

from csrecon import Graph, Instance, verify_sequence
from csrecon.core import make_tracker
from csrecon.oracle import oracle_distance

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def _edge_list_cases(draw):
    n = draw(st.integers(1, 8))
    edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    g = Graph(n, edges)
    c = draw(st.integers(1, 3))
    rule = draw(st.sampled_from(["tar", "tj", "ts"]))

    def colorable_set():
        tracker = make_tracker(g, (), c)
        for v in draw(st.permutations(range(n))):
            if draw(st.booleans()) and tracker.can_add(v):
                tracker.add(v)
        return tracker.members

    start, target = colorable_set(), colorable_set()
    if rule == "tar":
        k = draw(st.integers(0, min(len(start), len(target))))
    else:
        # any subset of a colorable set stays colorable
        k, size = 0, min(len(start), len(target))
        start, target = set(sorted(start)[:size]), set(sorted(target)[:size])
    return Instance(g, rule, c, k, start, target)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(_edge_list_cases())
def test_oracle_sequences_replay_at_the_reported_length(inst):
    dist, seq = oracle_distance(inst.representation, inst.c, inst.start, inst.target,
                                k=inst.k, rule=inst.rule, want_sequence=True)
    if dist == math.inf:
        assert seq is None
        return
    assert len(seq.steps) == dist
    assert verify_sequence(inst, seq).ok, (inst, seq)
