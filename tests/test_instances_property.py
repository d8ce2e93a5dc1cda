"""Property tests: parsing undoes rendering, for sequences and for instances."""
from __future__ import annotations

import random

import pytest

from csrecon import (
    ReconSequence,
    parse_instance,
    parse_sequence,
    render_instance,
    render_sequence,
)
from csrecon.generators import (
    random_edges_instance,
    random_interval_instance,
    random_split_instance,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# negative vertices included: a swap with a negative u renders as "-1>2"
_vertices = st.integers(-30, 30)
_steps = st.one_of(
    st.tuples(st.sampled_from("+-"), _vertices),
    st.tuples(st.just(">"), _vertices, _vertices),
)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(st.sets(_vertices), st.lists(_steps, max_size=12))
def test_parse_sequence_undoes_render_sequence(start, steps):
    back = parse_sequence(render_sequence(ReconSequence(start, steps)))
    assert back.start == start and back.steps == steps


def _same_representation(kind, a, b):
    if kind == "intervals":
        return a.t == b.t and a.lefts == b.lefts and a.rights == b.rights
    if kind == "split":
        return a.graph == b.graph and a.clique_part == b.clique_part
    return a == b


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    st.sampled_from([random_interval_instance, random_split_instance, random_edges_instance]),
    st.integers(0, 2**32 - 1),
    st.integers(0, 10),
    st.integers(1, 3),
    st.sampled_from(["tar", "tj", "ts"]),
)
def test_parse_instance_undoes_render_instance(make, seed, n, c, rule):
    inst = make(random.Random(seed), n, c, rule=rule)
    back = parse_instance(render_instance(inst))
    assert (back.rule, back.c, back.k) == (inst.rule, inst.c, inst.k)
    assert back.start == inst.start and back.target == inst.target
    assert back.repr_kind == inst.repr_kind
    assert _same_representation(inst.repr_kind, back.representation, inst.representation)
