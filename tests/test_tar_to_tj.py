"""The TAR-to-TJ converter, on every engine's TAR sequences."""
from __future__ import annotations

import math
import random
import time

from csrecon import (
    Graph,
    Instance,
    ReconSequence,
    SplitModel,
    oracle_distance,
    split_tar_witness,
    tar_to_tj,
    verify_sequence,
)
from csrecon.generators import random_edges_instance, random_split_instance


def _rises(seq):
    """Whether a TAR sequence ever holds more members than it starts with."""
    size = top = len(seq.start)
    for op, _ in seq.steps:
        size += 1 if op == "+" else -1
        top = max(top, size)
    return top > len(seq.start)


def test_spare_members_and_readditions_emit_no_swap():
    # a removed kept member takes the latest spare member, else the next addition
    seq = ReconSequence({0, 1}, [("+", 2), ("+", 3), ("-", 0), ("-", 2),
                                 ("-", 1), ("+", 1), ("-", 1), ("+", 4)])
    got = tar_to_tj(seq)
    assert got.start == {0, 1} and got.steps == [(">", 0, 3), (">", 1, 4)]


def test_conversion_is_linear_in_the_spare_members():
    # 30,000 kept members leave while up to 30,000 spare ones wait; scanning
    # the spare members for each swap would make this quadratic
    n = 60_001
    model = SplitModel(Graph(n, []), [0])
    start, target = set(range(1, 30_001)), set(range(30_001, n))
    witness = split_tar_witness(model, 1, start, target, len(start) - 1)
    began = time.perf_counter()
    swaps = tar_to_tj(witness)
    assert time.perf_counter() - began < 1.0
    assert len(swaps.steps) == 30_000
    assert verify_sequence(Instance(model, "tj", 1, 0, start, target), swaps).ok


def test_oracle_tar_sequences_convert_to_shortest_tj_sequences():
    # tj at |S| is tar at floor |S|-1, so a shortest TAR sequence there
    # converts to a shortest swap sequence, on any graph
    rng = random.Random(2012)
    rises = unreachable = 0
    for _ in range(2000):
        inst = random_edges_instance(rng, rng.randint(1, 9), rng.randint(1, 3), rule="tj",
                                     p=rng.choice((0.3, 0.5, 0.8)))
        g, c, start, target = inst.representation, inst.c, inst.start, inst.target
        if start == target:
            continue
        floor = max(len(start) - 1, 0)
        tar, seq = oracle_distance(g, c, start, target, k=floor, rule="tar")
        tj, _ = oracle_distance(g, c, start, target, rule="tj")
        if tar == math.inf:
            assert tj == math.inf
            unreachable += 1
            continue
        swaps = tar_to_tj(seq)
        assert verify_sequence(Instance(g, "tj", c, 0, start, target), swaps).ok
        assert len(swaps.steps) == tj
        rises += _rises(seq)
    assert rises > 0 and unreachable > 0


def test_split_witnesses_convert_to_valid_tj_sequences():
    rng = random.Random(439)
    longer = 0
    for _ in range(1000):
        inst = random_split_instance(rng, rng.randint(1, 10), rng.randint(1, 3), rule="tj",
                                     p=rng.random())
        model, c, start, target = inst.representation, inst.c, inst.start, inst.target
        witness = split_tar_witness(model, c, start, target, max(len(start) - 1, 0))
        tj, _ = oracle_distance(model, c, start, target, rule="tj")
        if witness is None:
            assert tj == math.inf
            continue
        swaps = tar_to_tj(witness)
        result = verify_sequence(inst, swaps)
        assert result.ok, result.reason
        assert len(swaps.steps) >= tj
        longer += len(swaps.steps) > tj
    # valid, but not claimed shortest
    assert longer > 0
