"""Distance verdicts, shortest sequences, and swap distances on interval models."""
from __future__ import annotations

import math
import random

import pytest

from csrecon import (
    Instance,
    InvariantError,
    interval_clique_counts,
    model_from_intervals,
    shortest_tar_sequence,
    tar_distance,
    tj_distance,
    tj_sequence,
    verify_sequence,
)
from csrecon.core import make_tracker
from csrecon.generators import greedy_set, random_endpoints
from csrecon.oracle import oracle_distance



def test_profile_examples(e1_model):
    assert interval_clique_counts(e1_model, {0, 1}) == [2, 1]
    assert interval_clique_counts(e1_model, set()) == [0, 0]
    assert interval_clique_counts(e1_model, {0, 2}) == [1, 1]


def test_find_addable_examples(e1_model):
    # the smallest vertex whose addition keeps the set colorable; None certifies maximality
    def first(members, c):
        return next(make_tracker(e1_model, members, c).addable(), None)

    assert first({1}, 1) is None
    assert first({0}, 1) == 2
    assert first(set(), 3) == 0


def test_find_common_addable_examples(e3_model, e5_model):
    # the smallest vertex outside both sets whose addition keeps both colorable
    def common(model, s_a, s_b, c):
        t_b = make_tracker(model, s_b, c)
        return next((v for v in make_tracker(model, s_a, c).addable()
                     if v not in s_b and t_b.can_add(v)), None)

    assert common(e5_model, {0}, {1}, 1) == 2
    assert common(e3_model, {1}, {2}, 1) is None
    assert common(e3_model, set(), set(), 1) == 0


def test_is_locked_within_examples(e2_model, e4_model):
    # locked within W: size exactly k, and no vertex of W extends the set
    def locked(model, members, k, within):
        return len(members) == k and next(make_tracker(model, members, 1).addable(within),
                                          None) is None

    assert locked(e2_model, {0}, 1, {0, 1})
    assert not locked(e2_model, {0, 1} - {1}, 2, {0, 1})  # |S| != k
    assert locked(e4_model, {1}, 1, {0, 1, 2})
    assert not locked(e4_model, {1}, 1, {0, 1, 2, 3})


GOLDEN = [
    ("e1", 1, {0}, {2}, 1, "case1", 2),
    ("e2", 1, {0}, {1}, 1, "locked-in-G", math.inf),
    ("e3", 1, {1}, {2}, 1, "case3b", 6),
    ("e4", 1, {1}, {0, 2}, 1, "case2", 5),
    ("e5", 1, {0}, {1}, 1, "case3a", 4),
]


@pytest.fixture
def models(e1_model, e2_model, e3_model, e4_model, e5_model):
    return {"e1": e1_model, "e2": e2_model, "e3": e3_model,
            "e4": e4_model, "e5": e5_model}


def test_golden_verdicts(models):
    for name, c, start, target, k, case, dist in GOLDEN:
        verdict = tar_distance(models[name], c, start, target, k)
        assert verdict.case == case, name
        assert verdict.distance == dist, name
        oracle, _ = oracle_distance(models[name], c, start, target, k=k, rule="tar")
        assert oracle == dist, name


def test_golden_sequences(models):
    for name, c, start, target, k, _case, dist in GOLDEN:
        seq = shortest_tar_sequence(models[name], c, start, target, k)
        if dist == math.inf:
            assert seq is None
            continue
        assert len(seq.steps) == dist
        inst = Instance(models[name], "tar", c, k, start, target)
        assert verify_sequence(inst, seq).ok


def test_exact_sequence_steps(e1_model, e5_model):
    assert shortest_tar_sequence(e1_model, 1, {0}, {2}, 1).steps == [("+", 2), ("-", 0)]
    assert shortest_tar_sequence(e5_model, 1, {0}, {1}, 1).steps == \
        [("+", 2), ("-", 0), ("+", 1), ("-", 2)]


def test_swap_policy_exact_steps():
    """The unsettled vertex with the smallest right end, S2's on ties, moves into the side
    that lacks it, and that side drops its vertex with the smallest left end."""
    # S2's vertex 1 ties S's vertex 3 at right end 1: the start side drops 3 (left end 1)
    # and takes 1, then drops 0 for 2
    model = model_from_intervals([(5, 5), (2, 3), (5, 5), (3, 3)])
    assert shortest_tar_sequence(model, 1, {0, 3}, {1, 2}, 0).steps == \
        [("-", 3), ("+", 1), ("-", 0), ("+", 2)]
    # S's vertex 0 alone holds right end 1: the target side drops 1 (left end 1) and takes 0,
    # appended last and inverted; then 2 and 3 tie at right end 4 and 3 goes in on the start side
    model = model_from_intervals([(1, 2), (2, 4), (4, 6), (5, 7), (3, 3)])
    assert shortest_tar_sequence(model, 1, {0, 2}, {1, 3}, 0).steps == \
        [("-", 2), ("+", 3), ("-", 0), ("+", 1)]


def test_witness_pair_of_every_verdict_case():
    """Draw small instances until every case occurs; check the (u, w) shape of each.

    u extends the start set and w the target set, so a shortest sequence
    opens with +u and closes with -w; a side the case leaves alone holds None.
    """
    rng = random.Random(0)
    seen = set()
    for _ in range(20_000):
        n = rng.randint(1, 10)
        c = rng.choice((1, 2))
        model = model_from_intervals(random_endpoints(rng, n))
        short = max(len(greedy_set(model, c, rng)) - 1, 0)
        start = greedy_set(model, c, rng, target=rng.randint(0, short))
        target = greedy_set(model, c, rng, target=rng.randint(0, short))
        k = min(len(start), len(target))
        verdict = tar_distance(model, c, start, target, k)
        seen.add(verdict.case)
        u, w = verdict.witnesses
        union = start | target
        if verdict.case in ("identical", "case1", "locked-in-G"):
            assert (u, w) == (None, None)
        elif verdict.case == "case2":
            assert (u is None) != (w is None)
            # the witness sits on the side that is locked within the union
            side, other = (start, target) if u is not None else (target, start)
            assert len(side) == k
            assert next(make_tracker(model, side, c).addable(other - side), None) is None
        elif verdict.case == "case3a":
            assert u is not None and u == w and u not in union
        else:
            assert verdict.case == "case3b"
            assert None not in (u, w) and u != w and not {u, w} & union
        for v, side in ((u, start), (w, target)):
            if v is not None:
                assert v not in side and make_tracker(model, side, c).can_add(v)
        seq = shortest_tar_sequence(model, c, start, target, k, verdict=verdict)
        if u is not None:
            assert seq.steps[0] == ("+", u)
        if w is not None:
            assert seq.steps[-1] == ("-", w)
        if seen == {"identical", "case1", "case2", "case3a", "case3b", "locked-in-G"}:
            break
    assert len(seen) == 6, seen


def test_identical_sets_give_empty_sequence(e1_model):
    verdict = tar_distance(e1_model, 1, {1}, {1}, 1)
    assert verdict.case == "identical" and verdict.distance == 0
    assert shortest_tar_sequence(e1_model, 1, {1}, {1}, 1).steps == []


def test_precondition_errors(e1_model):
    with pytest.raises(InvariantError, match="threshold"):
        tar_distance(e1_model, 1, set(), {2}, 1)
    with pytest.raises(InvariantError, match="colorable"):
        tar_distance(e1_model, 1, {0, 1}, {2}, 0)
    with pytest.raises(InvariantError, match="out of range"):
        tar_distance(e1_model, 1, {9}, {2}, 0)
    with pytest.raises(InvariantError, match="color budget c must be at least 1"):
        tar_distance(e1_model, 0, {0}, {2}, 0)
    with pytest.raises(InvariantError, match="threshold k must be nonnegative"):
        tar_distance(e1_model, 1, {0}, {2}, -1)
    with pytest.raises(InvariantError, match="S2 is not 1-colorable"):
        tar_distance(e1_model, 1, {0}, {1, 2}, 0)


def test_tj_examples(e1_model, e2_model):
    assert tj_distance(e1_model, 1, {0}, {2}) == 1
    assert tj_distance(e1_model, 1, {0}, {0}) == 0
    # the pair is stuck under TAR(1) but one swap suffices
    assert tar_distance(e2_model, 1, {0}, {1}, 1).distance == math.inf
    assert tar_distance(e2_model, 1, {0}, {1}, 0).distance == 2
    assert tj_distance(e2_model, 1, {0}, {1}) == 1
    # S == S2 is validated like any other pair
    assert tj_distance(e1_model, 1, set(), set()) == 0
    assert tj_sequence(e1_model, 1, set(), set()).steps == []
    for c, s, message in ((0, {0}, "color budget"), (1, {9}, "S: vertex 9 out of range"),
                          (1, {0, 1}, "S is not 1-colorable")):
        with pytest.raises(InvariantError, match=message):
            tj_distance(e1_model, c, s, s)
        with pytest.raises(InvariantError, match=message):
            tj_sequence(e1_model, c, s, s)


def test_tj_sequence_is_valid(e2_model, e3_model):
    seq = tj_sequence(e2_model, 1, {0}, {1})
    assert seq.steps == [(">", 0, 1)]
    seq = tj_sequence(e3_model, 1, {0, 2}, {1, 3})
    inst = Instance(e3_model, "tj", 1, 0, {0, 2}, {1, 3})
    assert verify_sequence(inst, seq).ok
    assert len(seq.steps) == tj_distance(e3_model, 1, {0, 2}, {1, 3})


def _random_case(rng, n_max=12):
    n = rng.randint(1, n_max)
    c = rng.choice([1, 2, 3])
    endpoints = random_endpoints(rng, n, coord_max=rng.randint(2, 10))
    model = model_from_intervals(endpoints)
    start = greedy_set(model, c, rng, target=rng.randint(0, n))
    target = greedy_set(model, c, rng, target=rng.randint(0, n))
    cap = min(len(start), len(target))
    k = cap if rng.random() < 0.5 else rng.randint(0, cap)
    return model, c, start, target, k


def test_distance_matches_oracle_randomized():
    rng = random.Random(1009)
    for _ in range(250):
        model, c, start, target, k = _random_case(rng)
        verdict = tar_distance(model, c, start, target, k)
        oracle, _ = oracle_distance(model, c, start, target, k=k, rule="tar")
        assert verdict.distance == oracle


def test_symmetry_parity_and_lower_bound():
    rng = random.Random(2203)
    for _ in range(200):
        model, c, start, target, k = _random_case(rng)
        fwd = tar_distance(model, c, start, target, k)
        bwd = tar_distance(model, c, target, start, k)
        assert fwd.distance == bwd.distance
        delta = len(start ^ target)
        if fwd.distance != math.inf:
            assert fwd.distance >= delta
            assert (fwd.distance - delta) % 2 == 0


def _locked_by_oracle(model, members, k, c, within):
    """Independent lockedness recomputation using plain colorability checks."""

    if len(members) != k:
        return False
    return all(not make_tracker(model, set(members) | {v}, c).colorable()
               for v in set(within) - set(members))


def test_case_tags_match_brute_force_lockedness():
    rng = random.Random(37)
    seen = set()
    for _ in range(400):
        model, c, start, target, k = _random_case(rng)
        verdict = tar_distance(model, c, start, target, k)
        seen.add(verdict.case)
        if verdict.case == "identical":
            assert start == target
            continue
        everything = set(range(model.n))
        union = start | target
        locked_g = (_locked_by_oracle(model, start, k, c, everything) or
                    _locked_by_oracle(model, target, k, c, everything))
        in_union = (_locked_by_oracle(model, start, k, c, union),
                    _locked_by_oracle(model, target, k, c, union))
        if verdict.case == "locked-in-G":
            assert locked_g
            continue
        assert not locked_g
        if verdict.case == "case1":
            assert in_union == (False, False)
        elif verdict.case == "case2":
            assert in_union in ((True, False), (False, True))
        else:
            assert in_union == (True, True)
            common = any(
                is_addable_to_both(model, c, start, target, v)
                for v in everything - union)
            assert (verdict.case == "case3a") == common
    assert {"case1", "locked-in-G", "identical"} <= seen


def is_addable_to_both(model, c, start, target, v):

    return (make_tracker(model, start | {v}, c).colorable() and
            make_tracker(model, target | {v}, c).colorable())


def test_sequences_valid_and_tight_randomized():
    rng = random.Random(555)
    for _ in range(250):
        model, c, start, target, k = _random_case(rng)
        verdict = tar_distance(model, c, start, target, k)
        seq = shortest_tar_sequence(model, c, start, target, k)
        if verdict.distance == math.inf:
            assert seq is None
            continue
        assert len(seq.steps) == verdict.distance
        inst = Instance(model, "tar", c, k, start, target)
        result = verify_sequence(inst, seq)
        assert result.ok, result.reason


def test_locked_union_cases_match_oracle():
    """Dense blocks plus faraway escape vertices make every verdict common."""
    rng = random.Random(13579)
    tags = {}
    for _ in range(900):
        n = rng.randint(2, 12)
        endpoints = []
        for _v in range(n):
            if rng.random() < 0.2:
                base = rng.randint(20, 24)
            else:
                base = rng.randint(1, 4)
            endpoints.append((base, base + rng.randint(0, 3)))
        model = model_from_intervals(endpoints)
        start = greedy_set(model, 1, rng, target=rng.randint(1, 3))
        target = greedy_set(model, 1, rng, target=len(start))
        while len(target) > len(start):
            target.remove(max(target))
        if len(start) != len(target):
            continue
        k = len(start)
        verdict = tar_distance(model, 1, start, target, k)
        oracle, _ = oracle_distance(model, 1, start, target, k=k, rule="tar")
        assert verdict.distance == oracle
        tags[verdict.case] = tags.get(verdict.case, 0) + 1
        if oracle != math.inf:
            seq = shortest_tar_sequence(model, 1, start, target, k, verdict=verdict)
            inst = Instance(model, "tar", 1, k, start, target)
            result = verify_sequence(inst, seq)
            assert result.ok and len(seq.steps) == oracle
    assert {"case2", "case3a", "case3b"} <= set(tags)


def test_tar_distance_never_falls_as_the_floor_rises():
    # a TAR(k+1) sequence is also a TAR(k) one, so the distance is monotone in k;
    # sets below maximal size, at every floor up to the smaller, reach every case
    rng = random.Random(909)
    cases = set()
    for _ in range(1000):
        n = rng.randint(1, 30)
        c = rng.choice([1, 2])
        endpoints = random_endpoints(rng, n, coord_max=rng.randint(2, n // 2 + 2),
                                     max_len=rng.choice([None, 1, 3]))
        model = model_from_intervals(endpoints)
        full = len(greedy_set(model, c, rng))
        start = greedy_set(model, c, rng, target=rng.randint(0, full))
        target = greedy_set(model, c, rng, target=rng.randint(0, full))
        verdicts = [tar_distance(model, c, start, target, k)
                    for k in range(min(len(start), len(target)) + 1)]
        distances = [v.distance for v in verdicts]
        assert distances == sorted(distances), (c, endpoints, start, target)
        cases.update(v.case for v in verdicts)
    assert cases == {"identical", "case1", "case2", "case3a", "case3b", "locked-in-G"}


def test_tar_tj_relation_randomized():
    rng = random.Random(808)
    for _ in range(150):
        n = rng.randint(1, 10)
        c = rng.choice([1, 2, 3])
        endpoints = random_endpoints(rng, n, coord_max=rng.randint(2, 8))
        model = model_from_intervals(endpoints)
        start = greedy_set(model, c, rng, target=rng.randint(1, n))
        target = greedy_set(model, c, rng, target=len(start))
        while len(target) > len(start):
            target.remove(max(target))
        if len(target) < len(start):
            continue
        k = len(start) - 1
        verdict = tar_distance(model, c, start, target, k)
        # neither set can be locked one below the common size
        assert verdict.case in ("identical", "case1")
        tar = verdict.distance
        tj_oracle, _ = oracle_distance(model, c, start, target, rule="tj")
        assert (tar == math.inf) == (tj_oracle == math.inf)
        if tar != math.inf:
            assert tar == 2 * tj_oracle
        assert tj_distance(model, c, start, target) == tj_oracle == len(start - target)
        seq = tj_sequence(model, c, start, target)
        assert len(seq.steps) == len(start - target)
        assert verify_sequence(Instance(model, "tj", c, 0, start, target), seq).ok
