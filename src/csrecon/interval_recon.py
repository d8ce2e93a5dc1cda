"""Exact shortest TAR/TJ reconfiguration on clique-path (interval) models.

The distance between two colorable sets is the size of their symmetric
difference plus a correction of 0, 2, or 4 that depends only on whether each
set is "locked" (size exactly k and not extendable) inside the subgraph
induced by their union, and on whether a shared extension vertex exists
outside it.  If either set is locked in the whole graph no move applies at
all.  All checks reduce to per-clique member counts, so both the distance and
an explicit shortest sequence come out in time linear in the model size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .core import InvariantError, check_sets, make_tracker
from .instances import ReconSequence, tar_to_tj

IDENTICAL = "identical"
CASE1 = "case1"
CASE2 = "case2"
CASE3A = "case3a"
CASE3B = "case3b"
LOCKED = "locked-in-G"


@dataclass
class DistanceVerdict:
    """Distance plus the structural case that produced it.

    ``witnesses`` is the pair (u, w) of vertices that the locked cases add to
    the start and the target set: a shortest sequence opens with ``+u`` and
    closes with ``-w``.  A side the case leaves alone holds None.
    """

    case: str
    distance: int | float
    witnesses: tuple = (None, None)


def tar_distance(model, c, start, target, k, trackers=None):
    """Exact TAR(k) distance, with the structural case tag and witnesses; ``trackers``,
    the (S, S2) trackers of an earlier validation, spare checking the sets again."""
    start = set(start)
    target = set(target)
    t_a, t_b = trackers or check_sets(model, c, start, target, k)
    if start == target:
        return DistanceVerdict(IDENTICAL, 0)
    # a set above the floor can always move; at it, the smallest extension in G
    # decides locked-in-G and is the witness of case2 and case3b
    u = next(t_a.addable(), None) if len(start) == k else None
    w = next(t_b.addable(), None) if len(target) == k else None
    if len(start) == k and u is None or len(target) == k and w is None:
        return DistanceVerdict(LOCKED, math.inf)
    delta = len(start ^ target)
    locked_a = len(start) == k and next(t_a.addable(target - start), None) is None
    locked_b = len(target) == k and next(t_b.addable(start - target), None) is None
    if not locked_a and not locked_b:
        return DistanceVerdict(CASE1, delta)
    if locked_a != locked_b:
        return DistanceVerdict(CASE2, delta + 2, (u, None) if locked_a else (None, w))
    v = next((v for v in t_a.addable() if v not in target and t_b.can_add(v)), None)
    if v is not None:
        return DistanceVerdict(CASE3A, delta + 2, (v, v))
    return DistanceVerdict(CASE3B, delta + 4, (u, w))


def shortest_tar_sequence(model, c, start, target, k, verdict=None):
    """A valid TAR(k) sequence of exactly the distance length, or None.

    The locked cases are reduced to the unlocked one by adding their witness
    vertices at the ends first; the main loop then clears the symmetric
    difference two-endedly.  Steps taken from the target side go into a
    suffix buffer that is reversed, with inverted operations, when the two
    halves meet.  Pass a previously computed verdict to skip recomputing it.
    """
    start = set(start)
    target = set(target)
    if verdict is None:
        verdict = tar_distance(model, c, start, target, k)
    if verdict.distance == math.inf:
        return None
    a = set(start)
    b = set(target)
    prefix = []
    suffix = []
    u, w = verdict.witnesses
    if u is not None:
        prefix.append(("+", u))
        a.add(u)
    if w is not None:
        suffix.append(("+", w))
        b.add(w)
    _resolve_unlocked(model, c, k, a, b, prefix, suffix)
    steps = prefix
    for op in reversed(suffix):
        steps.append(("-", op[1]) if op[0] == "+" else ("+", op[1]))
    return ReconSequence(set(start), steps)


def _resolve_unlocked(model, c, k, a, b, prefix, suffix):
    """Clear the symmetric difference of two sets not locked in their union.

    Invariants kept by every branch: both sets stay colorable, at least k
    large, and unlocked within the (shrinking) union.  Each emitted step
    settles one vertex of the symmetric difference, so the step count equals
    the initial difference size.  The branch at size k can fire at most once
    per side because swaps preserve sizes afterwards.
    """
    spans = model.spans
    a_only = a - b
    b_only = b - a
    by_r_a = sorted((spans[v][1], v) for v in a_only)
    by_l_a = sorted((spans[v][0], v) for v in a_only)
    by_r_b = sorted((spans[v][1], v) for v in b_only)
    by_l_b = sorted((spans[v][0], v) for v in b_only)
    ra = la = rb = lb = 0
    while a_only or b_only:
        if len(a) == k:
            _extend_at_floor(model, c, a, b_only, prefix)
            continue
        if len(b) == k:
            _extend_at_floor(model, c, b, a_only, suffix)
            continue
        if not a_only:
            for v in sorted(b_only):
                prefix.append(("+", v))
                a.add(v)
            b_only.clear()
            break
        if not b_only:
            for v in sorted(a_only):
                prefix.append(("-", v))
                a.remove(v)
            a_only.clear()
            break
        while by_r_b[rb][1] not in b_only:
            rb += 1
        r_w, w = by_r_b[rb]
        while by_r_a[ra][1] not in a_only:
            ra += 1
        r_v, _ = by_r_a[ra]
        if r_w <= r_v:
            while by_l_a[la][1] not in a_only:
                la += 1
            u = by_l_a[la][1]
            prefix.append(("-", u))
            prefix.append(("+", w))
            a.remove(u)
            a.add(w)
            a_only.discard(u)
            b_only.discard(w)
        else:
            v = by_r_a[ra][1]
            while by_l_b[lb][1] not in b_only:
                lb += 1
            u = by_l_b[lb][1]
            suffix.append(("-", u))
            suffix.append(("+", v))
            b.remove(u)
            b.add(v)
            b_only.discard(u)
            a_only.discard(v)


def _extend_at_floor(model, c, members, candidates, out):
    """Add the smallest candidate that keeps ``members`` colorable, recording the step."""
    v = next(make_tracker(model, members, c).addable(candidates), None)
    if v is None:
        raise RuntimeError("no extension found for an unlocked set")
    out.append(("+", v))
    members.add(v)
    candidates.discard(v)


def tj_distance(model, c, start, target):
    """Swap distance between equal-size colorable sets; always finite.

    Half the TAR distance at k = max(|S|-1, 0) (Kamiński, Medvedev and Milanič,
    TCS 439, 2012).  Only a set of size k can be locked, and |S| = k only when
    both sets are empty, so the verdict there is ``identical`` or ``case1``.
    """
    start = set(start)
    target = set(target)
    if len(start) != len(target):
        raise InvariantError("size mismatch: |S| must equal |S2|")
    return tar_distance(model, c, start, target, max(len(start) - 1, 0)).distance // 2


def tj_sequence(model, c, start, target, verdict=None):
    """A shortest swap sequence, always found: the shortest TAR sequence at floor
    |S|-1 (from ``verdict`` when given), converted by ``tar_to_tj``."""
    start = set(start)
    target = set(target)
    if len(start) != len(target):
        raise InvariantError("size mismatch: |S| must equal |S2|")
    return tar_to_tj(shortest_tar_sequence(model, c, start, target, max(len(start) - 1, 0),
                                           verdict=verdict))
