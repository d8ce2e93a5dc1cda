"""Exact shortest TAR/TJ reconfiguration on clique-path (interval) models.

The distance between two colorable sets is the size of their symmetric
difference plus a correction of 0, 2, or 4 that depends only on whether each
set is "locked" (size exactly k and not extendable) inside the subgraph
induced by their union, and on whether a shared extension vertex exists
outside it.  If either set is locked in the whole graph no move applies at
all.  All checks reduce to per-clique member counts, so the distance comes
out in time linear in the model size.  An explicit shortest sequence takes
O(n + t + d log d) for t cliques and d = |S Δ S2|, since its build sorts the
difference once by right end and each side's part once by left end, each a
stable sort by key of vertices in ascending order; bucketing by clique index
was measured and gained too little for the code it cost.
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

    The verdict's witnesses (recomputed when not given) reduce the locked
    cases to the unlocked one.  Both sets then stay colorable, at least k
    large and unlocked within their shrinking union, and each later step
    settles one vertex of their symmetric difference.  A side at the floor
    first gains its smallest fitting vertex from the other's difference, at
    most once per side since swaps keep sizes.  Then, while both differences
    are nonempty, the unsettled vertex x with the smallest right end (the
    target's on ties) is swapped into the side that lacks it: that side drops
    its own unsettled vertex with the smallest left end and takes x.  Last,
    the start side gains or sheds the rest.  The target side's steps are
    appended reversed, inverted.
    """
    start = set(start)
    target = set(target)
    if verdict is None:
        verdict = tar_distance(model, c, start, target, k)
    if verdict.distance == math.inf:
        return None
    u, w = verdict.witnesses
    prefix = [] if u is None else [("+", u)]
    suffix = [] if w is None else [("+", w)]
    a = start.union(v for _, v in prefix)
    b = target.union(v for _, v in suffix)
    a_only, b_only = a - b, b - a
    for members, other_only, out in ((a, b_only, prefix), (b, a_only, suffix)):
        if len(members) == k and other_only:
            v = next(make_tracker(model, members, c).addable(other_only), None)
            if v is None:
                raise RuntimeError("no extension found for an unlocked set")
            out.append(("+", v))
            other_only.discard(v)
    lefts, rights = model.lefts, model.rights
    # each side's unsettled vertices in (left end, vertex) order: stable sorts by key
    by_l_a, by_l_b = (filter(only.__contains__, sorted(sorted(only), key=lefts.__getitem__))
                      for only in (a_only, b_only))
    # (right end, target's side first, vertex) order
    for x in sorted([*sorted(b_only), *sorted(a_only)], key=rights.__getitem__):
        if x in b_only and a_only:
            u = next(by_l_a)
            prefix += (("-", u), ("+", x))
            b_only.discard(x)
            a_only.discard(u)
        elif x in a_only and b_only:
            u = next(by_l_b)
            suffix += (("-", u), ("+", x))
            a_only.discard(x)
            b_only.discard(u)
    prefix += [("+", v) for v in sorted(b_only)]
    prefix += [("-", v) for v in sorted(a_only)]
    prefix += [("-", v) if op == "+" else ("+", v) for op, v in reversed(suffix)]
    return ReconSequence(set(start), prefix)


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
