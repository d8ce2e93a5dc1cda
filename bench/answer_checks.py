"""Answer checks that use none of the program's own code.

Every solve answer the benchmark receives is checked here before it counts
as correct.  The checks work from the generated input (endpoints, edge
lists, the two sets and the budgets) and re-derive what they need:

* interval graphs: point coverage over the raw coordinates (an interval
  set is c-colorable iff no coordinate is covered more than c times);
* split graphs: clique-side count plus one independent vertex adjacent to
  all of it (split graphs are perfect, so colorability is the clique bound);
* small edge lists (c <= 2): independence or a 2-coloring by BFS.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass
class Facts:
    """What the benchmark knows about one generated instance."""

    kind: str                      # "intervals", "split" or "edges"
    rule: str
    c: int
    k: int
    start: frozenset
    target: frozenset
    n: int
    endpoints: list | None = None  # intervals
    clique: frozenset | None = None  # split
    adj: list | None = None        # split and edges: neighbour sets
    reference: str | None = None   # engine answer line, oracle_small only


# --- feasibility, per representation ------------------------------------------

class _Coverage:
    """Point coverage of the member intervals over the raw coordinates."""

    def __init__(self, facts, members):
        self.endpoints = facts.endpoints
        self.c = facts.c
        top = max((r for _, r in self.endpoints), default=0)
        self.cover = [0] * (top + 2)
        for v in members:
            self._shift(v, 1)

    def _shift(self, v, delta):
        l, r = self.endpoints[v]
        cover = self.cover
        for x in range(l, r + 1):
            cover[x] += delta

    def fits(self, v):
        l, r = self.endpoints[v]
        return max(self.cover[l:r + 1]) < self.c

    def add(self, v):
        self._shift(v, 1)

    def remove(self, v):
        self._shift(v, -1)


class _Recount:
    """Recomputes colorability of the whole set; meant for small graphs and sets."""

    def __init__(self, facts, members):
        self.facts = facts
        self.members = set(members)

    def fits(self, v):
        return colorable(self.facts, self.members | {v})

    def add(self, v):
        self.members.add(v)

    def remove(self, v):
        self.members.discard(v)


def colorable(facts, members):
    """Colorability of ``members`` in a split or edge-list graph, by the benchmark's own rules."""
    adj = facts.adj
    if facts.kind == "split":
        chosen = [v for v in members if v in facts.clique]
        omega = len(chosen)
        if any(v not in facts.clique and all(u in adj[v] for u in chosen)
               for v in members):
            omega += 1
        return omega <= facts.c
    if facts.c == 1:
        return not any(adj[v] & members for v in members)
    if facts.c == 2:
        side = {}
        for root in members:
            if root in side:
                continue
            side[root] = 0
            queue = deque([root])
            while queue:
                v = queue.popleft()
                for u in adj[v] & members:
                    if u not in side:
                        side[u] = 1 - side[v]
                        queue.append(u)
                    elif side[u] == side[v]:
                        return False
        return True
    raise ValueError("edge-list checks support c <= 2 only")


def adjacent(facts, u, v):
    if facts.kind == "intervals":
        (lu, ru), (lv, rv) = facts.endpoints[u], facts.endpoints[v]
        return lu <= rv and lv <= ru
    return v in facts.adj[u]


def _tracker(facts, members):
    return _Coverage(facts, members) if facts.kind == "intervals" else _Recount(facts, members)


# --- sequences -----------------------------------------------------------------

def parse_steps(text):
    """Sequence-file text to (start set, steps); steps as ('+', v), ('-', v), ('>', u, v)."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or not lines[0].startswith("start:"):
        raise ValueError("sequence does not begin with 'start:'")
    start = {int(tok) for tok in lines[0][len("start:"):].split()}
    steps = []
    for line in lines[1:]:
        if line[0] in "+-":
            steps.append((line[0], int(line[1:])))
        else:
            u, _, v = line.partition(">")
            steps.append((">", int(u), int(v)))
    return start, steps


def replay(facts, text):
    """Replay a sequence file under the instance's rule; return (reason or None, step count)."""
    try:
        start, steps = parse_steps(text)
    except ValueError as exc:
        return f"unreadable sequence: {exc}", 0
    if start != facts.start:
        return "sequence does not start at S", len(steps)
    cur = set(start)
    track = _tracker(facts, cur)
    swap_rule = facts.rule in ("tj", "ts")
    for i, step in enumerate(steps):
        if (step[0] == ">") != swap_rule:
            return f"step {i}: wrong step kind for {facts.rule}", len(steps)
        if step[0] == "-":
            if step[1] not in cur or len(cur) - 1 < facts.k:
                return f"step {i}: bad removal of {step[1]}", len(steps)
            cur.remove(step[1])
            track.remove(step[1])
            continue
        if step[0] == ">":
            u, v = step[1], step[2]
            if u not in cur or (facts.rule == "ts" and not adjacent(facts, u, v)):
                return f"step {i}: bad swap {u}>{v}", len(steps)
            cur.remove(u)
            track.remove(u)
        else:
            v = step[1]
        if not 0 <= v < facts.n or v in cur or not track.fits(v):
            return f"step {i}: adding {v} is infeasible", len(steps)
        cur.add(v)
        track.add(v)
    if cur != facts.target:
        return "sequence does not end at S2", len(steps)
    return None, len(steps)


def locked_in_graph(facts, members):
    """True iff no vertex outside ``members`` can join it (interval instances)."""
    cov = _Coverage(facts, members)
    blocked = [0]
    for a in cov.cover:
        blocked.append(blocked[-1] + (a >= facts.c))
    # blocked[r + 1] - blocked[l] counts the saturated coordinates in l..r
    return all(blocked[r + 1] != blocked[l]
               for v, (l, r) in enumerate(facts.endpoints) if v not in members)


# --- answers -------------------------------------------------------------------

@dataclass
class Outcome:
    """What one solve (plus the verify of its sequence) returned."""

    code: int | str          # exit code, or "crash" when the CLI raised
    answer: str              # first stdout line
    sequence: str | None     # emitted sequence text, when one was written
    verify_code: int | None = None
    verify_answer: str | None = None


def _distance(answer):
    try:
        return int(answer)
    except ValueError:
        return None


def check(facts, out, expect_sequence):
    """Reason the outcome is wrong, or None when every check passes."""
    if out.code not in (0, 1):
        return f"exit code {out.code}: {out.answer}"
    delta = len(facts.start ^ facts.target)
    dist = _distance(out.answer)
    reachable = dist is not None or out.answer == "reachable"
    if reachable != (out.code == 0):
        return f"answer '{out.answer}' does not match exit code {out.code}"
    if not reachable and out.answer not in ("unreachable", "unreachable (locked)"):
        return f"unrecognised answer '{out.answer}'"
    ref = facts.reference
    if ref is not None:
        got = out.answer if facts.kind == "intervals" else \
            ("reachable" if reachable else "unreachable")
        if got != ref:
            return f"answer '{out.answer}' differs from the engine's '{ref}'"
    if not reachable:
        if facts.kind == "intervals" and ref is None:
            # the interval engine may only refuse when a set is locked in G
            sides = [s for s in (facts.start, facts.target) if len(s) == facts.k]
            if out.answer != "unreachable (locked)" or facts.start == facts.target or \
                    not any(locked_in_graph(facts, s) for s in sides):
                return f"'{out.answer}' without a set at the floor that nothing extends"
        return None
    if dist is not None:
        if facts.kind == "intervals" and ref is None:
            excess = dist - delta if facts.rule == "tar" else 2 * dist - delta
            if excess not in (0, 2, 4):
                return f"distance {dist} is off |S^S2|={delta} by {excess}"
        elif facts.rule == "tar" and (dist < delta or (dist - delta) % 2):
            return f"tar distance {dist} impossible for |S^S2|={delta}"
        elif facts.rule != "tar" and dist < delta // 2:
            return f"swap distance {dist} below |S-S2|={delta // 2}"
    if not expect_sequence:
        return None
    if out.sequence is None:
        return "no sequence was written"
    reason, length = replay(facts, out.sequence)
    if reason is not None:
        return reason
    if dist is not None and length != dist:
        return f"sequence has {length} steps, distance printed {dist}"
    if out.verify_code != 0 or out.verify_answer != "ok":
        return f"csrecon verify said '{out.verify_answer}' (exit {out.verify_code})"
    return None
