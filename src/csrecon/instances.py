"""The csr/1 instance and sequence file formats, plus sequence verification."""
from __future__ import annotations

import json
import operator
import re
import sys
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

from .core import (
    FormatError,
    Graph,
    IntervalModel,
    InvariantError,
    SplitModel,
    _clique_path,
    check_sets,
    make_tracker,
    model_from_intervals,
)

FORMAT_TAG = "csr/1"
RULES = ("tar", "tj", "ts")
REPRS = ("intervals", "edges", "split")
# where a pair body as render_instance writes it may end: digits, spaces and whole lines
_PAIR_LINES = re.compile(r"[0-9 \n]*[0-9](?=\n|\Z)")
_LONG_SET_LINE = re.compile(r"[0-9 ]{129,}")  # a set line JSON reads faster than int() does
# canonical text as the inside of a JSON list of its ints, and without its digits
_COMMAS = str.maketrans({" ": ",", "\n": ",", ">": ",", "+": None, "-": None})
_SPACING = str.maketrans(dict.fromkeys("0123456789"))  # canonical pair lines read " \n" each


@dataclass
class Instance:
    """One reconfiguration problem: a representation, a rule, budgets, and two sets."""

    representation: object
    rule: str
    c: int
    k: int
    start: set
    target: set
    # (l, r) pairs an interval instance was drawn from, rendered in place of its clique runs
    endpoints: list | None = None
    trackers: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self):
        return self.representation.n

    @property
    def repr_kind(self):
        if isinstance(self.representation, IntervalModel):
            return "intervals"
        if isinstance(self.representation, SplitModel):
            return "split"
        return "edges"

    def take_trackers(self):
        """The (S, S2) trackers parse_instance built, once (a replay moves them); else None."""
        trackers, self.trackers = self.trackers, None
        return trackers


@dataclass
class ReconSequence:
    """Delta-encoded reconfiguration sequence.

    Steps are tuples: ``('+', v)`` adds a vertex, ``('-', v)`` removes one,
    ``('>', u, v)`` swaps member u for nonmember v.
    """

    start: set
    steps: list = field(default_factory=list)


def tar_to_tj(seq):
    """Swaps for a TAR sequence at floor |S|-1 (Kamiński, Medvedev and Milanič, TCS 439, 2012).

    |S| members of each TAR set are kept, colourable as its subset; the rest are spare.
    A removed kept member swaps for the latest spare one, else for the next addition."""
    spare, gone, steps = {}, None, []  # a dict, so the latest spare member pops in O(1)
    for op, v in seq.steps:
        if op == "+" and gone is None:
            spare[v] = None
        elif op == "+":
            if v != gone:
                steps.append((">", gone, v))
            gone = None
        elif v in spare:
            del spare[v]
        elif spare:
            steps.append((">", v, spare.popitem()[0]))
        else:
            gone = v
    return ReconSequence(set(seq.start), steps)


@dataclass
class VerifyResult:
    ok: bool
    step: int | None = None
    reason: str | None = None


def check_instance(inst):
    """Raise InvariantError naming the first violated invariant; else return the S, S2 trackers."""
    if inst.rule not in RULES:
        raise InvariantError(f"unknown rule '{inst.rule}'")
    return check_sets(inst.representation, inst.c, inst.start, inst.target, inst.k,
                      same_size=inst.rule in ("tj", "ts"))


def _entries(numbered):
    """(line number, content) of each (line number, raw line) that holds more than a comment."""
    return ((lineno, line) for lineno, raw in numbered
            if (line := (raw.partition("#")[0] if "#" in raw else raw).strip()))


def _kv(entry):
    lineno, line = entry
    if ":" not in line:
        raise FormatError("expected 'key: value'", lineno)
    key, _, val = line.partition(":")
    return key.strip(), val.strip(), lineno


def _read_fields(lines, fields, stop=None):
    """Read ``key: value`` lines into ``fields`` as (raw value, line number)
    until key ``stop`` has been read; return whether it was."""
    for entry in lines:
        key, val, lineno = _kv(entry)
        if key in fields:
            raise FormatError(f"duplicate key '{key}'", lineno)
        fields[key] = (val, lineno)
        if key == stop:
            return True
    return False


def _quoted(tok):
    """``tok`` quoted for a message; past int()'s digit limit, cut short and the limit named."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()   # 0, or absent: no limit
    if not limit or len(tok) <= limit:
        return f"'{tok}'"
    return f"'{tok[:20]}…' ({len(tok)} characters; int() reads at most {limit} digits)"


def _int(val, lineno, what):
    try:
        return int(val)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {_quoted(val)}", lineno) from None


def _vertex_list(val, lineno):
    if _LONG_SET_LINE.fullmatch(val):
        try:  # JSON refuses a leading zero, a doubled space and a token past int()'s digit limit
            return json.loads(f"[{val.replace(' ', ',')}]")
        except ValueError:
            pass
    tokens = val.split()
    try:
        return list(map(int, tokens))
    except ValueError:
        for tok in tokens:  # only to name the first bad one
            try:
                int(tok)
            except ValueError:
                raise FormatError(f"bad vertex {_quoted(tok)}", lineno) from None


def _body_lines(lines, count, what, last):
    """The next ``count`` entries of ``lines``; ``last``, the text's last line, bounds them."""
    chunk = list(islice(lines, min(count, last)))
    if len(chunk) < count:
        raise FormatError(f"body ended early while reading {what}", last)
    return chunk


def _pairs(chunk, vertex_count=None):
    """The integer pairs on ``chunk``'s lines, checked line by line: edges with
    both ends in 0..vertex_count-1, or without a count interval endpoints l <= r."""
    what = "interval endpoints" if vertex_count is None else "edge"
    pairs = []
    for lineno, line in chunk:
        try:
            a, b = line.split()
            a, b = int(a), int(b)
        except ValueError:
            raise FormatError(f"expected two integers ({what})", lineno) from None
        if vertex_count is None:
            if a > b:
                raise FormatError(f"malformed endpoint pair ({a}, {b})", lineno)
        elif not (0 <= a < vertex_count and 0 <= b < vertex_count):
            raise FormatError(f"edge vertex out of range: {a} {b}", lineno)
        pairs.append((a, b))
    return pairs


class _Vertices(dict):
    """Vertex names to ints, each converted once: an edge body repeats its names."""

    def __missing__(self, token):
        self[token] = vertex = int(token)
        return vertex


def _canonical_pairs(body, count, vertex_count=None):
    """The left and the right ends of the pairs on ``body``, read in one pass; None unless
    it is ``count`` lines of two ASCII-digit tokens and one space that pass ``_pairs``'s checks."""
    spacing = body.translate(_SPACING) + "\n"
    if len(spacing) != 2 * count or spacing != " \n" * count:  # count comes from the text
        return None
    try:  # int() refuses a token past sys.get_int_max_str_digits(), JSON also a leading zero
        ints = (json.loads(f"[{body.translate(_COMMAS)}]") if vertex_count is None
                else list(map(_Vertices().__getitem__, body.split())))
    except ValueError:
        return None
    ls, rs = ints[::2], ints[1::2]
    ok = all(map(operator.le, ls, rs)) if vertex_count is None else max(ints) < vertex_count
    return (ls, rs) if ok and len(ints) == 2 * count else None  # split() drops empty tokens


class _Fields(dict):
    """Trailing fields as (raw value, line number) by key; ``end`` is the last nonblank line."""


def _need(fields, key, lineno, suffix=""):
    """``fields[key]``, or a FormatError at ``lineno`` that the key is missing."""
    if key not in fields:
        raise FormatError(f"missing '{key}:'{suffix}", lineno)
    return fields[key]


def parse_document(text):
    """Split csr/1 text into (header, representation, trailing fields).

    One pass reads the header up to and including ``body:``, the body (taken
    whole before it is parsed, so a short one is reported as ending early), and
    the trailing fields, kept raw for keys like reduction sources' I/I2/P/P2/s/t.
    A canonical pair body is read in one pass, any other line by line; a canonical
    intervals body right after the first bare ``body:`` line is not split into lines.
    """
    at = text.find("\nbody:\n") + 7 if "\nbody:\n" in text else len(text)
    raw = text[:at].splitlines()  # up to the first bare 'body:' line; the rest when needed
    numbered = enumerate(raw, start=1)
    lines = _entries(numbered)
    last = next(_entries(zip(range(len(raw), 0, -1), reversed(raw))), (0,))[0]
    if not last:
        raise FormatError("empty instance text", 1)
    header = {}
    if not _read_fields(lines, header, stop="body"):
        raise FormatError("missing 'body:' section", last)
    if header["body"][0]:
        raise FormatError("'body:' takes no inline value", header["body"][1])

    first = next(iter(header.values()))[1]    # the first field is on the first entry
    fmt, lineno = _need(header, "format", first, " before body")
    if fmt != FORMAT_TAG:
        raise FormatError(f"unsupported format '{fmt}'", lineno)
    kind, lineno = _need(header, "repr", first, " before body")
    if kind not in REPRS:
        raise FormatError(f"unknown repr '{kind}'", lineno)
    nval, lineno = _need(header, "n", first, " before body")
    n = _int(nval, lineno, "n")
    if n < 0:
        raise FormatError("n must be nonnegative", lineno)

    block = kind == "intervals" and header["body"][1] == len(raw) and _PAIR_LINES.match(text, at)
    before = 0  # raw[0] is line before + 1
    if coords := block and _canonical_pairs(block[0], n):
        before, raw = len(raw) + n, text[block.end() + 1:].splitlines()
        lines = _entries(enumerate(raw, start=before + 1))
    else:  # ``numbered``, a list iterator, reads on into the lines appended
        raw += text[at:].splitlines()
    last = before + next(_entries(zip(range(len(raw), 0, -1), reversed(raw))), (0,))[0]

    def read_pairs(after, count, what, vertex_count=None):
        """The ``count`` pairs on the lines after line ``after``."""
        chunk = raw[after:after + count]
        ends = len(chunk) == count and _canonical_pairs("\n".join(chunk), count, vertex_count)
        if not ends:
            return _pairs(_body_lines(lines, count, what, last), vertex_count)
        next(islice(numbered, count, count), None)  # the entries resume after them
        return zip(*ends)

    def read_graph():
        ((lineno, line),) = _body_lines(lines, 1, "edge count", last)
        m = _int(line, lineno, "edge count")
        if m < 0:
            raise FormatError("edge count must be nonnegative", lineno)
        return Graph(n, read_pairs(lineno, m, "edges", n))

    try:
        if coords:
            representation = _clique_path(*coords)
        elif kind == "intervals":
            representation = model_from_intervals(
                list(read_pairs(header["body"][1], n, "interval endpoints")))
        elif kind == "edges":
            representation = read_graph()
        else:
            (entry,) = _body_lines(lines, 1, "clique part", last)
            key, val, lineno = _kv(entry)
            if key != "K":
                raise FormatError("split body must start with 'K: ...'", lineno)
            kpart = _vertex_list(val, lineno)
            for v in kpart:
                if not 0 <= v < n:
                    raise FormatError(f"clique part vertex {v} out of range", lineno)
            representation = SplitModel(read_graph(), kpart)
    except InvariantError as exc:
        raise FormatError(str(exc)) from exc

    fields = _Fields()
    fields.end = last
    _read_fields(lines, fields)
    return header, representation, fields


def parse_instance(text):
    """Parse and validate a complete csr/1 instance; its interval pairs are kept as the model."""
    header, representation, fields = parse_document(text)
    body_line = header["body"][1]
    rule, lineno = _need(header, "rule", body_line)
    if rule not in RULES:
        raise FormatError(f"unknown rule '{rule}'", lineno)
    c = _int(*_need(header, "c", body_line), "c")
    k = _int(*_need(header, "k", body_line), "k")
    if "S" not in fields or "S2" not in fields:
        raise FormatError("missing 'S:' or 'S2:' after body", fields.end)
    start = set(_vertex_list(*fields["S"]))
    target = set(_vertex_list(*fields["S2"]))
    inst = Instance(representation, rule, c, k, start, target)
    inst.trackers = check_instance(inst)
    return inst


def _set_line(key, members):
    return f"{key}:" + " %d" * len(members) % tuple(sorted(members))


def render_instance(inst):
    """Canonical text form; parsing it back yields the same model, rule, budgets and sets."""
    out = [
        f"format: {FORMAT_TAG}",
        f"rule: {inst.rule}",
        f"c: {inst.c}",
        f"k: {inst.k}",
        f"repr: {inst.repr_kind}",
        f"n: {inst.n}",
        "body:",
    ]
    rep = inst.representation
    if inst.repr_kind == "intervals":
        endpoints = inst.endpoints if inst.endpoints is not None else zip(rep.lefts, rep.rights)
        out.extend(f"{l} {r}" for l, r in endpoints)
    else:
        if inst.repr_kind == "split":
            out.append(_set_line("K", rep.clique_part))
            rep = rep.graph
        edges = list(rep.edges())
        out.append(str(len(edges)))
        out.extend(f"{u} {v}" for u, v in edges)
    out.append(_set_line("S", inst.start))
    out.append(_set_line("S2", inst.target))
    return "\n".join(out) + "\n"


def render_sequence(seq):
    steps, shape = seq.steps, set(map(len, seq.steps))
    if len(shape) == 1:  # one step shape: one C-level format call; %.0s skips a swap's '>'
        lines = ("\n%s%d" if 2 in shape else "\n%.0s%d>%d") * len(steps) % tuple(chain(*steps))
    else:
        lines = "".join(f"\n{s[1]}>{s[2]}" if s[0] == ">" else f"\n{s[0]}{s[1]}" for s in steps)
    return _set_line("start", seq.start) + lines + "\n"


def parse_sequence(text):
    # as render_sequence writes it, text without its digits reads "start:", a space a start
    # vertex and "\n", then "+\n" or "-\n" a step, or ">\n" a step: never both kinds
    spacing = text.translate(_SPACING)
    head = spacing.find("\n") + 1
    size, signs = head - 7, spacing[head::2]   # the start set's size, a sign a step
    tar = not signs.strip("+-")
    ints = None
    if (text[:7] in ("start: ", "start:\n") and text[-1] == "\n"
            and spacing[:head] == "start:" + " " * size + "\n"
            and spacing[head + 1::2] == "\n" * len(signs)
            and (text.count("\n+") + text.count("\n-") == len(signs) if tar  # signs open lines
                 else not signs.strip(">"))):
        try:  # JSON refuses an empty token, a leading zero, and a token past int()'s limit
            ints = json.loads(f"[{text[7:-1].translate(_COMMAS)}]")
        except ValueError:
            pass
    if ints is not None and len(ints) == size + len(signs) * (2 - tar):  # else line by line
        steps = (zip(signs, ints[size:]) if tar
                 else zip(repeat(">"), ints[size::2], ints[size + 1::2]))
        return ReconSequence(set(ints[:size]), list(steps))
    entries = _entries(enumerate(text.splitlines(), start=1))
    lineno, line = next(entries, (1, None))
    if line is None:
        raise FormatError("empty sequence text", 1)
    key, colon, val = line.partition(":")
    if not colon or key.strip() != "start":
        raise FormatError("sequence must begin with 'start: ...'", lineno)
    start = set(_vertex_list(val.strip(), lineno))
    steps = []
    for lineno, line in entries:
        if ">" in line:  # before the sign test, since a swap may read "-1>2"
            u, _, v = line.partition(">")
            steps.append((">", _int(u.strip(), lineno, "vertex"),
                          _int(v.strip(), lineno, "vertex")))
        elif line[0] in "+-":
            steps.append((line[0], _int(line[1:].strip(), lineno, "vertex")))
        else:
            raise FormatError(f"bad step '{line}'", lineno)
    return ReconSequence(start, steps)


def verify_sequence(inst, seq):
    """Replay a sequence against an instance, checking every rule condition.

    A swap u>v is checked as the removal of u then the addition of v, so each
    step names an optional removed vertex u and an optional added vertex v.
    Returns a VerifyResult; on failure ``step`` is the index of the earliest
    violating step (None when the start set itself is wrong, len(steps) when
    only the final set mismatches).
    """
    if set(seq.start) != set(inst.start):
        return VerifyResult(False, None, "start set does not match S")
    n, c, k, rep = inst.n, inst.c, inst.k, inst.representation
    tracker = (inst.take_trackers() or [make_tracker(rep, seq.start, c)])[0]
    members = tracker.members  # kept in step by the tracker's add and remove
    tar, ts = inst.rule == "tar", inst.rule == "ts"
    for i, step in enumerate(seq.steps):
        kind = step[0]
        if tar and kind == ">":
            return VerifyResult(False, i, "swap step not allowed under tar")
        if not tar and kind != ">":
            return VerifyResult(False, i, f"only swap steps allowed under {inst.rule}")
        u = None if kind == "+" else step[1]
        v = None if kind == "-" else step[-1]
        if v is not None and not 0 <= v < n:
            return VerifyResult(False, i, f"vertex {v} out of range")
        if u is not None and u not in members:
            return VerifyResult(False, i, f"vertex {u} not in set")
        if v in members:  # None is never a member
            return VerifyResult(False, i, f"vertex {v} already in set")
        if ts and not rep.has_edge(u, v):
            return VerifyResult(False, i, f"not an edge: {u} {v}")
        if u is not None:
            tracker.remove(u)
        if v is None:
            if len(members) < k:
                return VerifyResult(False, i, "size below threshold")
        elif tracker.can_add(v):
            tracker.add(v)
        else:
            what = f"adding {v}" if u is None else f"swap {u}>{v}"
            return VerifyResult(False, i, f"set not {c}-colorable after {what}")
    if members != set(inst.target):
        return VerifyResult(False, len(seq.steps), "final set does not match S2")
    return VerifyResult(True)
