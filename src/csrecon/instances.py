"""The csr/1 instance and sequence file formats, plus sequence verification."""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    FormatError,
    Graph,
    IntervalModel,
    InvariantError,
    SplitModel,
    adjacent_in,
    check_sets,
    make_tracker,
    model_from_intervals,
)

FORMAT_TAG = "csr/1"
RULES = ("tar", "tj", "ts")
REPRS = ("intervals", "edges", "split")


@dataclass
class Instance:
    """One reconfiguration problem: a representation, a rule, budgets, and two sets."""

    representation: object
    rule: str
    c: int
    k: int
    start: set
    target: set
    # raw interval input kept so rendering reproduces the file body verbatim
    endpoints: list | None = None

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


@dataclass
class ReconSequence:
    """Delta-encoded reconfiguration sequence.

    Steps are tuples: ``('+', v)`` adds a vertex, ``('-', v)`` removes one,
    ``('>', u, v)`` swaps member u for nonmember v.
    """

    start: set
    steps: list = field(default_factory=list)

    def __len__(self):
        return len(self.steps)


@dataclass
class VerifyResult:
    ok: bool
    step: int | None = None
    reason: str | None = None


def check_instance(inst):
    """Raise InvariantError naming the first violated instance invariant."""
    if inst.rule not in RULES:
        raise InvariantError(f"unknown rule '{inst.rule}'")
    check_sets(inst.representation, inst.c, inst.start, inst.target, inst.k,
               same_size=inst.rule in ("tj", "ts"))


def _clean(line):
    if "#" in line:
        line = line.split("#", 1)[0]
    return line.strip()


def _entries(text):
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _clean(raw)
        if line:
            out.append((lineno, line))
    return out


def _kv(entry):
    lineno, line = entry
    if ":" not in line:
        raise FormatError("expected 'key: value'", lineno)
    key, _, val = line.partition(":")
    return key.strip(), val.strip(), lineno


def _int(val, what, lineno):
    try:
        return int(val)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got '{val}'", lineno) from None


def _vertex_list(val, lineno):
    out = []
    for tok in val.split():
        try:
            out.append(int(tok))
        except ValueError:
            raise FormatError(f"bad vertex '{tok}'", lineno) from None
    return out


def _int_pair(entry, what):
    lineno, line = entry
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"expected two integers ({what})", lineno)
    try:
        return int(parts[0]), int(parts[1]), lineno
    except ValueError:
        raise FormatError(f"expected two integers ({what})", lineno) from None


def parse_document(text):
    """Split csr/1 text into (header, representation, endpoints, trailing fields).

    Trailing fields keep their raw string values so callers with extra keys
    (reduction sources use I/I2/P/P2/s/t) can interpret them.
    """
    entries = _entries(text)
    if not entries:
        raise FormatError("empty instance text", 1)
    header = {}
    pos = 0
    while pos < len(entries):
        key, val, lineno = _kv(entries[pos])
        pos += 1
        if key == "body":
            if val:
                raise FormatError("'body:' takes no inline value", lineno)
            break
        if key in header:
            raise FormatError(f"duplicate key '{key}'", lineno)
        header[key] = (val, lineno)
    else:
        raise FormatError("missing 'body:' section", entries[-1][0])

    def need(key):
        if key not in header:
            raise FormatError(f"missing '{key}:' before body", entries[0][0])
        return header[key]

    fmt, lineno = need("format")
    if fmt != FORMAT_TAG:
        raise FormatError(f"unsupported format '{fmt}'", lineno)
    kind, lineno = need("repr")
    if kind not in REPRS:
        raise FormatError(f"unknown repr '{kind}'", lineno)
    nval, lineno = need("n")
    n = _int(nval, "n", lineno)
    if n < 0:
        raise FormatError("n must be nonnegative", lineno)

    def take(count, what):
        nonlocal pos
        if pos + count > len(entries):
            raise FormatError(f"body ended early while reading {what}", entries[-1][0])
        chunk = entries[pos:pos + count]
        pos += count
        return chunk

    def read_graph():
        (entry,) = take(1, "edge count")
        m = _int(entry[1], "edge count", entry[0])
        if m < 0:
            raise FormatError("edge count must be nonnegative", entry[0])
        edges = []
        for e in take(m, "edges"):
            u, v, lineno = _int_pair(e, "edge")
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"edge vertex out of range: {u} {v}", lineno)
            edges.append((u, v))
        return Graph(n, edges)

    endpoints = None
    try:
        if kind == "intervals":
            endpoints = []
            for entry in take(n, "interval endpoints"):
                l, r, lineno = _int_pair(entry, "interval endpoints")
                if l > r:
                    raise FormatError(f"malformed endpoint pair ({l}, {r})", lineno)
                endpoints.append((l, r))
            representation = model_from_intervals(endpoints)
        elif kind == "edges":
            representation = read_graph()
        else:
            (entry,) = take(1, "clique part")
            key, val, lineno = _kv(entry)
            if key != "K":
                raise FormatError("split body must start with 'K: ...'", lineno)
            kpart = _vertex_list(val, lineno)
            g = read_graph()
            representation = SplitModel(g, kpart, set(range(n)) - set(kpart))
    except InvariantError as exc:
        raise FormatError(str(exc)) from exc

    fields = {}
    while pos < len(entries):
        key, val, lineno = _kv(entries[pos])
        pos += 1
        if key in fields:
            raise FormatError(f"duplicate key '{key}'", lineno)
        fields[key] = (val, lineno)
    return header, representation, endpoints, fields


def parse_instance(text):
    """Parse and validate a complete csr/1 instance."""
    header, representation, endpoints, fields = parse_document(text)

    def need_header(key):
        if key not in header:
            raise FormatError(f"missing '{key}:'", 1)
        return header[key]

    rule, lineno = need_header("rule")
    if rule not in RULES:
        raise FormatError(f"unknown rule '{rule}'", lineno)
    cval, clineno = need_header("c")
    c = _int(cval, "c", clineno)
    kval, klineno = need_header("k")
    k = _int(kval, "k", klineno)
    if "S" not in fields or "S2" not in fields:
        raise FormatError("missing 'S:' or 'S2:' after body", 1)
    start = set(_vertex_list(*fields["S"]))
    target = set(_vertex_list(*fields["S2"]))
    inst = Instance(representation, rule, c, k, start, target, endpoints=endpoints)
    check_instance(inst)
    return inst


def _set_line(key, members):
    if not members:
        return f"{key}:"
    return f"{key}: " + " ".join(str(v) for v in sorted(members))


def render_instance(inst):
    """Canonical text form; parsing it back yields an equal instance."""
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
        endpoints = inst.endpoints if inst.endpoints is not None else rep.spans
        out.extend(f"{l} {r}" for l, r in endpoints)
    else:
        if inst.repr_kind == "split":
            out.append(_set_line("K", rep.clique_part))
            rep = rep.graph
        edges = sorted(rep.edges())
        out.append(str(len(edges)))
        out.extend(f"{u} {v}" for u, v in edges)
    out.append(_set_line("S", inst.start))
    out.append(_set_line("S2", inst.target))
    return "\n".join(out) + "\n"


def _render_step(step):
    if step[0] == "+":
        return f"+{step[1]}"
    if step[0] == "-":
        return f"-{step[1]}"
    return f"{step[1]}>{step[2]}"


def render_sequence(seq):
    out = [_set_line("start", seq.start)]
    out.extend(_render_step(s) for s in seq.steps)
    return "\n".join(out) + "\n"


def parse_sequence(text):
    entries = _entries(text)
    if not entries:
        raise FormatError("empty sequence text", 1)
    if ":" not in entries[0][1]:
        raise FormatError("sequence must begin with 'start: ...'", entries[0][0])
    key, val, lineno = _kv(entries[0])
    if key != "start":
        raise FormatError("sequence must begin with 'start: ...'", lineno)
    start = set(_vertex_list(val, lineno))
    steps = []
    for lineno, line in entries[1:]:
        if line.startswith("+"):
            steps.append(("+", _int(line[1:].strip(), "vertex", lineno)))
        elif line.startswith("-"):
            steps.append(("-", _int(line[1:].strip(), "vertex", lineno)))
        elif ">" in line:
            u, _, v = line.partition(">")
            steps.append((">", _int(u.strip(), "vertex", lineno),
                          _int(v.strip(), "vertex", lineno)))
        else:
            raise FormatError(f"bad step '{line}'", lineno)
    return ReconSequence(start, steps)


def verify_sequence(inst, seq):
    """Replay a sequence against an instance, checking every rule condition.

    Returns a VerifyResult; on failure ``step`` is the index of the earliest
    violating step (None when the start set itself is wrong, len(steps) when
    only the final set mismatches).
    """
    if set(seq.start) != set(inst.start):
        return VerifyResult(False, None, "start set does not match S")
    n = inst.n
    tracker = make_tracker(inst.representation, seq.start, inst.c)
    members = tracker.members  # kept in step by the tracker's add and remove
    tar = inst.rule == "tar"
    for i, step in enumerate(seq.steps):
        kind = step[0]
        if tar and kind == ">":
            return VerifyResult(False, i, "swap step not allowed under tar")
        if not tar and kind != ">":
            return VerifyResult(False, i, f"only swap steps allowed under {inst.rule}")
        if kind == "+":
            v = step[1]
            if not 0 <= v < n:
                return VerifyResult(False, i, f"vertex {v} out of range")
            if v in members:
                return VerifyResult(False, i, f"vertex {v} already in set")
            if not tracker.can_add(v):
                return VerifyResult(False, i, f"set not {inst.c}-colorable after adding {v}")
            tracker.add(v)
        elif kind == "-":
            v = step[1]
            if v not in members:
                return VerifyResult(False, i, f"vertex {v} not in set")
            tracker.remove(v)
            if len(members) < inst.k:
                return VerifyResult(False, i, "size below threshold")
        else:
            u, v = step[1], step[2]
            if not 0 <= v < n:
                return VerifyResult(False, i, f"vertex {v} out of range")
            if u not in members:
                return VerifyResult(False, i, f"vertex {u} not in set")
            if v in members:
                return VerifyResult(False, i, f"vertex {v} already in set")
            if inst.rule == "ts" and not adjacent_in(inst.representation, u, v):
                return VerifyResult(False, i, f"not an edge: {u} {v}")
            tracker.remove(u)
            if not tracker.can_add(v):
                return VerifyResult(False, i, f"set not {inst.c}-colorable after swap {u}>{v}")
            tracker.add(v)
    if members != set(inst.target):
        return VerifyResult(False, len(seq.steps), "final set does not match S2")
    return VerifyResult(True)
