"""File formats: parsing, rendering, round trips, and sequence verification."""
from __future__ import annotations

import gc
import json
import random
import re
import sys
import tracemalloc
from dataclasses import replace

import pytest

from csrecon import (
    FormatError,
    Graph,
    Instance,
    InvariantError,
    ReconSequence,
    SplitModel,
    model_from_intervals,
    oracle_distance,
    parse_instance,
    parse_sequence,
    render_instance,
    render_sequence,
    shortest_tar_sequence,
    tar_distance,
    tar_to_tj,
    verify_sequence,
)
from csrecon.generators import (
    greedy_set,
    random_edges_instance,
    random_endpoints,
    random_interval_instance,
    random_split_instance,
)
from csrecon import instances
from csrecon.cli import main
from csrecon.instances import VerifyResult, parse_document

from conftest import brute_force_colorable, graph_from_model, graph_from_split

MINIMAL = """\
format: csr/1
rule: tar            # tar | tj | ts
c: 1
k: 1
repr: intervals      # intervals | edges | split
n: 3
body:                # intervals: n lines "l r"; edges: first "m", then m lines "u v";
1 1                  # split: line "K: v v ..." then "m", then m edge lines
1 2
2 2
S: 0
S2: 2
"""


def test_parse_minimal_instance():
    inst = parse_instance(MINIMAL)
    assert inst.n == 3 and inst.c == 1 and inst.k == 1 and inst.rule == "tar"
    assert inst.start == {0} and inst.target == {2}
    assert inst.repr_kind == "intervals"


def test_threshold_violation_is_named():
    text = MINIMAL.replace("S: 0", "S:")
    with pytest.raises(InvariantError, match="threshold violated"):
        parse_instance(text)


def test_colorability_violation_is_named():
    text = MINIMAL.replace("S: 0", "S: 0 1")
    with pytest.raises(InvariantError, match="not 1-colorable"):
        parse_instance(text)


def test_tj_size_mismatch_is_named():
    text = MINIMAL.replace("rule: tar", "rule: tj").replace("k: 1", "k: 0")
    text = text.replace("S2: 2", "S2:")
    with pytest.raises(InvariantError, match="size mismatch"):
        parse_instance(text)


def test_syntax_error_carries_line_number():
    text = MINIMAL.replace("1 2", "1 x")
    with pytest.raises(FormatError, match="line 9"):
        parse_instance(text)
    with pytest.raises(FormatError, match="line 1"):
        parse_instance("format: csr/9\nbody:\n")


def test_missing_body_rejected():
    with pytest.raises(FormatError, match="body"):
        parse_instance("format: csr/1\nrule: tar\nc: 1\nk: 0\nrepr: edges\nn: 0\n")


def test_edges_and_split_bodies():
    text = """\
format: csr/1
rule: tar
c: 1
k: 0
repr: edges
n: 3
body:
2
0 1
1 2
S: 0
S2: 2
"""
    inst = parse_instance(text)
    assert isinstance(inst.representation, Graph)
    assert inst.representation.m == 2
    with pytest.raises(FormatError, match=r"^line 8: edge count must be nonnegative$"):
        parse_instance(text.replace("body:\n2\n", "body:\n-1\n"))
    with pytest.raises(FormatError, match=r"^line 9: edge vertex out of range: 0 7$"):
        parse_instance(text.replace("0 1\n", "0 7\n"))
    with pytest.raises(FormatError, match=r"^loop at vertex 0$"):
        parse_instance(text.replace("0 1\n", "0 0\n"))
    with pytest.raises(FormatError, match=r"^parallel edge \(0, 1\)$"):
        parse_instance(text.replace("1 2\n", "1 0\n"))

    split_text = """\
format: csr/1
rule: tar
c: 1
k: 0
repr: split
n: 3
body:
K: 0 1
2
0 1
1 2
S: 2
S2: 2
"""
    inst = parse_instance(split_text)
    assert isinstance(inst.representation, SplitModel)
    assert inst.representation.clique_part == {0, 1}
    with pytest.raises(FormatError, match=r"^line 8: clique part vertex 5 out of range$"):
        parse_instance(split_text.replace("K: 0 1\n", "K: 0 5\n"))


def test_missing_keys_name_their_line():
    # a missing header key is reported at 'body:', a missing set at the last line
    for key in ("rule", "c", "k"):
        text = "".join(line for line in MINIMAL.splitlines(keepends=True)
                       if not line.startswith(f"{key}:"))
        with pytest.raises(FormatError, match=rf"^line 6: missing '{key}:'$"):
            parse_instance(text)
    for line in ("S: 0\n", "S2: 2\n"):
        with pytest.raises(FormatError,
                           match=r"^line 11: missing 'S:' or 'S2:' after body$"):
            parse_instance(MINIMAL.replace(line, ""))


def test_split_body_rejects_bad_partition():
    bad = """\
format: csr/1
rule: tar
c: 1
k: 0
repr: split
n: 3
body:
K: 0 2
2
0 1
1 2
S:
S2:
"""
    with pytest.raises(FormatError, match="clique"):
        parse_instance(bad)


def test_round_trip_is_identity_on_rendered_text():
    # a parsed intervals body keeps only its model, so it renders as clique runs: from
    # then on the text is fixed, and the runs are the drawn model's
    rng = random.Random(321)
    for _ in range(60):
        n = rng.randint(0, 10)
        c = rng.randint(1, 3)
        kind = rng.choice(["interval", "split", "edges"])
        if kind == "interval":
            inst = random_interval_instance(rng, n, c)
        elif kind == "split":
            inst = random_split_instance(rng, n, c)
        else:
            inst = random_edges_instance(rng, n, c)
        text = render_instance(inst)
        back = parse_instance(text)
        assert back.endpoints is None
        again = render_instance(back)
        if kind == "interval":
            rep, got = inst.representation, back.representation
            assert (got.t, got.lefts, got.rights) == (rep.t, rep.lefts, rep.rights)
            text = again
            again = render_instance(parse_instance(text))
        assert text == again


def test_parsed_interval_instance_holds_each_interval_once():
    # shaped like the benchmark's 1e5 intervals at n = 20,000: coordinates up to 2n,
    # runs of at most 6, two greedy c = 2 sets, tar at k = 0
    n = 20_000
    rng = random.Random(5)
    endpoints = random_endpoints(rng, n, coord_max=2 * n, max_len=6)
    model = model_from_intervals(endpoints)
    start, target = greedy_set(model, 2, rng), greedy_set(model, 2, rng)
    text = render_instance(Instance(model, "tar", 2, 0, start, target, endpoints=endpoints))
    del endpoints, model, start, target
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        inst = parse_instance(text)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 200 * n, retained / n
    assert inst.endpoints is None


def test_canonical_intervals_parse_in_under_250_bytes_a_vertex():
    # the benchmark's 1e5 intervals: coordinates up to 2n, runs of at most 6; a list of
    # the text's lines or of its (l, r) pairs alone would take the peak past the bound
    n = 100_000
    rng = random.Random(5)
    endpoints = random_endpoints(rng, n, coord_max=2 * n, max_len=6)
    model = model_from_intervals(endpoints)
    start, target = greedy_set(model, 2, rng), greedy_set(model, 2, rng)
    text = render_instance(Instance(model, "tar", 2, 0, start, target, endpoints=endpoints))
    del endpoints, model, start, target
    gc.collect()
    tracemalloc.start()
    try:
        parse_document(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 250 * n, peak / n


def test_interval_instance_without_endpoints_renders_its_runs(
        e1_model, e2_model, e3_model, e4_model, e5_model):
    models = [e1_model, e2_model, e3_model, e4_model, e5_model,
              model_from_intervals([(-7, -3), (-5, 0), (-1, 4), (2, 2)]),   # negative coordinates
              model_from_intervals([(1, 10), (2, 3), (4, 9), (5, 6), (7, 8)])]  # nested
    for model in models:
        inst = Instance(model, "tar", 1, 0, {0}, {model.n - 1})
        text = render_instance(inst)
        body = text.split("body:\n")[1].splitlines()[:model.n]
        assert body == [f"{l} {r}" for l, r in zip(model.lefts, model.rights)]
        back = parse_instance(text).representation
        assert (back.t, back.lefts, back.rights) == (model.t, model.lefts, model.rights)


def _parsed(inst):
    """What a parse yields, in comparable form."""
    rep = inst.representation
    shape = (rep.t, rep.lefts, rep.rights) if inst.repr_kind == "intervals" else None
    return render_instance(inst), shape


def test_canonical_bodies_parse_like_the_per_line_path(monkeypatch):
    """A body as render_instance writes it is read in one pass; a comment or a tab on
    one of its lines, or a leading zero in an intervals body, sends it line by line, and
    both reads agree."""
    per_line = []
    real_pairs = instances._pairs
    monkeypatch.setattr(instances, "_pairs",
                        lambda chunk, *count: per_line.append(1) or real_pairs(chunk, *count))
    rng = random.Random(77)
    makers = {"intervals": random_interval_instance, "split": random_split_instance,
              "edges": random_edges_instance}
    for _ in range(150):
        kind = rng.choice(sorted(makers))
        inst = makers[kind](rng, rng.randint(1, 30), rng.randint(1, 3))
        text = render_instance(inst)
        lines = text.splitlines()
        # the body's pair lines: after 'body:', a split body's K line and an edge count
        first = lines.index("body:") + 1 + {"intervals": 0, "edges": 1, "split": 2}[kind]
        count = inst.n if kind == "intervals" else int(lines[first - 1])
        if not count:
            continue
        j = first + rng.randrange(count)
        edits = [lines[j] + " # x", lines[j].replace(" ", "\t")]
        lines[j] = rng.choice(edits + ["0" + lines[j]] * (kind == "intervals"))
        per_line.clear()
        fast = parse_instance(text)
        assert not per_line
        slow = parse_instance("\n".join(lines) + "\n")
        assert per_line
        assert _parsed(fast) == _parsed(slow) and fast.rule == slow.rule
        assert (fast.c, fast.k, fast.start, fast.target) == (slow.c, slow.k, slow.start, slow.target)


CANONICAL_EDGES = """\
format: csr/1
rule: tar
c: 2
k: 0
repr: edges
n: 4
body:
4
0 1
0 2
1 2
2 3
S: 0
S2: 3
"""
CANONICAL_SPLIT = CANONICAL_EDGES.replace("repr: edges", "repr: split").replace(
    "body:\n", "body:\nK: 0 1 2\n")
CANONICAL_INTERVALS = """\
format: csr/1
rule: tar
c: 1
k: 1
repr: intervals
n: 3
body:
1 1
1 2
2 2
S: 0
S2: 2
"""
LONG_TOKEN = "9" * 5000


@pytest.mark.parametrize("text, old, new, message", [
    (CANONICAL_EDGES, "2 3\n", "2 4\n", "line 12: edge vertex out of range: 2 4"),
    (CANONICAL_EDGES, "1 2\n", "1 1\n", "loop at vertex 1"),
    (CANONICAL_EDGES, "2 3\n", "2 0\n", "parallel edge (0, 2)"),
    (CANONICAL_EDGES, "2 3\n", f"2 {LONG_TOKEN}\n", "line 12: expected two integers (edge)"),
    (CANONICAL_EDGES, "0 2\n", "0 \n", "line 10: expected two integers (edge)"),
    (CANONICAL_EDGES, "body:\n4", "body:\n5", "line 13: expected two integers (edge)"),
    (CANONICAL_EDGES, "body:\n4", "body:\n9", "line 14: body ended early while reading edges"),
    (CANONICAL_SPLIT, "2 3\n", "3 4\n", "line 13: edge vertex out of range: 3 4"),
    (CANONICAL_SPLIT, "0 2\n", "2 2\n", "loop at vertex 2"),
    (CANONICAL_SPLIT, "\n1 2\n", "\n1 0\n", "parallel edge (0, 1)"),
    (CANONICAL_SPLIT, "\n4\n", "\n7\n", "line 15: body ended early while reading edges"),
    (CANONICAL_INTERVALS, "1 2\n", "2 1\n", "line 9: malformed endpoint pair (2, 1)"),
    (CANONICAL_INTERVALS, "2 2\n", f"2 {LONG_TOKEN}\n",
     "line 10: expected two integers (interval endpoints)"),
    (CANONICAL_INTERVALS, "n: 3", "n: 4", "line 11: expected two integers (interval endpoints)"),
    (CANONICAL_INTERVALS, "n: 3", "n: 9",
     "line 12: body ended early while reading interval endpoints"),
], ids=["edges-range", "edges-loop", "edges-parallel", "edges-long-token", "edges-empty-token",
        "edges-count-past-body", "edges-count-past-text", "split-range", "split-loop",
        "split-parallel", "split-count-past-text", "intervals-reversed", "intervals-long-token",
        "intervals-n-past-body", "intervals-n-past-text"])
def test_malformed_canonical_bodies_keep_their_messages(text, old, new, message):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 3.10.7 and later
    if LONG_TOKEN in new and not 0 < limit < len(LONG_TOKEN):
        pytest.skip("this interpreter converts a 5,000-digit token")
    parse_instance(text)
    assert old in text
    with pytest.raises(FormatError) as info:
        parse_instance(text.replace(old, new, 1))
    assert str(info.value) == message


def _outcome(parse, text):
    """What parsing ``text`` yields in comparable form, or the message it raises."""
    try:
        inst = parse(text)
    except (FormatError, InvariantError) as exc:
        return str(exc)
    return _parsed(inst), inst.rule, inst.c, inst.k, inst.start, inst.target


def test_intervals_read_from_the_text_read_as_the_per_line_path_reads_them(monkeypatch):
    """An intervals body of n canonical lines right after a bare 'body:' line is
    decoded from the text, with no list of lines or pairs; any text around it reads as
    the per-line path reads it, messages and line numbers included.  'body:  # x'
    sends a text line by line without moving a line."""
    per_line = []
    real = instances.model_from_intervals
    monkeypatch.setattr(instances, "model_from_intervals",
                        lambda pairs: per_line.append(1) or real(pairs))
    edits = [
        ("", ""), ("\nrepr:", "  # r\nrepr:"), ("\nS:", "\n\n# c\n\nS:"),
        ("\nS:", "\n5 6\nS:"), ("\nS:", "\n5 6x\nS:"), ("\nS:", "\n7\nS:"),
        ("\nS:", "\nS: 0\nS:"), ("\nS2:", "\nS3:"), ("\nS:", "\njunk\nS:"),
        ("\nS2:", "\r\nS2:"), ("\nS:", " \nS:"), ("\nS:", "\t\nS:"), ("\nS:", "\r\nS:"),
        ("body:\n", "body:\n\n"), ("body:\n", "body:\n0"), ("body:\n", "body:\n# c\n"),
        ("format: csr/1\n", "format: csr/1\nbody:\n"), ("format", "body: 1\nformat"),
    ]
    rng = random.Random(91)
    for i in range(150):
        inst = random_interval_instance(rng, rng.randint(1, 30), rng.randint(1, 3),
                                        rule=rng.choice(("tar", "tj")))
        text = render_instance(inst)
        n = inst.n
        old, new = edits[i % len(edits)] if i < 2 * len(edits) else rng.choice(edits + [
            (f"n: {n}", f"n: {n - 1}"), (f"n: {n}", f"n: {n + 1}"), (f"n: {n}", "n: 0")])
        assert old in text
        text = text.replace(old, new, 1)
        for edited in (text, text[:-1], text.replace("\n", "\r\n", 3)):
            per_line.clear()
            fast = _outcome(parse_instance, edited)
            canonical = not old and edited == text
            assert not (canonical and per_line)
            slow = _outcome(parse_instance, edited.replace("\nbody:\n", "\nbody:  # x\n", 1))
            assert fast == slow, edited
            assert per_line or not canonical


def test_extra_trailing_keys_are_preserved_for_sources():
    text = """\
format: csr/1
c: 2
repr: edges
n: 3
body:
2
0 1
1 2
I: 0 2
I2: 0 2
"""
    header, rep, fields = parse_document(text)
    assert "I" in fields and "I2" in fields
    assert rep.m == 2


def test_sequence_round_trip():
    seq = ReconSequence({0, 2}, [("+", 1), ("-", 0), (">", 2, 3)])
    text = render_sequence(seq)
    back = parse_sequence(text)
    assert back.start == {0, 2} and back.steps == seq.steps
    assert render_sequence(back) == text


def test_sequence_parse_errors():
    with pytest.raises(FormatError, match="start"):
        parse_sequence("+1\n")
    with pytest.raises(FormatError, match="bad step"):
        parse_sequence("start: 0\nnope\n")


TAR_SEQUENCE = "start: 0 3\n+5\n+7\n-0\n-3\n"
SWAP_SEQUENCE = "start: 0 3\n0>5\n3>7\n"
TAR_STEPS = [("+", 5), ("+", 7), ("-", 0), ("-", 3)]
SWAP_STEPS = [(">", 0, 5), (">", 3, 7)]
LONG_STEP_MESSAGE = "line 3: vertex must be an integer, got "


def _seeded_sequences(rng):
    """Rendered sequences: the oracle's under each rule, then drawn step lists
    with vertices up to 10^6, then an empty start with and without steps."""
    for i in range(90):
        rule = ("tar", "tj", "ts")[i % 3]
        inst = random_edges_instance(rng, rng.randint(1, 8), rng.randint(1, 3), rule=rule)
        _, seq = oracle_distance(inst.representation, inst.c, inst.start, inst.target,
                                 inst.k, rule=rule)
        yield render_sequence(seq or ReconSequence(set(inst.start), []))
    for i in range(90):
        top = rng.choice((9, 10 ** 6))
        start = set(rng.sample(range(top + 1), rng.randint(0, 6)))
        count = rng.choice((0, rng.randint(1, 40)))
        if i % 2:
            steps = [(rng.choice("+-"), rng.randint(0, top)) for _ in range(count)]
        else:
            steps = [(">", rng.randint(0, top), rng.randint(0, top)) for _ in range(count)]
        yield render_sequence(ReconSequence(start, steps))
    yield "start:\n"
    yield "start:\n+0\n-0\n"
    yield "start:\n0>1\n"


def test_canonical_sequences_parse_like_the_per_line_path(monkeypatch):
    """A sequence as render_sequence writes it is decoded in one pass and reads as the
    per-line path reads it; hand-edited text goes line by line, with the same results
    and messages (taken from the per-line parser and hard-coded here)."""
    per_line = []
    real_entries = instances._entries
    monkeypatch.setattr(instances, "_entries",
                        lambda numbered: per_line.append(1) or real_entries(numbered))

    def line_by_line(text):  # a leading comment line sends any text line by line
        return parse_sequence("# edited\n" + text)

    texts = list(_seeded_sequences(random.Random(27)))
    assert all(any(mark in text for text in texts) for mark in ("\n+", "\n-0\n", ">"))
    for text in texts:
        per_line.clear()
        fast = parse_sequence(text)
        assert not per_line, text
        slow = line_by_line(text)
        assert per_line
        assert (fast.start, fast.steps) == (slow.start, slow.steps), text
        assert render_sequence(fast) == text
    # '-0' is how render_sequence writes the removal of vertex 0, so it stays canonical
    per_line.clear()
    assert parse_sequence(TAR_SEQUENCE).steps == TAR_STEPS and not per_line

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 3.10.7 and later
    edited = [
        (TAR_SEQUENCE.replace("+7\n", "+7 # edited\n"), TAR_STEPS),
        ("# edited\n" + SWAP_SEQUENCE, SWAP_STEPS),
        (TAR_SEQUENCE.replace("+5", "+\t5"), TAR_STEPS),
        (SWAP_SEQUENCE.replace("\n", "\r\n"), SWAP_STEPS),
        (TAR_SEQUENCE.replace("+7", "+07"), TAR_STEPS),
        (SWAP_SEQUENCE.replace("0>5", "-0>5"), SWAP_STEPS),
        (TAR_SEQUENCE.replace("+5", "+ 5"), TAR_STEPS),
        (TAR_SEQUENCE.replace("-3\n", "3>9\n"), TAR_STEPS[:3] + [(">", 3, 9)]),
        (TAR_SEQUENCE + "\n", TAR_STEPS),
        (SWAP_SEQUENCE[:-1], SWAP_STEPS),
        ("# edited\n" + TAR_SEQUENCE.replace("-3", "*3"), "line 6: bad step '*3'"),
    ]
    if 0 < limit < len(LONG_TOKEN):
        quoted = f"'{LONG_TOKEN[:20]}…' (5000 characters; int() reads at most {limit} digits)"
        edited += [(SWAP_SEQUENCE.replace("3>7", f"3>{LONG_TOKEN}"), LONG_STEP_MESSAGE + quoted),
                   (TAR_SEQUENCE.replace("+7", f"+{LONG_TOKEN}"), LONG_STEP_MESSAGE + quoted)]
    for text, want in edited:
        per_line.clear()
        if isinstance(want, str):
            with pytest.raises(FormatError) as info:
                parse_sequence(text)
            assert str(info.value) == want
        else:
            seq = parse_sequence(text)
            assert (seq.start, seq.steps) == ({0, 3}, want), text
        assert per_line, text


# how parse_sequence recognised canonical text before it compared strings instead
_CANONICAL_SEQUENCE = re.compile(r"start:(?: [0-9]+)*\n(?:(?:[+-][0-9]+\n)*|(?:[0-9]+>[0-9]+\n)*)")
_JSON_COMMAS = str.maketrans({" ": ",", "\n": ",", ">": ",", "+": None, "-": None})


def _one_pass_by_regex(text):
    """Whether the regex, then JSON, let ``text`` be read in one pass."""
    if not _CANONICAL_SEQUENCE.fullmatch(text):
        return False
    try:
        json.loads(f"[{text[7:-1].translate(_JSON_COMMAS)}]")
    except ValueError:  # a leading zero, or a token past int()'s digit limit
        return False
    return True


def test_sequence_text_is_read_in_one_pass_exactly_where_the_regex_allowed_it(monkeypatch):
    """Seeded rendered sequences, the hand-edited forms, and seeded one-character edits of
    both: the string comparisons take the one-pass path on exactly the texts the regex and
    JSON took it on, and what that path reads is what the per-line path reads."""
    per_line = []
    real_entries = instances._entries
    monkeypatch.setattr(instances, "_entries",
                        lambda numbered: per_line.append(1) or real_entries(numbered))
    rng = random.Random(45)
    texts = list(_seeded_sequences(rng)) + [
        "# edited\n" + TAR_SEQUENCE, TAR_SEQUENCE.replace("+7\n", "+7 # edited\n"),
        TAR_SEQUENCE.replace("+5", "+\t5"), SWAP_SEQUENCE.replace("\n", "\r\n"),
        TAR_SEQUENCE.replace("+7", "+07"), SWAP_SEQUENCE.replace("0>5", "-0>5"),
        SWAP_SEQUENCE.replace("0>5", "+0>5"), TAR_SEQUENCE.replace("+5", "+ 5"),
        TAR_SEQUENCE.replace("-3\n", "3>9\n"), SWAP_SEQUENCE.replace("3>7", "+3"),
        SWAP_SEQUENCE.replace("3>7", f"3>{LONG_TOKEN}"),
        TAR_SEQUENCE.replace("+7", f"+{LONG_TOKEN}"),
        TAR_SEQUENCE + "\n", SWAP_SEQUENCE[:-1], "start:1\n", "start:1 2\n+3\n", "start: \n",
        "start: 1 \n", "start:  1\n", "start:\n+\n", "start:\n>1\n", "start:", "",
    ]
    for text in texts[:]:  # one character inserted, dropped or replaced
        for _ in range(8):
            i = rng.randrange(len(text) + 1)
            char = rng.choice("0123 \n+->\t\r#:s")
            texts.append(rng.choice((text[:i] + char + text[i:], text[:i] + text[i + 1:],
                                     text[:i] + char + text[i + 1:])))
    one_pass = 0
    for text in texts:
        per_line.clear()
        try:
            seq = parse_sequence(text)
        except FormatError:
            seq = None
        assert (not per_line) == _one_pass_by_regex(text), repr(text)
        if not per_line:
            one_pass += 1
            slow = parse_sequence("# edited\n" + text)  # a leading comment goes line by line
            assert (seq.start, seq.steps) == (slow.start, slow.steps), repr(text)
    assert 200 < one_pass < len(texts) - 500


@pytest.mark.parametrize("kind", ["+-", ">"])
def test_parse_sequence_allocates_a_few_bytes_an_int_beyond_its_result(kind):
    """A 100,000-step canonical sequence: the text's translations and the int list JSON
    decodes, freed on return, stay under 28 bytes an int read (one a +/- step, two a swap);
    with the regex check's group repeats this read about 46."""
    rng = random.Random(47)
    n = 100_000
    steps = [(rng.choice(kind), rng.randrange(n)) if kind == "+-" else
             (">", rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    text = render_sequence(ReconSequence({1, 2, 3}, steps))
    tracemalloc.start()
    try:
        seq = parse_sequence(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seq.steps == steps
    assert peak - kept < 28 * (3 + n * len(steps[0][1:]))


def _vertex_list_per_token(val, lineno):
    """Set lines as map(int, split()) reads them, the first bad token named."""
    tokens = val.split()
    try:
        return list(map(int, tokens))
    except ValueError:
        for tok in tokens:
            try:
                int(tok)
            except ValueError:
                raise FormatError(f"bad vertex {instances._quoted(tok)}", lineno) from None


def _set_values(rng):
    """Set-line values on both sides of the length past which JSON reads them: sorted
    sets, vertex 0 first, and path orders as P:/P2: lines hold, each also with one
    token or space edited into a form int() and JSON read apart."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    long_token = "9" * max(limit + 1, 5000)
    for i in range(60):
        top = rng.choice((12, 120, 3000, 10 ** 6))
        members = sorted(rng.sample(range(top), rng.randint(1, min(top, 400))))
        if i % 3 == 1:
            members = [0] + [v for v in members if v]
        elif i % 3 == 2:
            rng.shuffle(members)
        tokens = list(map(str, members))
        yield " ".join(tokens)
        j = rng.randrange(len(tokens))
        for token in ("0" + tokens[j], "+3", "1_0", "-3", "1.0", "1e3", "null", "٣", long_token):
            yield " ".join(tokens[:j] + [token] + tokens[j + 1:])
        yield " ".join(tokens).replace(" ", rng.choice(("\t", "  ", " ,", " \u2003")), 1)
    yield ""
    yield "0"


def test_set_lines_read_as_map_int_reads_them():
    values = list(_set_values(random.Random(33)))
    assert {len(val) > 128 for val in values} == {False, True}  # both sides of the cutoff
    for val in values:
        try:
            want = _vertex_list_per_token(val, 4)
        except FormatError as exc:
            with pytest.raises(FormatError) as info:
                instances._vertex_list(val, 4)
            assert str(info.value) == str(exc), val
        else:
            assert instances._vertex_list(val, 4) == want, val


def test_set_lines_of_parsed_files_read_as_map_int_reads_them(monkeypatch):
    """The K:, S: and S2: lines of rendered split and intervals files, one of them edited
    (a comment, a tab, a leading zero, '+3', '1_0'), parse as they parse when every set
    line is read token by token."""
    rng = random.Random(35)
    texts = []
    for i in range(40):
        make = random_split_instance if i % 2 else random_interval_instance
        text = render_instance(make(rng, rng.choice((12, 120)), rng.randint(1, 3)))
        lines = text.splitlines()
        j = rng.choice([j for j, line in enumerate(lines) if line[:2] in ("K:", "S:", "S2")])
        key, _, val = lines[j].partition(":")
        tokens = val.split() or ["0"]
        t = rng.randrange(len(tokens))
        tokens[t] = rng.choice(("0" + tokens[t], "+3", "1_0", tokens[t] + "  # edited"))
        edited = " ".join(tokens)
        lines[j] = f"{key}: {rng.choice((edited, edited.replace(' ', chr(9), 1)))}"
        texts += [text, "\n".join(lines) + "\n"]
    assert any(len(line) > 128 for text in texts for line in text.splitlines())
    fast = [_outcome(parse_instance, text) for text in texts]
    monkeypatch.setattr(instances, "_vertex_list", _vertex_list_per_token)
    assert fast == [_outcome(parse_instance, text) for text in texts]


def _render_sequence_per_step(seq):
    """render_sequence as one f-string a step writes it."""
    start = " ".join(str(v) for v in sorted(seq.start))
    out = [f"start: {start}" if seq.start else "start:"]
    out.extend(f"{s[1]}>{s[2]}" if s[0] == ">" else f"{s[0]}{s[1]}" for s in seq.steps)
    return "\n".join(out) + "\n"


def test_render_sequence_writes_what_one_format_a_step_writes():
    """Engine sequences (tar steps, and tj swaps), drawn ones (vertex 0 and vertices up
    to 10^6), empty ones and mixed ones render byte for byte as before and read back."""
    rng = random.Random(41)
    seqs = []
    for _ in range(40):
        inst = random_interval_instance(rng, rng.randint(1, 40), rng.randint(1, 3))
        seq = shortest_tar_sequence(inst.representation, inst.c, inst.start, inst.target, inst.k)
        if seq is not None:
            seqs += [seq, tar_to_tj(seq)]
    for _ in range(60):
        top = rng.choice((1, 9, 10 ** 6))
        start = set(rng.sample(range(top + 1), rng.randint(0, min(top + 1, 6))))
        count = rng.choice((0, rng.randint(1, 40)))
        tar = [(rng.choice("+-"), rng.randint(0, top)) for _ in range(count)]
        swaps = [(">", rng.randint(0, top), rng.randint(0, top)) for _ in range(count)]
        seqs += [ReconSequence(start, tar), ReconSequence(start, swaps),
                 ReconSequence(start, rng.sample(tar + swaps, len(tar + swaps)))]
    assert any(s.steps and {len(step) for step in s.steps} == {2, 3} for s in seqs)
    for seq in seqs:
        text = render_sequence(seq)
        assert text == _render_sequence_per_step(seq)
        back = parse_sequence(text)
        assert (back.start, back.steps) == (set(seq.start), list(seq.steps))


@pytest.mark.parametrize("parse, text, message", [
    (parse_instance, MINIMAL.replace("n: 3", f"n: {LONG_TOKEN}"), "line 6: n must be an integer, got "),
    (parse_instance, MINIMAL.replace("S: 0", f"S: 0 {LONG_TOKEN}"), "line 11: bad vertex "),
    (parse_sequence, f"start: 1 {LONG_TOKEN}\n", "line 1: bad vertex "),
    (parse_sequence, f"start: 0\n+1\n0>{LONG_TOKEN}\n", "line 3: vertex must be an integer, got "),
], ids=["header-n", "set-S", "sequence-start", "sequence-step"])
def test_tokens_past_the_digit_limit_are_cut_short(parse, text, message):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 3.10.7 and later
    if not 0 < limit < len(LONG_TOKEN):
        pytest.skip("this interpreter converts a 5,000-digit token")
    with pytest.raises(FormatError) as info:
        parse(text)
    assert str(info.value) == message + (
        f"'{LONG_TOKEN[:20]}…' (5000 characters; int() reads at most {limit} digits)")


def test_tokens_are_quoted_whole_without_a_digit_limit(monkeypatch):
    # Python 3.10 builds before 3.10.7 have no sys.get_int_max_str_digits
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    assert instances._quoted(LONG_TOKEN) == f"'{LONG_TOKEN}'"
    assert instances._quoted("x") == "'x'"


# --- verification ------------------------------------------------------------

def _e1_instance():
    return parse_instance(MINIMAL)


def test_verify_e1_sequence_ok():
    inst = _e1_instance()
    seq = ReconSequence({0}, [("+", 2), ("-", 0)])
    assert verify_sequence(inst, seq).ok


def test_a_parsed_instance_answers_alike_on_repeated_use():
    # parsing hands its trackers over once, and a replay moves the S tracker it
    # takes, so each later use must build its own and answer the same
    seq = ReconSequence({0}, [("+", 2), ("-", 0)])
    inst = _e1_instance()
    assert verify_sequence(inst, seq) == verify_sequence(inst, seq) == VerifyResult(True)
    args = (inst.representation, inst.c, inst.start, inst.target, inst.k)
    want = tar_distance(*args)
    assert want.distance == 2
    assert tar_distance(*args, inst.take_trackers()) == want
    fresh = _e1_instance()
    assert tar_distance(*args, fresh.take_trackers()) == want
    assert verify_sequence(fresh, seq) == VerifyResult(True)
    assert fresh.take_trackers() is None


def test_trackers_are_set_by_parsing_only():
    # the constructor takes no trackers, and a replaced copy, whose sets may
    # differ, starts without the ones parsing built for the original
    inst = _e1_instance()
    with pytest.raises(TypeError):
        Instance(inst.representation, "tar", 1, 1, {0}, {2}, trackers=inst.trackers)
    assert replace(inst, start={1}).take_trackers() is None
    assert inst.take_trackers() is not None


def test_verify_threshold_violation():
    inst = _e1_instance()
    seq = ReconSequence({0}, [("-", 0), ("+", 2)])
    res = verify_sequence(inst, seq)
    assert not res.ok and res.step == 0 and "threshold" in res.reason


def test_verify_ts_requires_edge():
    text = MINIMAL.replace("rule: tar", "rule: ts")
    inst = parse_instance(text)
    seq = ReconSequence({0}, [(">", 0, 2)])
    res = verify_sequence(inst, seq)
    assert not res.ok and res.step == 0 and "not an edge" in res.reason
    # sliding along edges works: 0>1 is illegal only by colorability, 0-1 adjacent
    seq = ReconSequence({0}, [(">", 0, 1)])
    res = verify_sequence(inst, seq)
    assert not res.ok  # {1} colorable but 1 adjacent to both; swap to {1} is fine though
    # swap to the middle vertex gives a colorable singleton: must pass if target matches
    text2 = text.replace("S2: 2", "S2: 1")
    inst2 = parse_instance(text2)
    assert verify_sequence(inst2, ReconSequence({0}, [(">", 0, 1)])).ok


def test_verify_rejects_wrong_step_kind():
    inst = _e1_instance()
    res = verify_sequence(inst, ReconSequence({0}, [(">", 0, 2)]))
    assert not res.ok and "swap step not allowed" in res.reason
    tj_inst = parse_instance(MINIMAL.replace("rule: tar", "rule: tj"))
    res = verify_sequence(tj_inst, ReconSequence({0}, [("+", 1)]))
    assert not res.ok and "only swap steps" in res.reason


def test_verify_start_and_final_mismatches():
    inst = _e1_instance()
    res = verify_sequence(inst, ReconSequence({1}, []))
    assert not res.ok and res.step is None
    res = verify_sequence(inst, ReconSequence({0}, []))
    assert not res.ok and res.step == 0 and "final" in res.reason


def test_verify_colorability_violation():
    inst = _e1_instance()
    res = verify_sequence(inst, ReconSequence({0}, [("+", 1)]))
    assert not res.ok and "colorable" in res.reason


def test_verify_malformed_replay():
    inst = _e1_instance()
    res = verify_sequence(inst, ReconSequence({0}, [("+", 0)]))
    assert not res.ok and "already in set" in res.reason
    res = verify_sequence(inst, ReconSequence({0}, [("-", 2)]))
    assert not res.ok and "not in set" in res.reason


def _reference_replay(inst, seq, g):
    """verify_sequence's contract on a plain set, one branch per step kind,
    with colorability decided by brute force on the plain graph ``g``."""
    if set(seq.start) != inst.start:
        return VerifyResult(False, None, "start set does not match S")
    cur = set(seq.start)
    for i, step in enumerate(seq.steps):
        if inst.rule == "tar" and step[0] == ">":
            return VerifyResult(False, i, "swap step not allowed under tar")
        if inst.rule != "tar" and step[0] != ">":
            return VerifyResult(False, i, f"only swap steps allowed under {inst.rule}")
        if step[0] == "+":
            v = step[1]
            if not 0 <= v < g.n:
                return VerifyResult(False, i, f"vertex {v} out of range")
            if v in cur:
                return VerifyResult(False, i, f"vertex {v} already in set")
            if not brute_force_colorable(g, cur | {v}, inst.c):
                return VerifyResult(False, i, f"set not {inst.c}-colorable after adding {v}")
            cur.add(v)
        elif step[0] == "-":
            if step[1] not in cur:
                return VerifyResult(False, i, f"vertex {step[1]} not in set")
            cur.remove(step[1])
            if len(cur) < inst.k:
                return VerifyResult(False, i, "size below threshold")
        else:
            u, v = step[1], step[2]
            if not 0 <= v < g.n:
                return VerifyResult(False, i, f"vertex {v} out of range")
            if u not in cur:
                return VerifyResult(False, i, f"vertex {u} not in set")
            if v in cur:
                return VerifyResult(False, i, f"vertex {v} already in set")
            if inst.rule == "ts" and not g.has_edge(u, v):
                return VerifyResult(False, i, f"not an edge: {u} {v}")
            cur.remove(u)
            if not brute_force_colorable(g, cur | {v}, inst.c):
                return VerifyResult(False, i,
                                    f"set not {inst.c}-colorable after swap {u}>{v}")
            cur.add(v)
    if cur != inst.target:
        return VerifyResult(False, len(seq.steps), "final set does not match S2")
    return VerifyResult(True)


def _corruptions(rng, inst, seq):
    """The sequence itself, then damaged copies: a step dropped, repeated or
    moved, a vertex replaced by one in -1..n, a step of the wrong kind for
    the rule, and a start set that differs from S."""
    steps, n = seq.steps, inst.n
    yield seq
    for _ in range(6):
        damaged = list(steps)
        how = rng.randrange(5)
        if how < 3 and damaged:
            i = rng.randrange(len(damaged))
            if how == 0:
                del damaged[i]
            elif how == 1:
                damaged.insert(i, damaged[i])
            else:
                damaged.insert(rng.randrange(len(damaged)), damaged.pop(i))
        elif how == 3 and damaged:
            i = rng.randrange(len(damaged))
            step = list(damaged[i])
            for j in rng.sample(range(1, len(step)), rng.randint(1, len(step) - 1)):
                step[j] = rng.randint(-1, n)
            damaged[i] = tuple(step)
        else:
            i = rng.randint(0, len(damaged))
            u, v = rng.randint(-1, n), rng.randint(-1, n)
            if inst.rule == "tar":
                wrong = (">", u, v)
            else:
                wrong = (rng.choice("+-"), v)
            damaged.insert(i, wrong)
        yield ReconSequence(set(seq.start), damaged)
    yield ReconSequence(set(seq.start) ^ {rng.randrange(n)}, list(steps))


def test_verify_matches_brute_force_replay(tmp_path):
    inst_path, seq_path = tmp_path / "inst.csr", tmp_path / "seq.txt"
    rng = random.Random(1515)
    makers = [(random_interval_instance, graph_from_model),
              (random_split_instance, graph_from_split),
              (random_edges_instance, lambda g: g)]
    outcomes = set()
    drawn = 0
    while drawn < 150:
        make, plain = rng.choice(makers)
        rule = rng.choice(["tar", "tj", "ts"])
        inst = make(rng, rng.randint(1, 8), rng.randint(1, 3), rule=rule)
        if inst.start == inst.target:  # mostly both empty: nothing to replay
            continue
        drawn += 1
        g = plain(inst.representation)
        # the oracle's sequence as the CLI writes it, so the file format is replayed too
        inst_path.write_text(render_instance(inst), encoding="utf-8")
        if main(["oracle", str(inst_path), "--emit-sequence", "--out", str(seq_path)]) == 0:
            seq = parse_sequence(seq_path.read_text(encoding="utf-8"))
        else:
            seq = ReconSequence(set(inst.start), [])
        for case in _corruptions(rng, inst, seq):
            want = _reference_replay(inst, case, g)
            assert verify_sequence(inst, case) == want, (inst, case)
            outcomes.add(re.sub(r"(?<![A-Z])-?\d+", "#", want.reason or "ok"))
    assert outcomes == {
        "ok", "start set does not match S", "final set does not match S2",
        "swap step not allowed under tar", "only swap steps allowed under tj",
        "only swap steps allowed under ts", "vertex # out of range", "vertex # not in set",
        "vertex # already in set", "not an edge: # #", "size below threshold",
        "set not #-colorable after adding #", "set not #-colorable after swap #>#",
    }
