"""File formats: parsing, rendering, round trips, and sequence verification."""
from __future__ import annotations

import random

import pytest

from csrecon import (
    FormatError,
    Graph,
    InvariantError,
    ReconSequence,
    SplitModel,
    parse_instance,
    parse_sequence,
    render_instance,
    render_sequence,
    verify_sequence,
)
from csrecon.generators import (
    random_edges_instance,
    random_interval_instance,
    random_split_instance,
)
from csrecon.instances import parse_document

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
        again = render_instance(parse_instance(text))
        assert text == again


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
    header, rep, _, fields = parse_document(text)
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


# --- verification ------------------------------------------------------------

def _e1_instance():
    return parse_instance(MINIMAL)


def test_verify_e1_sequence_ok():
    inst = _e1_instance()
    seq = ReconSequence({0}, [("+", 2), ("-", 0)])
    assert verify_sequence(inst, seq).ok


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
